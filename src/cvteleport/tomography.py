"""Phase-scanned noise traces, quadrature records, and Wigner reconstruction.

This module emulates the measurement side of the experiment:

* ``spectrum_trace`` sweeps the homodyne phase and reports total noise power
  (variance plus coherent signal) relative to vacuum, in dB.  With an RNG it
  emulates finite trace averaging; without one it is exact.
* ``sample_record`` draws individual quadrature samples while the phase is
  scanned, producing the raw material for tomography.
* ``wigner_analytic`` evaluates the Gaussian Wigner function
  W(x, p) = exp(-delta^T Sigma^-1 delta / 2) / (2 pi sqrt(det Sigma))
  on a grid.  With hbar = 1/2 the vacuum peak is 2/pi.
* ``inverse_radon`` reconstructs W from a sample record on a given window
  by filtered back-projection: bin the record into a (theta, quadrature)
  sinogram, apply a ramp filter with a hard frequency cutoff, and
  back-project.
* ``wigner_moments`` extracts mean and covariance from a grid so
  reconstructions can be compared against analytic states.

Filter details, fixed here by a numerical bias study (see the repository
demos): profiles are zero-padded to 8x their length before the FFT ramp
filter is applied.  Without padding the ramp kernel's slowly decaying tails
wrap around in the circular convolution and depress the reconstruction by
tens of percent; at 8x padding the vacuum second moment is biased by < 0.5%.
The default cutoff is k_c = 6.5 / sigma_min, with sigma_min the smallest
marginal standard deviation seen in the record; larger cutoffs admit shot
noise, smaller ones blur the narrow quadrature.

A record is drawn in cache-sized blocks of _BLOCK samples (elementwise, so no
sample depends on the block size) and binned once, into one segment per phase
bin, which the phase counts, the default cutoff and the sinogram all read.
Its normals are drawn block by block from the caller's one stream, on a
second thread while the marginals are computed when the process may run on
more than one CPU, inline first otherwise; no result depends on which.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from typing import NamedTuple

from .gaussian import GaussianState, PhysicsError, VACUUM_VARIANCE

DEFAULT_GRID_POINTS = 81
DEFAULT_GRID_PAD_SIGMAS = 4.5
DEFAULT_TRACE_POINTS = 240
DEFAULT_TRACE_AVERAGES = 30
DEFAULT_THETA_BINS = 60
# Hard filter cutoff k_c = DEFAULT_CUTOFF_SIGMAS / sigma_min (bias study in demos).
DEFAULT_CUTOFF_SIGMAS = 6.5
# Quadrature bin width dq = (2 pi / k_c) / BINS_PER_CUTOFF_WAVELENGTH.
_BINS_PER_CUTOFF_WAVELENGTH = 5.0
_FILTER_PAD_FACTOR = 8
_SUPPORT_PAD_FACTOR = 1.05
_MAX_QUADRATURE_BINS = 1 << 15
MIN_COVERAGE_FRACTION = 0.8
MIN_RECORD_SAMPLES = 1000
NORMALIZATION_WINDOW = (0.95, 1.05)
_BLOCK = 1 << 15  # samples per block when drawing a record: 256 KiB of float64


def _readonly(array):
    """A read-only float copy: whoever gave ``array`` may still change it."""
    out = np.array(array, dtype=float)
    out.setflags(write=False)
    return out


def _set_samples(samples, name: str, kind: str, thetas, values):
    """Store read-only float arrays ``thetas`` and ``values`` as a trace's or
    record's thetas and field ``name``, and return it; raise unless they are
    matching 1-D arrays of finite values."""
    object.__setattr__(samples, "thetas", thetas)
    object.__setattr__(samples, name, values)
    if thetas.ndim != 1 or thetas.shape != values.shape:
        raise ValueError(f"thetas and {name} must be matching 1-D arrays")
    if not (np.all(np.isfinite(thetas)) and np.all(np.isfinite(values))):
        raise ValueError(f"{kind} values must be finite")
    return samples


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _single_mode(state: GaussianState) -> GaussianState:
    if state.n_modes != 1:
        raise ValueError(f"expected a single-mode state, got {state.n_modes} modes")
    return state


def _marginal_arrays(state, thetas):
    """Mean and variance of the rotated quadrature at each theta, vectorized."""
    c, s = np.cos(thetas), np.sin(thetas)
    mx, mp = state.mean
    cov = state.cov
    # var = c00 c c + 2 c01 c s + c11 s s and mu = mx c + mp s, in place but
    # in the association order of those sums, so the floats are theirs.
    var = cov[0, 0] * c
    var *= c
    term = np.multiply(2.0 * cov[0, 1], c)
    term *= s
    var += term
    np.multiply(cov[1, 1], s, out=term)
    term *= s
    var += term
    mu = np.multiply(mx, c, out=c)
    mu += np.multiply(mp, s, out=s)
    return mu, var


@dataclass(frozen=True)
class GridSpec:
    """Rectangular phase-space window with point counts per axis."""

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    n_x: int = DEFAULT_GRID_POINTS
    n_p: int = DEFAULT_GRID_POINTS

    def __post_init__(self) -> None:
        for name in ("x_min", "x_max", "p_min", "p_max"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("n_x", "n_p"):
            count = getattr(self, name)
            if isinstance(count, (bool, np.bool_)) or not float(count).is_integer():
                raise ValueError(f"{name} must be an integer, got {count!r}")
            object.__setattr__(self, name, int(count))
        if not (self.x_max > self.x_min and self.p_max > self.p_min):
            raise ValueError("grid window must have positive extent")
        if self.n_x < 2 or self.n_p < 2:
            raise ValueError("grid needs at least 2 points per axis")

    @classmethod
    def from_state(
        cls,
        state: GaussianState,
        n: int = DEFAULT_GRID_POINTS,
        pad: float = DEFAULT_GRID_PAD_SIGMAS,
    ) -> "GridSpec":
        """Window centered on the state mean, pad standard deviations wide."""
        _single_mode(state)
        mx, mp = state.mean
        sx = float(np.sqrt(state.cov[0, 0]))
        sp = float(np.sqrt(state.cov[1, 1]))
        x_min, x_max = mx - pad * sx, mx + pad * sx
        p_min, p_max = mp - pad * sp, mp + pad * sp
        if pad > 0 and not (x_max > x_min and p_max > p_min):
            raise PhysicsError(
                f"a {pad:g}-sd window cannot be resolved at the state's mean "
                f"({mx:.3g}, {mp:.3g}): it rounds to zero width"
            )
        return cls(x_min, x_max, p_min, p_max, n, n)

    def x_axis(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    def p_axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n_p)

    @property
    def cell_area(self) -> float:
        dx = (self.x_max - self.x_min) / (self.n_x - 1)
        dp = (self.p_max - self.p_min) / (self.n_p - 1)
        return dx * dp


@dataclass(frozen=True)
class PhaseScanTrace:
    """Noise power vs homodyne phase, in dB relative to vacuum.

    ``averages`` is the per-point sample count used to emulate finite trace
    averaging; None marks an exact (noise-free) trace.
    """

    thetas: np.ndarray
    power_db: np.ndarray
    averages: int | None

    def __post_init__(self) -> None:
        _set_samples(self, "power_db", "trace", _readonly(self.thetas), _readonly(self.power_db))


@dataclass(frozen=True)
class QuadratureRecord:
    """Raw (theta, value) samples from a phase-scanned homodyne measurement."""

    thetas: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        _set_samples(self, "values", "record", _readonly(self.thetas), _readonly(self.values))

    @property
    def n_samples(self) -> int:
        return self.thetas.size


@dataclass(frozen=True)
class WignerGrid:
    """Wigner function samples on a rectangular grid.

    values[i, j] = W(x_i, p_j) with x_i, p_j from spec's axes.  For a state
    whose support fits the window, the Riemann sum times the cell area lies
    in NORMALIZATION_WINDOW; the bound is enforced where it matters, in
    wigner_moments.
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        values = _readonly(self.values)
        shape = (self.spec.n_x, self.spec.n_p)
        if values.shape != shape:
            raise ValueError(f"values shape {values.shape} does not match grid {shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "values", values)

    def normalization(self) -> float:
        return float(self.values.sum() * self.spec.cell_area)


class WignerMoments(NamedTuple):
    mean: np.ndarray
    cov: np.ndarray
    normalization: float


def spectrum_trace(
    state: GaussianState,
    n_points: int = DEFAULT_TRACE_POINTS,
    averages: int = DEFAULT_TRACE_AVERAGES,
    rng: np.random.Generator | None = None,
) -> PhaseScanTrace:
    """Total noise power vs phase over one turn, [0, 2 pi): (variance +
    mean^2) / vacuum, in dB.

    ``state`` is a single-mode GaussianState (for a teleporter, the report's
    ``output_state``).  The power at each theta includes the coherent signal, so a displaced
    state shows a peak of 10 log10(1 + 4 |mean|^2 ... ) over the scan even
    when its variance is vacuum-like.  With ``rng`` the power is estimated
    from ``averages`` samples per point; with ``rng=None`` it is exact.
    """
    _single_mode(state)
    if n_points < 2:
        raise ValueError("a trace needs at least 2 points")
    if rng is not None and (averages < 1 or averages != int(averages)):
        raise ValueError("averages must be an integer >= 1")
    thetas = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    mu, var = _marginal_arrays(state, thetas)
    # A mean too large to square overflows to inf, raised below as a result.
    with np.errstate(over="ignore", invalid="ignore"):
        if rng is None:
            power = (var + mu * mu) / VACUUM_VARIANCE
        else:
            # the sum of `averages` squared N(mu, var) samples is var times a
            # noncentral chi^2(averages, averages mu^2 / var): one draw per point
            chi2 = rng.noncentral_chisquare(averages, averages * mu * mu / var)
            power = var / averages * chi2 / VACUUM_VARIANCE
    bad = np.count_nonzero(~np.isfinite(power))
    if bad:
        raise PhysicsError(f"trace power is not finite at {bad} of {n_points} phases")
    used_averages = None if rng is None else int(averages)
    return PhaseScanTrace(thetas, 10.0 * np.log10(power), used_averages)


def sample_record(
    state: GaussianState,
    n_samples: int,
    rng: np.random.Generator,
    thetas: np.ndarray | None = None,
) -> QuadratureRecord:
    """Draw quadrature samples of a single-mode state while scanning the phase.

    Returns the (theta, value) samples as a QuadratureRecord.
    The default schedule is a uniform linear sweep over [0, pi), one sample
    per phase step, approximating a continuous scan.  An explicit ``thetas``
    array overrides the schedule (its length wins over ``n_samples``).

    The normals z are drawn block by block, the stream and bytes of one
    ``rng.standard_normal(n)`` call, and leave ``rng`` where that call would.
    When the process may run on more than one CPU they are drawn on a second
    thread while this one computes each block's mean and spread; otherwise
    they are drawn first.  No result depends on which, and the drawing thread
    has ended when this returns or raises.
    """
    _single_mode(state)
    if thetas is None:
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        thetas = np.arange(n_samples, dtype=float)
        thetas *= np.pi / n_samples
    else:
        thetas = np.array(thetas, dtype=float)  # never the caller's array
        if thetas.ndim != 1 or thetas.size < 1:
            raise ValueError("thetas must be a non-empty 1-D array")
    values = np.empty(thetas.size)  # z, then mu + sqrt(var) z
    starts = range(0, values.size, _BLOCK)
    drawn = threading.Semaphore(0)  # one release per block of z drawn
    stop = threading.Event()
    failure = []

    def draw():
        # Block by block, the stream one standard_normal(values.size) draws.
        try:
            for a in starts:
                if stop.is_set():
                    return
                rng.standard_normal(out=values[a:a + _BLOCK])
                drawn.release()
        except BaseException as exc:  # re-raised by the marginals loop
            failure.append(exc)
            drawn.release()

    drawer = None
    if _usable_cpus() > 1:
        drawer = threading.Thread(target=draw, name="sample_record-draw")
        drawer.start()
    else:
        draw()
    try:
        for a in starts:
            mu, var = _marginal_arrays(state, thetas[a:a + _BLOCK])
            sd = np.sqrt(var, out=var)
            drawn.acquire()
            if failure:
                raise failure[0]
            z = values[a:a + _BLOCK]
            z *= sd
            z += mu
    finally:
        stop.set()
        if drawer is not None:
            drawer.join()
    thetas.setflags(write=False)
    values.setflags(write=False)
    # The constructor copies a caller's arrays; nothing else holds these.
    return _set_samples(object.__new__(QuadratureRecord), "values", "record", thetas, values)


def wigner_analytic(state: GaussianState, spec: GridSpec | None = None) -> WignerGrid:
    """Evaluate the Gaussian Wigner function on a grid.

    W(x, p) = exp(-delta^T Sigma^-1 delta / 2) / (2 pi sqrt(det Sigma));
    vacuum (Sigma = I/4) peaks at 2/pi.  Default grid: from_state(state).
    """
    state = _single_mode(state)
    if spec is None:
        spec = GridSpec.from_state(state)
    cov = state.cov
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    if det <= 1e-30:
        raise PhysicsError(f"covariance is singular (det = {det:.3e})")
    inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[1, 0], cov[0, 0]]]) / det
    x = spec.x_axis() - state.mean[0]
    p = spec.p_axis() - state.mean[1]
    X, P = np.meshgrid(x, p, indexing="ij")
    quad = inv[0, 0] * X * X + 2.0 * inv[0, 1] * X * P + inv[1, 1] * P * P
    values = np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(det))
    return WignerGrid(spec, values)


def _fold_half_turn(thetas, values):
    """Map (theta, q) onto theta in [0, pi); q flips sign each half turn.

    Only samples outside [0, pi) are divided into half turns (-0.0 among
    them: the division turns it into +0.0); the others already sit where the
    division would leave them and are returned as they are, with the input
    arrays themselves when no sample needs folding.
    """
    wrapped = np.flatnonzero(np.signbit(thetas) | (thetas >= np.pi))
    if wrapped.size == 0:
        return thetas, values
    turns = np.floor_divide(thetas[wrapped], np.pi)
    flip = np.mod(turns.astype(np.int64), 2) == 1
    folded = thetas.copy()
    folded[wrapped] = thetas[wrapped] - turns * np.pi
    q = values.copy()
    q[wrapped] = np.where(flip, -values[wrapped], values[wrapped])
    return folded, q


def _uniform_bin_index(values, edges):
    """Bin of each value among the uniform ``edges``, as np.histogramdd bins it.

    Bins are half-open, [edges[i], edges[i + 1]), except that a value equal
    to the last edge falls in the last bin; values below or above the edges
    map to -1 or n.  The index comes from the uniform spacing and is then
    corrected by at most one bin against the edges themselves, as
    np.histogram does for uniform bins, so it matches the searchsorted
    result exactly.
    """
    n = edges.size - 1
    lo, hi = edges[0], edges[-1]
    scaled = values - lo
    scaled *= n / (hi - lo)
    idx = scaled.astype(np.intp)
    np.clip(idx, 0, n - 1, out=idx)
    # Upper edge of each bin; the last bin is closed, so only values above
    # the last edge move past it.  Every gathered index is in range, so
    # "clip" only spares take() its bounds check.
    upper = edges[1:].copy()
    upper[-1] = np.nextafter(hi, np.inf)
    idx += values >= np.take(upper, idx, out=scaled, mode="clip")
    idx -= values < np.take(edges, idx, out=scaled, mode="clip")
    return idx


def _phase_segments(folded, q, edges):
    """The record in phase-bin order and the n + 1 bounds of its n bins'
    segments: bin i, as _uniform_bin_index bins it, is [bounds[i],
    bounds[i + 1]), and a sample beyond the edges is in the nearest bin's.

    A record whose folded thetas do not decrease, as the default sweep's, is
    returned as it is; any other is gathered in a stable sort of its bins,
    so each segment keeps its samples in record order.
    """
    n = edges.size - 1
    if np.all(folded[1:] >= folded[:-1]):
        bounds = np.empty(n + 1, dtype=np.intp)
        bounds[0], bounds[-1] = 0, folded.size
        bounds[1:-1] = np.searchsorted(folded, edges[1:-1])
        return folded, q, bounds
    idx = _uniform_bin_index(folded, edges)
    np.clip(idx, 0, n - 1, out=idx)
    # a stable sort of bin numbers this small is a radix sort
    order = np.argsort(idx.astype(np.min_scalar_type(n - 1)), kind="stable")
    bounds = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(idx, minlength=n), out=bounds[1:])
    return folded[order], q[order], bounds


def _record_sigma_min(q, bounds):
    """Smallest per-bin sample standard deviation, from well-filled bins; each
    segment is summed in record order, as a weighted bincount sums it."""
    counts = np.diff(bounds)
    eligible = counts >= max(20, int(0.5 * q.size / counts.size))
    if not np.any(eligible):
        eligible = counts >= 2
    segments = [q[a:b] for a, b in zip(bounds[:-1][eligible], bounds[1:][eligible])]
    sums = np.array([np.add.accumulate(seg)[-1] for seg in segments])
    sqs = np.array([np.add.accumulate(seg * seg)[-1] for seg in segments])
    n = counts[eligible]
    var_min = float(np.min(sqs / n - (sums / n) ** 2))
    if var_min <= 0.0:
        raise PhysicsError("record has a zero-variance phase bin")
    return np.sqrt(var_min)


def _sinogram(folded, q, bounds, q_edges):
    """Sample count per (phase bin, quadrature bin), as np.histogram2d counts.

    One bincount per phase segment; a sample outside [0, pi], which only the
    first and last segments hold, or outside the quadrature edges is left out
    (inverse_radon's phase counts still include it).
    """
    n_q = q_edges.size - 1
    sinogram = np.empty((bounds.size - 1, n_q), dtype=np.intp)
    for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        segment = q[lo:hi]
        if b in (0, bounds.size - 2):
            theta = folded[lo:hi]
            segment = segment[(theta >= 0.0) & (theta <= np.pi)]
        q_bin = _uniform_bin_index(segment, q_edges)
        q_bin += 1  # -1 and n_q, below and above the edges, count outside [1, n_q]
        sinogram[b] = np.bincount(q_bin, minlength=n_q + 2)[1:-1]
    return sinogram


def inverse_radon(
    record: QuadratureRecord,
    spec: GridSpec,
    filter_cutoff: float | None = None,
) -> WignerGrid:
    """Reconstruct the Wigner function from a record by filtered back-projection
    on the caller's window ``spec`` (GridSpec.from_state of the recorded state).

    Samples are folded onto theta in [0, pi) (values at theta + pi enter with
    flipped sign) and binned into a sinogram of DEFAULT_THETA_BINS phase bins.
    Bin convention: phase and quadrature bins are half-open, [lo, hi), on
    uniform edges; the phase edges span [0, pi] and the quadrature edges
    [-support, support], support being 1.05 times the larger of the grid's
    corner radius and the largest |q| in the record.  A folded theta that
    rounds to pi lands in the last phase bin.  A folded theta that rounds
    past pi, or below 0, is counted in the nearest phase bin's sample count
    (and variance) but left out of the sinogram.  The record is binned once,
    into one segment of samples per phase bin: a record whose folded thetas
    do not decrease, as sample_record's default sweep, already is in segment
    order and is not copied; any other record is sorted stably by phase bin.
    Each bin's variance sums its samples in record order.

    Each marginal histogram is ramp-filtered in the Fourier domain with a
    hard cutoff at ``filter_cutoff`` (default 6.5 / sigma_min, estimated from
    the record), then back-projected along its phase.  Raises if fewer than
    MIN_RECORD_SAMPLES samples are supplied or if less than 80% of the phase
    bins are populated.
    """
    if record.n_samples < MIN_RECORD_SAMPLES:
        raise ValueError(
            f"reconstruction needs >= {MIN_RECORD_SAMPLES} samples, "
            f"got {record.n_samples}"
        )
    folded, q = _fold_half_turn(record.thetas, record.values)
    n_theta_bins = DEFAULT_THETA_BINS
    edges = np.linspace(0.0, np.pi, n_theta_bins + 1)
    folded, q, bounds = _phase_segments(folded, q, edges)
    counts = np.diff(bounds)
    coverage = np.count_nonzero(counts) / n_theta_bins
    if coverage < MIN_COVERAGE_FRACTION:
        raise ValueError(
            f"insufficient phase coverage: {coverage:.0%} of bins populated, "
            f"need >= {MIN_COVERAGE_FRACTION:.0%} of [0, pi)"
        )
    if filter_cutoff is None:
        filter_cutoff = DEFAULT_CUTOFF_SIGMAS / _record_sigma_min(q, bounds)
    if not (np.isfinite(filter_cutoff) and filter_cutoff > 0.0):
        raise ValueError("filter_cutoff must be positive and finite")

    x = spec.x_axis()
    p = spec.p_axis()
    corner_radius = max(
        float(np.hypot(x[i], p[j])) for i in (0, -1) for j in (0, -1)
    )
    q_abs_max = float(max(q.max(), -q.min()))  # max |q|, without an |q| array
    support = max(corner_radius, q_abs_max) * _SUPPORT_PAD_FACTOR
    dq_target = (2.0 * np.pi / filter_cutoff) / _BINS_PER_CUTOFF_WAVELENGTH
    bins = 2.0 * support / dq_target
    # ceil(bins) | 1 bins, bounded before int(): NaN and inf fail here too
    if not bins <= _MAX_QUADRATURE_BINS - 1:
        raise ValueError(
            f"filter cutoff {filter_cutoff:.3g} over a window half-width {support:.3g} "
            f"needs {bins:.3g} quadrature bins (max {_MAX_QUADRATURE_BINS}); "
            "lower the cutoff or the grid pad"
        )
    n_q = int(np.ceil(bins)) | 1
    q_edges = np.linspace(-support, support, n_q + 1)
    q_centers = 0.5 * (q_edges[:-1] + q_edges[1:])
    dq = q_edges[1] - q_edges[0]

    sinogram = _sinogram(folded, q, bounds, q_edges)
    populated = np.flatnonzero(counts)
    profiles = sinogram[populated] / (counts[populated, None] * dq)

    # Zero-pad before filtering: the ramp kernel's 1/u^2 tails otherwise wrap
    # around the circular convolution and depress the low frequencies.
    n_pad = 1 << int(np.ceil(np.log2(n_q * _FILTER_PAD_FACTOR)))
    k = 2.0 * np.pi * np.fft.fftfreq(n_pad, d=dq)
    ramp = np.pi * np.abs(k) * (np.abs(k) <= filter_cutoff)
    padded = np.zeros((populated.size, n_pad))
    padded[:, :n_q] = profiles
    filtered = np.real(np.fft.ifft(np.fft.fft(padded, axis=1) * ramp, axis=1))[:, :n_q]

    X, P = np.meshgrid(x, p, indexing="ij")
    accum = np.zeros_like(X)
    bin_centers = 0.5 * (edges[:-1] + edges[1:])
    for row, b in enumerate(populated):
        u = X * np.cos(bin_centers[b]) + P * np.sin(bin_centers[b])
        accum += np.interp(u, q_centers, filtered[row], left=0.0, right=0.0)
    values = accum / (2.0 * np.pi * populated.size)
    return WignerGrid(spec, values)


def wigner_moments(grid: WignerGrid) -> WignerMoments:
    """Mean vector and covariance of a grid, treated as a density.

    Raises PhysicsError when the Riemann-sum normalization falls outside
    NORMALIZATION_WINDOW: moments of an un-normalizable grid are meaningless.
    """
    norm = grid.normalization()
    lo, hi = NORMALIZATION_WINDOW
    if not (lo <= norm <= hi):
        raise PhysicsError(
            f"grid normalization {norm:.4f} outside [{lo}, {hi}]; "
            "the state may not fit the window"
        )
    X, P = np.meshgrid(grid.spec.x_axis(), grid.spec.p_axis(), indexing="ij")
    w = grid.values * (grid.spec.cell_area / norm)
    mx = float((X * w).sum())
    mp = float((P * w).sum())
    dx = X - mx
    dp = P - mp
    cov = np.array(
        [
            [(dx * dx * w).sum(), (dx * dp * w).sum()],
            [(dx * dp * w).sum(), (dp * dp * w).sum()],
        ]
    )
    return WignerMoments(np.array([mx, mp]), cov, norm)
