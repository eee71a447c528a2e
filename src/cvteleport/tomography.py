"""Phase-scanned noise traces, quadrature records, and Wigner reconstruction.

This module emulates the measurement side of the experiment:

* ``spectrum_trace`` sweeps the homodyne phase and reports total noise power
  (variance plus coherent signal) relative to vacuum, in dB.  With an RNG it
  emulates finite trace averaging; without one it is exact.
* ``sample_record`` draws individual quadrature samples while the phase is
  swept once, linearly, over [0, pi), producing the raw material for
  tomography.
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
demos): profiles are zero-padded to 8x their length before the ramp filter
is applied, by a real FFT (np.fft.rfft and irfft: the profiles are real, so
only the non-negative frequencies are kept).  Without padding the ramp
kernel's slowly decaying tails wrap around in the circular convolution and
depress the reconstruction by tens of percent; at 8x padding the vacuum
second moment is biased by < 0.5%.  The default cutoff is k_c = 6.5 /
sigma_min, with sigma_min the smallest marginal standard deviation seen in
the record, from pairwise per-bin sums; larger cutoffs admit shot noise,
smaller ones blur the narrow quadrature.

A record is drawn in cache-sized blocks of _BLOCK samples (elementwise, so
no sample depends on the block size), each through the same few
block-sized buffers.  Each block's normals are drawn inline, after its
marginals, from the caller's one stream: the bytes of one
rng.standard_normal(n) call.  The sweep's cos and sin come from one table of
the first block's angles by angle addition, a few ulps from np.cos and
np.sin.  A record is its values only, on the standard sweep theta_k =
k fl(pi / n): its thetas are non-decreasing within [0, pi), so each phase
bin is one segment of the record, whose bounds come from the sweep's step
in closed form.  The phase counts, the default cutoff and the sinogram all
read these segments.  The sinogram bins a segment's quadratures by
truncation and compares with the edges only the samples within 1e-6 bins of
one or outside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from typing import NamedTuple

from .gaussian import GaussianState, PhysicsError, VACUUM_VARIANCE
from .gaussian import _as_finite, _as_positive, _moments, check_count
# re-exported: the config's defaults, which `_defaults` holds apart from numpy
from ._defaults import DEFAULT_GRID_PAD_SIGMAS, DEFAULT_GRID_POINTS
from ._defaults import DEFAULT_TRACE_AVERAGES, DEFAULT_TRACE_POINTS

DEFAULT_THETA_BINS = 60
# Hard filter cutoff k_c = DEFAULT_CUTOFF_SIGMAS / sigma_min (bias study in demos).
DEFAULT_CUTOFF_SIGMAS = 6.5
# Quadrature bin width dq = (2 pi / k_c) / BINS_PER_CUTOFF_WAVELENGTH.
_BINS_PER_CUTOFF_WAVELENGTH = 5.0
_FILTER_PAD_FACTOR = 8
_SUPPORT_PAD_FACTOR = 1.05
_MAX_QUADRATURE_BINS = 1 << 15
_EDGE_MARGIN = 1e-6  # bins; see _sinogram
MIN_RECORD_SAMPLES = 1000
NORMALIZATION_WINDOW = (0.95, 1.05)
_BLOCK = 1 << 15  # samples per block when drawing a record: 256 KiB of float64


def _readonly(array):
    """A read-only float copy: whoever gave ``array`` may still change it."""
    out = np.array(array, dtype=float)
    out.setflags(write=False)
    return out


def _single_mode(state: GaussianState) -> GaussianState:
    if state.n_modes != 1:
        raise ValueError(f"expected a single-mode state, got {state.n_modes} modes")
    return state


def _rotated(table, cos_a, sin_a, c, s, term):
    """cos and sin of theta_a + theta_j for the table's first c.size angles
    theta_j, written into ``c`` and ``s`` (``term`` is scratch of their size),
    by angle addition from ``table`` = (cos theta_j, sin theta_j) and the pair
    (cos_a, sin_a): c = cos_a cos_j - sin_a sin_j, s = sin_a cos_j + cos_a sin_j.
    Each is within a few ulps of np.cos and np.sin of the summed angle."""
    tc, ts = table[0][:c.size], table[1][:c.size]
    np.multiply(cos_a, tc, out=c)
    np.multiply(sin_a, tc, out=s)
    np.multiply(sin_a, ts, out=term)
    c -= term
    np.multiply(cos_a, ts, out=term)
    s += term
    return c, s


def _marginal_arrays(state, c, s, var=None, term=None):
    """Mean and variance of the rotated quadrature at each phase, vectorized,
    from the phases' cosines ``c`` and sines ``s``, which it overwrites; the
    variance goes into ``var`` and ``term`` is scratch, both of c's size, or
    new arrays when they are None."""
    (mx, mp), ((c00, c01), (_, c11)) = _moments(state)
    # var = c00 c c + 2 c01 c s + c11 s s and mu = mx c + mp s, in place but
    # in the association order of those sums, so the floats are theirs.
    var = np.multiply(c00, c, out=var)
    var *= c
    term = np.multiply(2.0 * c01, c, out=term)
    term *= s
    var += term
    np.multiply(c11, s, out=term)
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
            object.__setattr__(self, name, _as_finite(getattr(self, name), name))
        for name in ("n_x", "n_p"):
            object.__setattr__(self, name, check_count(getattr(self, name), name, 2))
        if not (self.x_max > self.x_min and self.p_max > self.p_min):
            raise ValueError("grid window must have positive extent")
        for axis, low, high in (("x", self.x_min, self.x_max), ("p", self.p_min, self.p_max)):
            if high - low == np.inf:
                raise ValueError(f"grid {axis} window [{low:g}, {high:g}] overflows a float width")

    @classmethod
    def from_state(
        cls,
        state: GaussianState,
        n: int = DEFAULT_GRID_POINTS,
        pad: float = DEFAULT_GRID_PAD_SIGMAS,
    ) -> "GridSpec":
        """Window centered on the state mean, pad standard deviations wide."""
        _single_mode(state)
        n, pad = check_count(n, "n", 2), _as_finite(pad, "pad")
        (mx, mp), ((cxx, _), (_, cpp)) = _moments(state)  # an overflow is inf, not a warning
        sx, sp = math.sqrt(cxx), math.sqrt(cpp)
        x_min, x_max = mx - pad * sx, mx + pad * sx
        p_min, p_max = mp - pad * sp, mp + pad * sp
        if pad > 0 and not (x_max > x_min and p_max > p_min):
            raise PhysicsError(
                f"a {pad:g}-sd window cannot be resolved at the state's mean "
                f"({mx:.3g}, {mp:.3g}): it rounds to zero width"
            )
        if not (x_max - x_min < np.inf and p_max - p_min < np.inf):
            raise ValueError(f"pad {pad:g} overflows a float window at the state's spread")
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


def _rebuilt(record):
    """A frozen record's __reduce__: copies and pickles rebuild it by its
    constructor from its fields, so their arrays are read-only copies,
    checked as a caller's are."""
    return type(record), tuple(getattr(record, f.name) for f in fields(record))


@dataclass(frozen=True, eq=False)
class PhaseScanTrace:
    """Noise power vs homodyne phase, in dB relative to vacuum.

    ``averages`` is the per-point sample count used to emulate finite trace
    averaging; None marks an exact (noise-free) trace.
    """

    thetas: np.ndarray
    power_db: np.ndarray
    averages: int | None

    def __post_init__(self) -> None:
        thetas, power_db = _readonly(self.thetas), _readonly(self.power_db)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "power_db", power_db)
        if thetas.ndim != 1 or thetas.shape != power_db.shape:
            raise ValueError("thetas and power_db must be matching 1-D arrays")
        if not (np.all(np.isfinite(thetas)) and np.all(np.isfinite(power_db))):
            raise ValueError("trace values must be finite")

    __reduce__ = _rebuilt


def _sweep(n: int) -> np.ndarray:
    """The standard sweep of n samples, theta_k = k fl(pi / n), read-only:
    non-decreasing, and within [0, pi) since (n - 1) fl(pi / n) rounds below
    pi for every n below 2**52."""
    thetas = np.arange(n, dtype=float)
    thetas *= np.pi / max(n, 1)  # the empty sweep has no step
    thetas.setflags(write=False)
    return thetas


@dataclass(frozen=True, eq=False)
class QuadratureRecord:
    """Quadrature samples from a phase-scanned homodyne measurement: one
    value per phase step of the standard sweep over [0, pi).

    The record holds its values only.  ``thetas``, the sweep k fl(pi / n),
    is built on each read (most readers never make one), and the phase
    segments come from the sweep's step in closed form."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = _readonly(self.values)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValueError("thetas and values must be matching 1-D arrays")
        if not np.all(np.isfinite(values)):
            raise ValueError("record values must be finite")

    @property
    def thetas(self) -> np.ndarray:
        return _sweep(self.values.size)

    @property
    def n_samples(self) -> int:
        return self.values.size

    def _bounds(self, edges: np.ndarray) -> np.ndarray:
        """The index of the first sample at or past each phase edge, as
        np.searchsorted(self.thetas, edges) gives it: k = ceil(e / step)
        clamped to [0, n], then moved while the sweep's own floats
        (k - 1) step >= e or k step < e, which leaves the first k whose
        k step >= e."""
        n = self.values.size
        step = math.pi / max(n, 1)  # the sweep's fl(pi / n); k step rounds as numpy's does
        bounds = []
        for e in edges.tolist():
            k = min(max(math.ceil(e / step), 0), n)
            while k > 0 and (k - 1) * step >= e:
                k -= 1
            while k < n and k * step < e:
                k += 1
            bounds.append(k)
        return np.array(bounds, dtype=np.intp)

    __reduce__ = _rebuilt


def _swept_record(values: np.ndarray, finite: bool) -> QuadratureRecord:
    """A record of sample_record's read-only ``values``, held without the
    constructor's copy and scan; raise unless they are ``finite``, as
    sample_record found them block by block."""
    record = object.__new__(QuadratureRecord)
    object.__setattr__(record, "values", values)
    if not finite:
        raise ValueError("record values must be finite")
    return record


@dataclass(frozen=True, eq=False)
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

    __reduce__ = _rebuilt


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
    Raises PhysicsError when the power is not finite, or not positive, at
    some phase.
    """
    _single_mode(state)
    check_count(n_points, "n_points", 2)
    if rng is not None:
        averages = check_count(averages, "averages", 1)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    mu, var = _marginal_arrays(state, np.cos(thetas), np.sin(thetas))
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
    try:  # math.log10, not np.log10, whose SIMD loops round differently
        power_db = 10.0 * np.array(list(map(math.log10, power.tolist())))
    except ValueError:  # a power <= 0: the variance of an extreme state, cancelled by round-off
        bad = np.count_nonzero(power <= 0.0)
        raise PhysicsError(f"trace power is not positive at {bad} of {n_points} phases") from None
    return PhaseScanTrace(thetas, power_db, None if rng is None else averages)


def sample_record(
    state: GaussianState,
    n_samples: int,
    rng: np.random.Generator,
) -> QuadratureRecord:
    """Draw quadrature samples of a single-mode state while scanning the phase.

    Returns the samples as a QuadratureRecord: the schedule is the standard
    sweep, uniform and linear over [0, pi), theta_k = k fl(pi / n_samples),
    one sample per phase step, approximating a continuous scan.  The record
    holds the values only, handed over without a copy.

    Its cos and sin come from one table: sample a + j of the block at a has
    theta_a + theta_j, so angle addition gives them from the first block's
    np.cos/np.sin and one pair for theta_a.  They are exact in the first
    block and within a few ulps after it, with no error carried from block
    to block.  The arithmetic of every block goes through the same three
    block-sized buffers and the block's own slice of the values.

    The normals z are drawn block by block on the calling thread, each after
    its block's mean and spread: the stream and bytes of one
    ``rng.standard_normal(n)`` call, leaving ``rng`` where that call would.
    A record with a non-finite value raises once every block is drawn.
    """
    _single_mode(state)
    check_count(n_samples, "n_samples", 1)
    values = np.empty(n_samples)  # var, then sd, sd z and mu + sd z
    step = np.pi / n_samples  # the sweep's, as in _sweep
    angles = np.arange(min(n_samples, _BLOCK), dtype=float)
    angles *= step  # the first block's thetas
    table = np.cos(angles), np.sin(angles, out=angles)
    heads = np.arange(0, n_samples, _BLOCK, dtype=float)
    heads *= step  # the thetas of the block starts
    c, s, term = np.empty((3, table[0].size))
    finite = True
    # A mean or spread too large for a float overflows to inf: a non-finite
    # value, raised as such, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for a, cos_a, sin_a in zip(range(0, n_samples, _BLOCK), np.cos(heads), np.sin(heads)):
            m = min(_BLOCK, n_samples - a)
            c_m, s_m, term_m = c[:m], s[:m], term[:m]
            _rotated(table, cos_a, sin_a, c_m, s_m, term_m)
            mu, var = _marginal_arrays(state, c_m, s_m, values[a:a + m], term_m)
            sd = np.sqrt(var, out=var)
            # Block by block, the stream one standard_normal(n_samples) draws.
            z = rng.standard_normal(out=term_m)
            sd *= z  # z sd, then mu + z sd, in the block's values
            sd += mu
            finite &= np.isfinite(sd).all()
    values.setflags(write=False)
    return _swept_record(values, finite)


def wigner_analytic(state: GaussianState, spec: GridSpec | None = None) -> WignerGrid:
    """Evaluate the Gaussian Wigner function on a grid.

    W(x, p) = exp(-delta^T Sigma^-1 delta / 2) / (2 pi sqrt(det Sigma));
    vacuum (Sigma = I/4) peaks at 2/pi.  Default grid: from_state(state).
    """
    state = _single_mode(state)
    if spec is None:
        spec = GridSpec.from_state(state)
    (mx, mp), ((cxx, cxp), (cpx, cpp)) = _moments(state)
    det = cxx * cpp - cxp * cpx
    if det <= 1e-30:
        raise PhysicsError(f"covariance is singular (det = {det:.3e})")
    inv = np.array([[cpp, -cxp], [-cpx, cxx]]) / det
    x = spec.x_axis() - mx
    p = spec.p_axis() - mp
    X, P = np.meshgrid(x, p, indexing="ij")
    quad = inv[0, 0] * X * X + 2.0 * inv[0, 1] * X * P + inv[1, 1] * P * P
    values = np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(det))
    return WignerGrid(spec, values)


def _upper_edges(edges):
    """Each bin's upper edge; the last bin is closed: only values past its edge
    leave it (none past the largest float, whose next value is inf)."""
    with np.errstate(over="ignore"):
        return np.append(edges[1:-1], np.nextafter(edges[-1], np.inf))


def _uniform_bin_index(values, edges, upper):
    """Bin of each value among the ``edges``, exactly as np.histogramdd bins
    it, by searchsorted on ``upper`` = _upper_edges(edges): bins are half-open,
    [edges[i], edges[i + 1]), except that a value equal to the last edge falls
    in the last bin; values below or above the edges map to -1 or n."""
    idx = np.searchsorted(upper, values, side="right")
    idx -= values < edges[0]
    return idx


def _record_sigma_min(q, bounds):
    """Smallest per-bin sample standard deviation, from well-filled bins.

    Segments are summed pairwise, by np.add.reduceat over the starts of the
    non-empty ones.  The squares go through one segment-sized buffer rather
    than a record-sized array; a segment's reduceat at offset 0 sums it as
    the whole-record call would."""
    counts = np.diff(bounds)
    eligible = counts >= max(20, int(0.5 * q.size / counts.size))
    if not np.any(eligible):
        eligible = counts >= 2
    filled = counts > 0
    sums = np.add.reduceat(q, bounds[:-1][filled])[eligible[filled]]
    square = np.empty(counts.max())
    sqs = np.array([
        np.add.reduceat(np.square(q[a:b], out=square[:b - a]), [0])[0]
        for a, b in zip(bounds[:-1][eligible], bounds[1:][eligible])
    ])
    n = counts[eligible]
    var_min = float(np.min(sqs / n - (sums / n) ** 2))
    if var_min <= 0.0:
        raise PhysicsError("record has a zero-variance phase bin")
    return np.sqrt(var_min)


def _sinogram(q, bounds, q_edges):
    """Sample count per (phase bin, quadrature bin), as np.histogram2d counts
    on np.linspace's uniform edges; a sample outside them is left out.

    Per phase segment, in reused buffers, a sample's bin is the floor f of
    s = (v - lo) n_q / (hi - lo).  Up to _MAX_QUADRATURE_BINS bins, s is
    within about 3e-11 bins of the sample's place among the edges, counting
    linspace's rounding of them, so f is exact unless s is within
    _EDGE_MARGIN = 1e-6 bins of an edge, a margin of about 10^4.  Only those
    samples and those with f outside [0, n_q) are re-binned exactly, by
    _uniform_bin_index, and all are when the width overflows or the bins are
    too narrow for normal floats.  Then one bincount per segment.
    """
    n_q = q_edges.size - 1
    lo, hi = float(q_edges[0]), float(q_edges[-1])
    width = hi - lo  # a Python float: inf, not a warning, when it overflows
    scale = n_q / width if np.finfo(float).tiny * n_q <= width < np.inf else np.nan
    upper = _upper_edges(q_edges)
    sinogram = np.empty((bounds.size - 1, n_q), dtype=np.intp)
    size = int(np.diff(bounds).max(initial=0))
    s, f, idx = np.empty(size), np.empty(size), np.empty(size, dtype=np.intp)
    kept, inside = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN or inf s: f is re-binned
        for b, (a, z) in enumerate(zip(bounds[:-1], bounds[1:])):
            m, v = z - a, q[a:z]
            s_b = np.subtract(v, lo, out=s[:m])
            s_b *= scale
            f_b = np.floor(s_b, out=f[:m])
            q_bin = idx[:m]
            np.copyto(q_bin, f_b, casting="unsafe")
            s_b -= f_b  # in [0, 1) for a finite s
            ok = np.greater_equal(s_b, _EDGE_MARGIN, out=kept[:m])
            ok &= np.less_equal(s_b, 1.0 - _EDGE_MARGIN, out=inside[:m])
            ok &= np.less(q_bin.view(np.uintp), n_q, out=inside[:m])  # 0 <= f < n_q
            if np.count_nonzero(ok) < m:
                redo = np.flatnonzero(~ok)
                # -1 and n_q, below and above the edges, both count in bin n_q, left out
                q_bin[redo] = _uniform_bin_index(v[redo], q_edges, upper) % (n_q + 1)
            sinogram[b] = np.bincount(q_bin, minlength=n_q + 1)[:n_q]
    return sinogram


def _ramp_filter(profiles, dq, cutoff):
    """Each row of ``profiles``, on quadrature bins of width dq, filtered by
    the ramp pi |k| with a hard cutoff at |k| = ``cutoff``.

    Zero-pad before filtering: the ramp kernel's 1/u^2 tails otherwise wrap
    around the circular convolution and depress the low frequencies.  The
    profiles are real, so rfft pads them to n_pad and keeps only k >= 0.
    """
    n_q = profiles.shape[1]
    n_pad = 1 << int(np.ceil(np.log2(n_q * _FILTER_PAD_FACTOR)))
    k = 2.0 * np.pi * np.fft.rfftfreq(n_pad, d=dq)
    ramp = np.pi * k * (k <= cutoff)
    spectrum = np.fft.rfft(profiles, n=n_pad, axis=1)
    spectrum *= ramp
    return np.fft.irfft(spectrum, n=n_pad, axis=1)[:, :n_q]


def _quadrature_edges(q, spec, cutoff):
    """inverse_radon's n_q + 1 uniform quadrature edges on [-support, support],
    n_q odd and about _BINS_PER_CUTOFF_WAVELENGTH per wavelength 2 pi / cutoff;
    raises for more than _MAX_QUADRATURE_BINS - 1."""
    x, p = spec.x_axis(), spec.p_axis()
    corner_radius = max(float(np.hypot(x[i], p[j])) for i in (0, -1) for j in (0, -1))
    q_abs_max = float(max(q.max(), -q.min()))  # max |q|, without an |q| array
    support = max(corner_radius, q_abs_max) * _SUPPORT_PAD_FACTOR
    dq_target = (2.0 * np.pi / cutoff) / _BINS_PER_CUTOFF_WAVELENGTH
    bins = 2.0 * support / dq_target
    # ceil(bins) | 1 bins, bounded before int(): NaN and inf fail here too
    if not bins <= _MAX_QUADRATURE_BINS - 1:
        raise ValueError(
            f"filter cutoff {cutoff:.3g} over a window half-width {support:.3g} "
            f"needs {bins:.3g} quadrature bins (max {_MAX_QUADRATURE_BINS}); "
            "lower the cutoff or the grid pad"
        )
    return np.linspace(-support, support, (int(np.ceil(bins)) | 1) + 1)


def _back_project(filtered, angles, q_centers, spec):
    """The grid of spec: each filtered profile, interpolated along its phase
    angle, summed over the phases and divided by 2 pi times their number."""
    X, P = np.meshgrid(spec.x_axis(), spec.p_axis(), indexing="ij")
    accum = np.zeros_like(X)
    for row, angle in zip(filtered, angles):
        u = X * np.cos(angle) + P * np.sin(angle)
        accum += np.interp(u, q_centers, row, left=0.0, right=0.0)
    return accum / (2.0 * np.pi * angles.size)


def inverse_radon(
    record: QuadratureRecord,
    spec: GridSpec,
    filter_cutoff: float | None = None,
) -> WignerGrid:
    """Reconstruct the Wigner function from a record by filtered back-projection
    on the caller's window ``spec`` (GridSpec.from_state of the recorded state).

    The record, in phase order within [0, pi), is binned into a sinogram of
    DEFAULT_THETA_BINS phase bins, each one segment of the record, bounded
    from the sweep's step.  Phase and quadrature bins are half-open, [lo, hi),
    on uniform edges spanning [0, pi] and [-support, support], the support
    1.05 times the larger of the grid's corner radius and the record's max |q|.

    Each marginal histogram is ramp-filtered in the Fourier domain, by real
    FFTs of the zero-padded profiles, with a hard cutoff at ``filter_cutoff``
    (default 6.5 / sigma_min, estimated from the record), then back-projected
    along its phase.  Raises if fewer than MIN_RECORD_SAMPLES samples are
    supplied; with that many, every phase bin holds at least 16.
    """
    if record.n_samples < MIN_RECORD_SAMPLES:
        raise ValueError(
            f"reconstruction needs >= {MIN_RECORD_SAMPLES} samples, "
            f"got {record.n_samples}"
        )
    edges = np.linspace(0.0, np.pi, DEFAULT_THETA_BINS + 1)
    q, bounds = record.values, record._bounds(edges)
    if filter_cutoff is None:
        filter_cutoff = DEFAULT_CUTOFF_SIGMAS / _record_sigma_min(q, bounds)
    filter_cutoff = _as_positive(filter_cutoff, "filter_cutoff")
    q_edges = _quadrature_edges(q, spec, filter_cutoff)
    q_centers, dq = 0.5 * (q_edges[:-1] + q_edges[1:]), q_edges[1] - q_edges[0]
    profiles = _sinogram(q, bounds, q_edges) / (np.diff(bounds)[:, None] * dq)
    filtered = _ramp_filter(profiles, dq, filter_cutoff)
    angles = 0.5 * (edges[:-1] + edges[1:])
    return WignerGrid(spec, _back_project(filtered, angles, q_centers, spec))


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
    dx, dp = X - mx, P - mp
    cxp = (dx * dp * w).sum()
    cov = np.array([[(dx * dx * w).sum(), cxp], [cxp, (dp * dp * w).sum()]])
    return WignerMoments(np.array([mx, mp]), cov, norm)
