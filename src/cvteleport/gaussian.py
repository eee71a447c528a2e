"""Gaussian states of n optical modes and the operations used in this package.

Conventions
-----------
* hbar = 1/2, so the vacuum variance of each quadrature is 1/4 and the
  Heisenberg bound reads Var(x) Var(p) >= 1/16.
* Quadratures are ordered (x1, p1, x2, p2, ...); a state is a mean vector of
  length 2n plus a 2n x 2n covariance matrix.
* A covariance matrix is physical iff all symplectic eigenvalues are >= 1/4.
* A quadrature angle theta denotes the direction
  q(theta) = x cos(theta) + p sin(theta); theta = 0 is x.
* Noise levels in dB always carry an explicit variance reference:
  1/4 for single quadratures, 1/2 for two-mode sum/difference combinations.
* The package reads each scalar argument with one checker per class, which
  raises ValueError naming it.  A number (`_as_float`) is a numbers.Real but
  not a bool, read as a float, an integer beyond float range as +-inf (as
  its decimal text reads); `_as_finite` and `_as_positive` also require it
  finite, or finite and > 0.  A count (`check_count`) is a
  numbers.Integral but not a bool, >= a minimum, read as an int.  A fraction
  (`check_fraction`) is a number in [0, 1]; a pair (`_as_pair`), two numbers.
* No number a verb writes depends on numpy's SIMD dispatch.  numpy runs
  float64 log10, exp and power through loops picked for the host CPU, whose
  results differ from its baseline loops' in the last bit for some inputs, so
  a transcendental function of a Python float goes through `math` (libm),
  which is also about three times cheaper on a scalar than a ufunc call.
  The one array written in dB, `spectrum_trace`'s, takes math.log10 of each
  point.  sqrt and the arithmetic operators round correctly everywhere.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

VACUUM_VARIANCE = 0.25
TWO_MODE_VACUUM_VARIANCE = 0.5

# Constructor tolerances: measured covariances may carry tiny asymmetries and
# eigenvalue dips from floating-point round-off, nothing larger.  Round-off
# grows with the entries, so the symmetry bound is SYMMETRY_ATOL times
# max(1, max |cov|).
SYMMETRY_ATOL = 1e-12
PHYSICALITY_ATOL = 1e-9
# Largest squeezer level accepted: the variance 10^(dB/10) overflows a float
# from about 3082.547 dB on.
MAX_LEVEL_DB = 3082.5
# One-mode vacuum covariance; vacuum and coherent_state copy it, so no state
# shares it.
_VACUUM_COV = VACUUM_VARIANCE * np.eye(2)


class PhysicsError(ValueError):
    """An operation required or would produce an unphysical Gaussian state."""


def _symplectic_form(n_modes: int) -> np.ndarray:
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, one value per mode, sorted.

    The eigenvalues of Omega @ cov come in pairs +-i*nu; their moduli are the
    symplectic eigenvalues.  Vacuum gives 1/4 for every mode.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    nu = np.abs(np.linalg.eigvals(_symplectic_form(n) @ cov))
    nu.sort()
    return nu[::2]


class GaussianState:
    """Immutable first and second moments of an n-mode Gaussian state.

    Args:
        mean: length-2n quadrature expectation values, ordered (x1, p1, ...).
        cov: 2n x 2n covariance matrix.

    The constructor checks finiteness, symmetry and the bona fide condition
    (symplectic eigenvalues >= 1/4 - PHYSICALITY_ATOL), and the state holds
    read-only float64 copies of ``mean`` and ``cov``, so no caller array is
    shared.  Operations of this package build their outputs through the
    module-private `_own`, which keeps the shape checks but skips the
    physics checks, since completely positive maps preserve physicality,
    and takes the arrays it was given, freshly built by its caller, without
    copying them.
    """

    __slots__ = ("mean", "cov")

    def __init__(self, mean: np.ndarray, cov: np.ndarray):
        mean = np.array(mean, dtype=float)
        cov = np.array(cov, dtype=float)
        mean = _shaped(mean, cov)
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean must be finite")
        if not np.all(np.isfinite(cov)):
            raise ValueError("cov must be finite")
        # the bound SYMMETRY_ATOL * max(1, max |cov|); max |cov| is read only
        # for an asymmetry past SYMMETRY_ATOL
        asymmetry = np.abs(cov - cov.T).max()
        if asymmetry > SYMMETRY_ATOL and asymmetry > SYMMETRY_ATOL * np.abs(cov).max():
            raise PhysicsError("covariance matrix is not symmetric")
        cov = 0.5 * (cov + cov.T)
        nu_min = symplectic_eigenvalues(cov).min()
        if nu_min < VACUUM_VARIANCE - PHYSICALITY_ATOL:
            raise PhysicsError(
                f"covariance violates the uncertainty principle: "
                f"min symplectic eigenvalue {nu_min:.6g} < 1/4"
            )
        _hold(self, mean, cov)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianState is immutable")

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def __repr__(self) -> str:
        return f"GaussianState(n_modes={self.n_modes})"


def _shaped(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """``mean`` as a vector, once it and ``cov`` have a state's shapes."""
    if mean.ndim != 1:
        mean = mean.reshape(-1)
    if mean.size < 2 or mean.size % 2:
        raise ValueError(f"mean must have even length >= 2, got {mean.size}")
    if cov.shape != (mean.size, mean.size):
        raise ValueError(f"cov shape {cov.shape} does not match mean length {mean.size}")
    return mean


_SET_MEAN, _SET_COV = GaussianState.mean.__set__, GaussianState.cov.__set__


def _hold(state: GaussianState, mean: np.ndarray, cov: np.ndarray) -> None:
    mean.setflags(write=False)
    cov.setflags(write=False)
    _SET_MEAN(state, mean)
    _SET_COV(state, cov)


def _own(mean: np.ndarray, cov: np.ndarray) -> GaussianState:
    """GaussianState(mean, cov) without its two copies and its physics checks.

    For float64 arrays that the caller has just built and shares with
    nothing: the state freezes and holds them.  The shape checks stay."""
    size = mean.size
    if mean.ndim != 1 or size < 2 or size % 2 or cov.shape != (size, size):
        mean = _shaped(mean, cov)
    state = object.__new__(GaussianState)
    _hold(state, mean, cov)
    return state


def vacuum(n_modes: int) -> GaussianState:
    """The n-mode vacuum: zero mean, covariance (1/4) * identity."""
    n_modes = check_count(n_modes, "n_modes", 1)
    cov = _VACUUM_COV.copy() if n_modes == 1 else VACUUM_VARIANCE * np.eye(2 * n_modes)
    return _own(np.zeros(2 * n_modes), cov)


def coherent_state(alpha: complex) -> GaussianState:
    """Single-mode coherent state; alpha maps to mean (Re alpha, Im alpha),
    which must be finite."""
    number = type(alpha) is complex or isinstance(alpha, numbers.Complex)
    if not number or isinstance(alpha, bool):
        raise ValueError(f"alpha must be a number, got {alpha!r}")
    try:
        alpha = complex(alpha)
    except OverflowError:  # an integer beyond float range
        alpha = complex(_as_float(alpha, "alpha"))
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError(f"alpha must be finite, got {alpha}")
    return _own(np.array([alpha.real, alpha.imag]), _VACUUM_COV.copy())


def tensor(*states: GaussianState) -> GaussianState:
    """Product state: stacked means, block-diagonal covariance."""
    if not states:
        raise ValueError("tensor requires at least one state")
    mean = np.concatenate([s.mean for s in states])
    dim = mean.size
    cov = np.zeros((dim, dim))
    lo = 0
    for s in states:
        hi = lo + s.mean.size
        cov[lo:hi, lo:hi] = s.cov
        lo = hi
    return _own(mean, cov)


def apply_symplectic(state: GaussianState, s: np.ndarray) -> GaussianState:
    """Apply a symplectic matrix: mean -> S mean, cov -> S cov S^T."""
    s = np.asarray(s, dtype=float)
    if s.shape != (state.mean.size, state.mean.size):
        raise ValueError(f"symplectic shape {s.shape} does not match state dimension")
    return _own(s @ state.mean, s @ state.cov @ s.T)


def _check_mode(state: GaussianState, mode: int) -> None:
    if check_count(mode, "mode") >= state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes} modes")


def rotate(state: GaussianState, mode: int, phi: float) -> GaussianState:
    """Phase rotation of one mode by phi in the (x, p) plane; phi must be a finite number."""
    _check_mode(state, mode)
    phi = _as_finite(phi, "phi")
    c, s = math.cos(phi), math.sin(phi)
    block = np.array([[c, -s], [s, c]])
    if state.n_modes == 1:
        return apply_symplectic(state, block)
    rotation = np.eye(2 * state.n_modes)
    rotation[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = block
    return apply_symplectic(state, rotation)


def _as_float(value, label: str) -> float:
    """``value`` as a number (module docstring); a float is returned as given."""
    if type(value) is float:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond float range, read as its decimal text is
            return math.inf if value > 0 else -math.inf
    raise ValueError(f"{label} must be a number, got {value!r}")


def _as_finite(value, label: str) -> float:
    value = value if type(value) is float else _as_float(value, label)  # a float skips a call
    if not math.isfinite(value):
        raise ValueError(f"{label} must be finite, got {value}")
    return value


def _as_positive(value, label: str) -> float:
    value = value if type(value) is float else _as_float(value, label)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{label} must be positive and finite")
    return value


def _as_pair(pair, label: str) -> tuple[float, float]:
    """``pair`` as a tuple of two floats: itself if it is one, else its values
    read by `_as_float` as ``label[0]`` and ``label[1]``."""
    try:  # text is no pair, even of two characters
        first, second = () if isinstance(pair, (str, bytes)) else pair
    except (TypeError, ValueError):  # a scalar, or a length other than 2
        raise ValueError(f"{label} must hold exactly two values, got {pair!r}") from None
    if type(pair) is tuple and type(first) is type(second) is float:
        return pair
    return _as_float(first, f"{label}[0]"), _as_float(second, f"{label}[1]")


def check_fraction(value: float, label: str) -> float:
    """``value``, an efficiency or transmittance, as a fraction (module docstring)."""
    fraction = value if type(value) is float else _as_float(value, label)
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"{label} must lie in [0, 1], got {fraction!r}")
    return fraction


def check_count(value, label: str, minimum: int = 0) -> int:
    """``value`` as a count (module docstring) >= ``minimum``."""
    if type(value) is not int:  # an ABC check costs more than the rest of a call
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{label} must be an integer, got {value!r}")
        value = int(value)
    if value < minimum:
        raise ValueError(f"{label} must be >= {minimum}")
    return value


def check_noise_pair(sq_db: float, antisq_db: float, label: str) -> None:
    """Raise PhysicsError unless (sq_db, antisq_db) is a squeezer's noise pair:
    sq_db <= 0 <= antisq_db <= MAX_LEVEL_DB, so NaN and infinite levels fail,
    and sq_db + antisq_db >= 0 to round-off, since a smaller sum would beat
    the uncertainty bound.  ``label`` names the squeezer in the message."""
    if not (sq_db <= 0.0 <= antisq_db <= MAX_LEVEL_DB) or sq_db + antisq_db < -1e-12:
        raise PhysicsError(
            f"{label} noise pair ({sq_db:+.3g}, {antisq_db:+.3g}) dB is not a "
            "valid squeezed/anti-squeezed combination"
        )


def impure_squeezed_vacuum(sq_db: float, antisq_db: float) -> GaussianState:
    """Single-mode squeezed state specified by measured noise levels in dB.

    Args:
        sq_db: squeezed-quadrature level relative to vacuum, must be <= 0.
        antisq_db: anti-squeezed level relative to vacuum, must be >= 0.

    The pair must pass check_noise_pair.  Returns an x-squeezed state with
    Var(x) = (1/4) 10^(sq_db/10), Var(p) = (1/4) 10^(antisq_db/10).
    """
    sq_db, antisq_db = _as_float(sq_db, "sq_db"), _as_float(antisq_db, "antisq_db")
    check_noise_pair(sq_db, antisq_db, "squeezed vacuum")
    vx = variance_from_db(sq_db, VACUUM_VARIANCE)
    vp = variance_from_db(antisq_db, VACUUM_VARIANCE)
    return _own(np.zeros(2), np.array([[vx, 0.0], [0.0, vp]], dtype=float))


def quarter_turn(state: GaussianState) -> GaussianState:
    """Phase rotation of a single-mode state by pi/2, (x, p) -> (-p, x), done
    exactly: rotate(state, 0, np.pi / 2) would leave cos(pi/2) = 6e-17 terms
    in the moments.  Negation is subtraction from +0.0, so a zero entry stays
    +0.0 rather than turning into -0.0.  The moments are read as Python
    floats, which is exact and cheaper than numpy scalars."""
    (mx, mp), ((cxx, cxp), (cpx, cpp)) = state.mean.tolist(), state.cov.tolist()
    return _own(np.array([0.0 - mp, mx]), np.array([[cpp, 0.0 - cpx], [0.0 - cxp, cxx]]))


def beamsplitter(
    state: GaussianState, mode_i: int, mode_j: int, transmittance: float
) -> GaussianState:
    """Mix two modes on a beamsplitter of the given intensity transmittance.

    Acts identically on the x and p blocks:

        q_i -> sqrt(t) q_i + sqrt(1 - t) q_j
        q_j -> sqrt(t) q_j - sqrt(1 - t) q_i

    The moments go through the BLAS products of `apply_symplectic`, not
    through row and column formulas: OpenBLAS's kernels use fused
    multiply-adds, so a two-term rewrite of S cov S^T rounds differently.
    """
    n = state.n_modes
    mode_i, mode_j = check_count(mode_i, "mode_i"), check_count(mode_j, "mode_j")
    if mode_i == mode_j or not (mode_i < n and mode_j < n):
        raise ValueError(f"invalid mode pair ({mode_i}, {mode_j}) for {n} modes")
    t = check_fraction(transmittance, "transmittance") + 0.0  # -0.0 and 0.0: one key
    return apply_symplectic(state, _mixer(n, 2 * mode_i, 2 * mode_j, t))


@functools.lru_cache(maxsize=16)
def _mixer(n_modes: int, i: int, j: int, t: float) -> np.ndarray:
    """Read-only symplectic matrix of `beamsplitter` on quadratures i and j."""
    ct, st = math.sqrt(t), math.sqrt(1.0 - t)
    s = np.eye(2 * n_modes)
    s[i, i] = s[i + 1, i + 1] = s[j, j] = s[j + 1, j + 1] = ct
    s[i, j] = s[i + 1, j + 1] = st
    s[j, i] = s[j + 1, i + 1] = -st
    s.setflags(write=False)
    return s


def loss(state: GaussianState, mode: int, eta: float) -> GaussianState:
    """Pure-loss channel of transmittance eta on one mode.

    Equivalent to mixing the mode with vacuum on a beamsplitter of
    transmittance eta and discarding the ancilla: the mode's covariance block
    becomes eta * block + (1 - eta) * (1/4) I, cross blocks scale by
    sqrt(eta), and the mode's mean scales by sqrt(eta).
    """
    _check_mode(state, mode)
    eta = check_fraction(eta, "eta")
    i = 2 * mode
    scale = np.ones(state.mean.size)
    scale[i : i + 2] = math.sqrt(eta)
    # not rows then columns: that rounds the mode's own block differently
    cov = state.cov * (scale[:, None] * scale)
    added = (1.0 - eta) * VACUUM_VARIANCE
    cov[i, i] += added
    cov[i + 1, i + 1] += added
    return _own(state.mean * scale, cov)


def db_from_variance(variance: float, reference: float) -> float:
    """Noise level in dB of a variance relative to an explicit reference;
    both must be positive and finite, and so must their ratio."""
    variance, reference = _as_positive(variance, "variance"), _as_positive(reference, "reference")
    ratio = variance / reference
    if not 0.0 < ratio < math.inf:  # underflowed to 0 or overflowed
        raise ValueError(f"variance / reference ratio {variance!r} / {reference!r} "
                         "leaves float range")
    return 10.0 * math.log10(ratio)


def variance_from_db(level_db: float, reference: float) -> float:
    """Inverse of db_from_variance, for a finite level and a finite result."""
    level_db, reference = _as_finite(level_db, "level_db"), _as_positive(reference, "reference")
    try:
        variance = reference * 10.0 ** (level_db / 10.0)
    except OverflowError:  # the power, from about 3082.547 dB on
        variance = math.inf
    if variance == math.inf:  # the power, or its product with the reference
        raise ValueError(f"level_db {level_db} dB overflows a float variance")
    return variance
