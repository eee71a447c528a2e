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
* No number a verb writes depends on numpy's SIMD dispatch or on the BLAS
  and LAPACK kernels.  numpy runs float64 log10, exp and power through loops
  picked for the host CPU, whose results differ from its baseline loops' in
  the last bit for some inputs, so a transcendental function of a Python
  float goes through `math` (libm), which is also about three times cheaper
  on a scalar than a ufunc call.  The one array written in dB,
  `spectrum_trace`'s, takes math.log10 of each point.  Likewise the BLAS
  kernel picked for the host rounds a matrix product its own way (with or
  without fused multiply-adds), so the gates (`loss`, `beamsplitter`,
  `tensor`, `rotate`) and the Monte Carlo read-out work on the moments as
  Python-float lists, each product and sum in a fixed order.  sqrt and the
  arithmetic operators round correctly everywhere.
* A `GaussianState` holds its moments in that form, the kernels': the mean
  and the rows of the covariance as lists of Python floats.  Its ``mean``
  and ``cov`` arrays are built from them once, on the first read, so a
  chain of operations that reads no array (the gates, the teleporter, the
  sideband split, the report writer) builds none and pays numpy's per-call
  overhead nowhere.
* numpy is imported only by the functions that build or read arrays: the
  public constructor, the ``mean`` and ``cov`` arrays, `apply_symplectic`
  and `symplectic_eigenvalues`.  The rest of the module, and the analytic
  path built on it, runs without loading numpy at all.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING

if TYPE_CHECKING:
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


class PhysicsError(ValueError):
    """An operation required or would produce an unphysical Gaussian state."""


def _symplectic_form(n_modes: int) -> np.ndarray:
    import numpy as np
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
    import numpy as np
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
    (symplectic eigenvalues >= 1/4 - PHYSICALITY_ATOL) on float64 copies of
    ``mean`` and ``cov``, so no caller array is shared.  The held form is
    the kernels' (module docstring): the mean and the rows of the covariance
    as lists of Python floats.  ``mean`` and ``cov`` are read-only float64
    arrays of them, built once, on first read (the constructor holds its
    validated copies).  Operations of this package build their outputs
    through the module-private `_own`, which keeps the shape checks but
    skips the physics checks, since completely positive maps preserve
    physicality, and read their inputs' floats through `_moments`.
    """

    __slots__ = ("_mean", "_cov", "_mean_array", "_cov_array")

    def __init__(self, mean: np.ndarray, cov: np.ndarray):
        import numpy as np
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
        _SET_MEAN(self, mean.tolist())
        _SET_COV(self, cov.tolist())
        _frozen(self, "_mean_array", mean)
        _frozen(self, "_cov_array", cov)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianState is immutable")

    def __reduce__(self):
        """Copies and pickles rebuild the state from its held lists by `_own`:
        the default way sets the slots, which an immutable state refuses."""
        return _own, (self._mean, self._cov)

    @property
    def mean(self) -> np.ndarray:
        """The mean as a read-only float64 vector, built on first read."""
        try:
            return self._mean_array
        except AttributeError:
            import numpy as np
            return _frozen(self, "_mean_array", np.array(self._mean, dtype=float))

    @property
    def cov(self) -> np.ndarray:
        """The covariance as a read-only float64 matrix, built on first read."""
        try:
            return self._cov_array
        except AttributeError:
            import numpy as np
            return _frozen(self, "_cov_array", np.array(self._cov, dtype=float))

    @property
    def n_modes(self) -> int:
        return len(self._mean) // 2

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


# the held lists' slot setters, which `_own` calls without a name lookup
_SET_MEAN, _SET_COV = GaussianState._mean.__set__, GaussianState._cov.__set__


def _frozen(state: GaussianState, slot: str, array: np.ndarray) -> np.ndarray:
    """``array``, made read-only and cached in ``state``'s ``slot``."""
    array.setflags(write=False)
    object.__setattr__(state, slot, array)
    return array


def _own(mean: list, cov: list) -> GaussianState:
    """GaussianState(mean, cov) without its checks of the values.

    For a mean and covariance rows that are lists of Python floats, which
    the caller has just built and shares with nothing: the state holds
    them, and no one changes them after.  The shape checks stay."""
    size = len(mean)
    if type(mean) is not list or type(cov) is not list or size < 2 or size % 2 or len(cov) != size:
        _check_lists(mean, cov)
    for row in cov:  # a loop costs less than any() of a generator
        if type(row) is not list or len(row) != size:
            _check_lists(mean, cov)
    state = object.__new__(GaussianState)
    _SET_MEAN(state, mean)
    _SET_COV(state, cov)
    return state


def _check_lists(mean: list, cov: list) -> None:
    """Raise for moments `_own` does not take: not lists, or not a state's shapes."""
    if type(mean) is not list or type(cov) is not list or not all(type(row) is list for row in cov):
        raise TypeError("_own takes the mean and the covariance rows as lists of floats")
    size, widths = len(mean), sorted({len(row) for row in cov})
    if size < 2 or size % 2:
        raise ValueError(f"mean must have even length >= 2, got {size}")
    shape = (len(cov), *widths) if len(widths) <= 1 else f"({len(cov)} rows of lengths {widths})"
    raise ValueError(f"cov shape {shape} does not match mean length {size}")


def _moments(state: GaussianState) -> tuple[list, list]:
    """The floats a state holds: its mean and the rows of its covariance.
    Read them only; `_lists` gives copies a kernel may change."""
    return state._mean, state._cov


def vacuum(n_modes: int) -> GaussianState:
    """The n-mode vacuum: zero mean, covariance (1/4) * identity."""
    dim = 2 * check_count(n_modes, "n_modes", 1)
    cov = [[0.0] * dim for _ in range(dim)]
    for k, row in enumerate(cov):
        row[k] = VACUUM_VARIANCE
    return _own([0.0] * dim, cov)


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
    return _own([alpha.real, alpha.imag], [[VACUUM_VARIANCE, 0.0], [0.0, VACUUM_VARIANCE]])


# The gates' kernels.  Each takes moments as Python-float lists, the mean and
# the rows of the covariance, which it may change in place, and returns the
# moments after the gate; the public gates check their arguments, run one
# kernel and build one state.  `teleporter` chains them to build its states.

def _tensor_moments(*moments: tuple[list, list]) -> tuple[list, list]:
    """Product of (mean, cov) moments: stacked means, block-diagonal covariance."""
    mean = [value for part, _ in moments for value in part]
    dim, lo, cov = len(mean), 0, []
    for part, rows in moments:
        hi = lo + len(part)
        cov.extend([0.0] * lo + row + [0.0] * (dim - hi) for row in rows)
        lo = hi
    return mean, cov


def _mix_moments(mean: list, cov: list, pairs, ct: float, st: float) -> tuple[list, list]:
    """Moments after q_a -> ct q_a + st q_b, q_b -> ct q_b - st q_a for each
    pair (a, b) of quadratures: S mean, and S cov S^T as the rows of cov
    mixed, then the columns of the result."""
    for a, b in pairs:
        mean[a], mean[b] = ct * mean[a] + st * mean[b], ct * mean[b] - st * mean[a]
        row_a, row_b = cov[a], cov[b]
        cov[a] = [ct * x + st * y for x, y in zip(row_a, row_b)]
        cov[b] = [ct * y - st * x for x, y in zip(row_a, row_b)]
    for row in cov:
        for a, b in pairs:
            x, y = row[a], row[b]
            row[a], row[b] = ct * x + st * y, ct * y - st * x
    return mean, cov


def _rotate_moments(mean: list, cov: list, mode: int, phi: float) -> tuple[list, list]:
    """`rotate`'s moments: R cov R^T with R = [[c, -s], [s, c]] on the mode."""
    i = 2 * mode
    return _mix_moments(mean, cov, ((i, i + 1),), math.cos(phi), -math.sin(phi))


def _beamsplitter_moments(
    mean: list, cov: list, mode_i: int, mode_j: int, t: float
) -> tuple[list, list]:
    """`beamsplitter`'s moments: its x pair, then its p pair, mixed."""
    i, j = 2 * mode_i, 2 * mode_j
    return _mix_moments(mean, cov, ((i, j), (i + 1, j + 1)), math.sqrt(t), math.sqrt(1.0 - t))


def _loss_moments(mean: list, cov: list, mode: int, eta: float) -> tuple[list, list]:
    """`loss`'s moments: each entry of the mode's block times sqrt(eta) *
    sqrt(eta), each other entry of its rows and columns times sqrt(eta), its
    mean times sqrt(eta), then the vacuum's share on its diagonal."""
    i = 2 * mode
    root = math.sqrt(eta)
    both = root * root  # one rounded factor, not two roundings of the entry
    mean[i], mean[i + 1] = mean[i] * root, mean[i + 1] * root
    for k, row in enumerate(cov):
        if k == i or k == i + 1:
            own = row[i] * both, row[i + 1] * both
            row[:] = [value * root for value in row]
            row[i], row[i + 1] = own
        else:
            row[i], row[i + 1] = row[i] * root, row[i + 1] * root
    added = (1.0 - eta) * VACUUM_VARIANCE
    cov[i][i] += added
    cov[i + 1][i + 1] += added
    return mean, cov


def _lists(state: GaussianState) -> tuple[list, list]:
    """A state's moments as a kernel takes them: copies of its held lists."""
    return state._mean[:], [row[:] for row in state._cov]


def tensor(*states: GaussianState) -> GaussianState:
    """Product state: stacked means, block-diagonal covariance."""
    if not states:
        raise ValueError("tensor requires at least one state")
    # the kernel builds new lists, so it reads the held ones
    return _own(*_tensor_moments(*map(_moments, states)))


def apply_symplectic(state: GaussianState, s: np.ndarray) -> GaussianState:
    """Apply a symplectic matrix: mean -> S mean, cov -> S cov S^T.

    The general form, for any S; no verb writes its bytes, which are numpy's
    BLAS products and so depend on the BLAS kernel.  The gates run their own
    kernels in a fixed order (module docstring)."""
    import numpy as np
    s = np.asarray(s, dtype=float)
    if s.shape != (state.mean.size, state.mean.size):
        raise ValueError(f"symplectic shape {s.shape} does not match state dimension")
    return _own((s @ state.mean).tolist(), (s @ state.cov @ s.T).tolist())


def _check_mode(state: GaussianState, mode: int) -> None:
    if check_count(mode, "mode") >= state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes} modes")


def rotate(state: GaussianState, mode: int, phi: float) -> GaussianState:
    """Phase rotation of one mode by phi in the (x, p) plane; phi must be a
    finite number.  The moments are R mean and R cov R^T, R = [[cos phi,
    -sin phi], [sin phi, cos phi]] on the mode, each a two-term row, then
    column, mix on Python floats (`beamsplitter`)."""
    _check_mode(state, mode)
    phi = _as_finite(phi, "phi")
    return _own(*_rotate_moments(*_lists(state), mode, phi))


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
    return _own([0.0, 0.0], [[vx, 0.0], [0.0, vp]])


def quarter_turn(state: GaussianState) -> GaussianState:
    """Phase rotation of a single-mode state by pi/2, (x, p) -> (-p, x), done
    exactly: rotate(state, 0, np.pi / 2) would leave cos(pi/2) = 6e-17 terms
    in the moments.  Negation is subtraction from +0.0, so a zero entry stays
    +0.0 rather than turning into -0.0."""
    (mx, mp), ((cxx, cxp), (cpx, cpp)) = _moments(state)
    return _own([0.0 - mp, mx], [[cpp, 0.0 - cpx], [0.0 - cxp, cxx]])


def beamsplitter(
    state: GaussianState, mode_i: int, mode_j: int, transmittance: float
) -> GaussianState:
    """Mix two modes on a beamsplitter of the given intensity transmittance.

    Acts identically on the x and p blocks:

        q_i -> sqrt(t) q_i + sqrt(1 - t) q_j
        q_j -> sqrt(t) q_j - sqrt(1 - t) q_i

    The moments are S mean and S cov S^T of this symplectic S, written as two
    terms per entry: the mixed rows of cov, then the mixed columns of those,
    on Python floats, so their rounding is the same on every host.
    """
    n = state.n_modes
    mode_i, mode_j = check_count(mode_i, "mode_i"), check_count(mode_j, "mode_j")
    if mode_i == mode_j or not (mode_i < n and mode_j < n):
        raise ValueError(f"invalid mode pair ({mode_i}, {mode_j}) for {n} modes")
    # + 0.0: at -0.0, sqrt(t) would be -0.0 and turn some zero entries to -0.0
    t = check_fraction(transmittance, "transmittance") + 0.0
    return _own(*_beamsplitter_moments(*_lists(state), mode_i, mode_j, t))


def loss(state: GaussianState, mode: int, eta: float) -> GaussianState:
    """Pure-loss channel of transmittance eta on one mode.

    Equivalent to mixing the mode with vacuum on a beamsplitter of
    transmittance eta and discarding the ancilla: the mode's covariance block
    becomes eta * block + (1 - eta) * (1/4) I, cross blocks scale by
    sqrt(eta), and the mode's mean scales by sqrt(eta).
    """
    _check_mode(state, mode)
    eta = check_fraction(eta, "eta")
    return _own(*_loss_moments(*_lists(state), mode, eta))


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
