"""Gaussian states of n optical modes and the operations used in this package.

Conventions
-----------
* hbar = 1/2, so the vacuum variance of each quadrature is 1/4 and the
  Heisenberg bound reads Var(x) Var(p) >= 1/16.
* Quadratures are ordered (x1, p1, x2, p2, ...); a state is a mean vector of
  length 2n plus a 2n x 2n covariance matrix.
* A covariance matrix is physical iff all symplectic eigenvalues are >= 1/4.
* Squeezing angle theta denotes the quadrature direction
  q(theta) = x cos(theta) + p sin(theta); theta = 0 squeezes x.
* Noise levels in dB always carry an explicit variance reference:
  1/4 for single quadratures, 1/2 for two-mode sum/difference combinations.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

VACUUM_VARIANCE = 0.25
TWO_MODE_VACUUM_VARIANCE = 0.5
UNCERTAINTY_PRODUCT = 1.0 / 16.0

# Constructor tolerances: measured covariances may carry tiny asymmetries and
# eigenvalue dips from floating-point round-off, nothing larger.
SYMMETRY_ATOL = 1e-12
PHYSICALITY_ATOL = 1e-9
MIN_MEASURED_VARIANCE = 1e-15


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
        validate: check symmetry and the bona fide condition (symplectic
            eigenvalues >= 1/4 - PHYSICALITY_ATOL).  Operations in this module
            skip the check on their outputs because completely positive maps
            preserve physicality; empirical moment holders may also skip it.
    """

    __slots__ = ("mean", "cov")

    def __init__(self, mean: np.ndarray, cov: np.ndarray, *, validate: bool = True):
        mean = np.array(mean, dtype=float).reshape(-1)
        cov = np.array(cov, dtype=float)
        if mean.size < 2 or mean.size % 2:
            raise ValueError(f"mean must have even length >= 2, got {mean.size}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean length {mean.size}")
        if validate:
            if not np.all(np.abs(cov - cov.T) <= SYMMETRY_ATOL):
                raise PhysicsError("covariance matrix is not symmetric")
            cov = 0.5 * (cov + cov.T)
            nu_min = symplectic_eigenvalues(cov).min()
            if nu_min < VACUUM_VARIANCE - PHYSICALITY_ATOL:
                raise PhysicsError(
                    f"covariance violates the uncertainty principle: "
                    f"min symplectic eigenvalue {nu_min:.6g} < 1/4"
                )
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianState is immutable")

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def __repr__(self) -> str:
        return f"GaussianState(n_modes={self.n_modes})"


def vacuum(n_modes: int) -> GaussianState:
    """The n-mode vacuum: zero mean, covariance (1/4) * identity."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return GaussianState(
        np.zeros(2 * n_modes), VACUUM_VARIANCE * np.eye(2 * n_modes), validate=False
    )


def coherent_state(alpha: complex) -> GaussianState:
    """Single-mode coherent state; alpha maps to mean (Re alpha, Im alpha)."""
    alpha = complex(alpha)
    return GaussianState(
        np.array([alpha.real, alpha.imag]),
        VACUUM_VARIANCE * np.eye(2),
        validate=False,
    )


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
    return GaussianState(mean, cov, validate=False)


def partial_trace(state: GaussianState, keep: Sequence[int]) -> GaussianState:
    """Reduced state of the listed modes, in the listed order."""
    keep = list(keep)
    if not keep:
        raise ValueError("keep must list at least one mode")
    if len(set(keep)) != len(keep) or min(keep) < 0 or max(keep) >= state.n_modes:
        raise ValueError(f"invalid mode list {keep} for {state.n_modes} modes")
    idx = np.array([2 * m + q for m in keep for q in (0, 1)])
    return GaussianState(state.mean[idx], state.cov[np.ix_(idx, idx)], validate=False)


def apply_symplectic(state: GaussianState, s: np.ndarray) -> GaussianState:
    """Apply a symplectic matrix: mean -> S mean, cov -> S cov S^T."""
    s = np.asarray(s, dtype=float)
    if s.shape != (state.mean.size, state.mean.size):
        raise ValueError(f"symplectic shape {s.shape} does not match state dimension")
    return GaussianState(s @ state.mean, s @ state.cov @ s.T, validate=False)


def _rotation_2x2(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def _embed_single(n_modes: int, mode: int, block: np.ndarray) -> np.ndarray:
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} out of range for {n_modes} modes")
    s = np.eye(2 * n_modes)
    s[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = block
    return s


def rotate(state: GaussianState, mode: int, phi: float) -> GaussianState:
    """Phase rotation of one mode by phi in the (x, p) plane."""
    return apply_symplectic(state, _embed_single(state.n_modes, mode, _rotation_2x2(phi)))


def squeeze(state: GaussianState, mode: int, r: float, theta: float = 0.0) -> GaussianState:
    """Squeeze one mode by parameter r along the quadrature at angle theta.

    For theta = 0 the x variance scales by exp(-2r) and the p variance by
    exp(+2r); vacuum squeezed by r has Var(x) = (1/4) exp(-2r).
    """
    rot = _rotation_2x2(theta)
    block = rot @ np.diag([np.exp(-r), np.exp(r)]) @ rot.T
    return apply_symplectic(state, _embed_single(state.n_modes, mode, block))


def impure_squeezed_vacuum(sq_db: float, antisq_db: float) -> GaussianState:
    """Single-mode squeezed state specified by measured noise levels in dB.

    Args:
        sq_db: squeezed-quadrature level relative to vacuum, must be <= 0.
        antisq_db: anti-squeezed level relative to vacuum, must be >= 0.

    The pair must satisfy sq_db + antisq_db >= 0, otherwise the implied
    variance product would beat the uncertainty bound.  Returns an x-squeezed
    state with Var(x) = (1/4) 10^(sq_db/10), Var(p) = (1/4) 10^(antisq_db/10).
    """
    if not (sq_db <= 0.0 <= antisq_db):
        raise PhysicsError(
            f"need sq_db <= 0 <= antisq_db, got ({sq_db:+.3g}, {antisq_db:+.3g}) dB"
        )
    if sq_db + antisq_db < -SYMMETRY_ATOL:
        raise PhysicsError(
            f"noise pair ({sq_db:+.3g}, {antisq_db:+.3g}) dB violates the "
            "uncertainty bound"
        )
    vx = variance_from_db(sq_db, VACUUM_VARIANCE)
    vp = variance_from_db(antisq_db, VACUUM_VARIANCE)
    return GaussianState(np.zeros(2), np.diag([vx, vp]), validate=False)


def displace(state: GaussianState, mode: int, dx: float, dp: float) -> GaussianState:
    """Shift one mode's mean by (dx, dp); the covariance is untouched."""
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes} modes")
    mean = state.mean.copy()
    mean[2 * mode] += dx
    mean[2 * mode + 1] += dp
    return GaussianState(mean, state.cov, validate=False)


def beamsplitter(
    state: GaussianState, mode_i: int, mode_j: int, transmittance: float
) -> GaussianState:
    """Mix two modes on a beamsplitter of the given intensity transmittance.

    Acts identically on the x and p blocks:

        q_i -> sqrt(t) q_i + sqrt(1 - t) q_j
        q_j -> sqrt(t) q_j - sqrt(1 - t) q_i
    """
    n = state.n_modes
    if mode_i == mode_j or not (0 <= mode_i < n and 0 <= mode_j < n):
        raise ValueError(f"invalid mode pair ({mode_i}, {mode_j}) for {n} modes")
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {transmittance}")
    ct = np.sqrt(transmittance)
    st = np.sqrt(1.0 - transmittance)
    s = np.eye(2 * n)
    for q in (0, 1):
        i, j = 2 * mode_i + q, 2 * mode_j + q
        s[i, i] = ct
        s[i, j] = st
        s[j, i] = -st
        s[j, j] = ct
    return apply_symplectic(state, s)


def loss(state: GaussianState, mode: int, eta: float) -> GaussianState:
    """Pure-loss channel of transmittance eta on one mode.

    Equivalent to mixing the mode with vacuum on a beamsplitter of
    transmittance eta and discarding the ancilla: the mode's covariance block
    becomes eta * block + (1 - eta) * (1/4) I, cross blocks scale by
    sqrt(eta), and the mode's mean scales by sqrt(eta).
    """
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes} modes")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    idx = [2 * mode, 2 * mode + 1]
    scale = np.ones(state.mean.size)
    scale[idx] = np.sqrt(eta)
    cov = state.cov * np.outer(scale, scale)
    cov[idx[0], idx[0]] += (1.0 - eta) * VACUUM_VARIANCE
    cov[idx[1], idx[1]] += (1.0 - eta) * VACUUM_VARIANCE
    return GaussianState(state.mean * scale, cov, validate=False)


def _quadrature_vector(state: GaussianState, mode: int, theta: float) -> np.ndarray:
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes} modes")
    v = np.zeros(state.mean.size)
    v[2 * mode] = np.cos(theta)
    v[2 * mode + 1] = np.sin(theta)
    return v


def marginal_variance(state: GaussianState, mode: int, theta: float) -> float:
    """Variance of q(theta) = x cos(theta) + p sin(theta) on one mode.

    Periodic in theta with period pi.
    """
    v = _quadrature_vector(state, mode, theta)
    return float(v @ state.cov @ v)


def marginal_mean(state: GaussianState, mode: int, theta: float) -> float:
    """Mean of the rotated quadrature q(theta) on one mode."""
    return float(_quadrature_vector(state, mode, theta) @ state.mean)


def homodyne_condition(
    state: GaussianState, mode: int, theta: float, outcome: float
) -> GaussianState:
    """State of the remaining modes after measuring q(theta) with result `outcome`.

    Gaussian conditioning on the measured scalar: with measured variance
    s2 = v' C v and cross covariance c = C_rest,v the update is

        mean -> mean_rest + c (outcome - mean_meas) / s2
        cov  -> cov_rest - (c c') / s2

    The conditional covariance does not depend on the outcome and the
    conditional mean is linear in it.  The measured mode is removed.
    """
    if state.n_modes < 2:
        raise ValueError("homodyne_condition needs at least two modes")
    v = _quadrature_vector(state, mode, theta)
    var_meas = float(v @ state.cov @ v)
    if var_meas < MIN_MEASURED_VARIANCE:
        raise PhysicsError(
            f"measured quadrature variance {var_meas:.3g} is numerically singular"
        )
    mean_meas = float(v @ state.mean)
    keep = np.array(
        [i for i in range(state.mean.size) if i not in (2 * mode, 2 * mode + 1)]
    )
    cross = state.cov[keep] @ v
    mean = state.mean[keep] + cross * (outcome - mean_meas) / var_meas
    cov = state.cov[np.ix_(keep, keep)] - np.outer(cross, cross) / var_meas
    return GaussianState(mean, cov, validate=False)


def sample_quadrature(
    state: GaussianState,
    mode: int,
    theta: float,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Draw homodyne outcomes of q(theta) on one mode; normal marginal law.

    The remaining modes are not conditioned; `homodyne_condition` gives the
    state they are left in for one outcome.
    """
    mu = marginal_mean(state, mode, theta)
    sigma = np.sqrt(marginal_variance(state, mode, theta))
    return rng.normal(mu, sigma, size=size)


def sample_phase_space(
    state: GaussianState, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw points from the state's Wigner distribution, shape (size, 2n).

    The Wigner function of a Gaussian state is an ordinary normal density, so
    every rotated-quadrature marginal of the draws reproduces the homodyne
    statistics.
    """
    chol = np.linalg.cholesky(
        state.cov + 1e-14 * np.eye(state.mean.size)
    )  # jitter guards exactly-pure corner cases
    return state.mean + rng.standard_normal((size, state.mean.size)) @ chol.T


def total_mean_photons(state: GaussianState) -> float:
    """Total mean photon number: sum over modes of Vx + Vp - 1/2 + <x>^2 + <p>^2.

    Conserved by passive operations (beamsplitters and phase rotations).
    """
    return float(
        np.trace(state.cov) - state.n_modes * 0.5 + np.dot(state.mean, state.mean)
    )


def db_from_variance(variance: float, reference: float) -> float:
    """Noise level in dB of a variance relative to an explicit reference."""
    if variance <= 0 or reference <= 0:
        raise ValueError("variance and reference must be positive")
    return 10.0 * np.log10(variance / reference)


def variance_from_db(level_db: float, reference: float) -> float:
    """Inverse of db_from_variance."""
    if reference <= 0:
        raise ValueError("reference must be positive")
    return reference * 10.0 ** (level_db / 10.0)
