"""Upper/lower sideband decomposition of a single RF mode and the
sum/difference entanglement criterion.

A homodyne signal demodulated at one RF frequency measures the combinations
x+ + x- and p+ - p- of the two sideband modes a+- = (a -+ mirror) / sqrt(2),
where the mirror mode carries the conjugate spectrum (its x and p statistics
are the p and x statistics of the carrier mode).  The criterion value

    delta_sq = Var(x+ + x-) + Var(p+ - p-)

equals 1 for vacuum in the hbar = 1/2 convention, and delta_sq < 1 certifies
entanglement between the sidebands; delta_sq >= 1 certifies nothing, for the
criterion is sufficient, not necessary.  For a single mode with x variance Vx
the identity delta_sq = Vx / (1/4) holds: squeezing below vacuum at the
analysis frequency is the same statement as certified sideband entanglement.

A sideband pair is a two-mode `GaussianState` ordered (x+, p+, x-, p-), as
the EPR beam pair is, and `delta_sq` and `is_entangled` check its mode count
as `epr_correlations` does.  The pair's moments are formed in closed form on
the mode's held Python floats, each covariance entry rounded once (vacuum
gives delta_sq = 1 exactly), and the pair holds them as built, through
`gaussian._own`, as lists of Python floats; its arrays are built only if
read.  The gate chain that defines them (`quarter_turn`, `tensor`,
`apply_symplectic`) is their test oracle.  `delta_sq` reads the pair's held
covariance floats and sums the entries its two combinations weigh, grouped
so that the result is bit for bit that of the matrix products with the
weights of x+ + x- and p+ - p-.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from cvteleport.gaussian import GaussianState, _moments, _own

_ROOT_HALF = math.sqrt(0.5)  # np.sqrt(0.5)'s bits: both round correctly


def sidebands_from_single_mode(state: GaussianState) -> GaussianState:
    """Split one RF mode into its upper/lower sideband pair, a two-mode state
    ordered (x+, p+, x-, p-).

    The mirror mode is an independent copy with x and p statistics exchanged
    (covariance rotated by pi/2), and the pair is formed by the orthogonal
    symplectic (a, mirror) -> ((a + mirror), (a - mirror)) / sqrt(2) acting
    identically on x and p.  Displacements split evenly between the sidebands
    and do not affect the criterion, which uses central variances only.

    In closed form, with C the mode's covariance and M = [[cpp, -cpx], [-cxp,
    cxx]] the mirror's: the covariance is [[C + M, C - M], [C - M, C + M]] / 2,
    each entry one sum and a halving, so the exact entry rounded once (above
    the subnormal range), and vacuum gives delta_sq = 1 exactly.  The mean is
    sqrt(1/2) (mx, mp, mx, mp), +0.0 for a zero, the split's product.
    """
    if state.n_modes != 1:
        raise ValueError("sidebands_from_single_mode requires a single-mode state")
    (mx, mp), ((cxx, cxp), (cpx, cpp)) = _moments(state)
    mx, mp = _ROOT_HALF * mx + 0.0, _ROOT_HALF * mp + 0.0
    s, u, v = (cxx + cpp) * 0.5, (cxp - cpx) * 0.5, (cpx - cxp) * 0.5
    d, e, f = (cxx - cpp) * 0.5, (cxp + cpx) * 0.5, (cpp - cxx) * 0.5
    cov = [[s, u, d, e], [v, s, e, f], [d, e, s, u], [e, f, v, s]]
    return _own([mx, mp, mx, mp], cov)


def delta_sq(pair: GaussianState) -> float:
    """Sum criterion Var(x+ + x-) + Var(p+ - p-) of a two-mode sideband pair;
    vacuum sidebands give 1.

    Read as Python floats.  Each vector-matrix product of x @ cov @ x +
    p @ cov @ p, x = (1, 0, 1, 0) and p = (0, 1, 0, -1), has two nonzero terms,
    so the sums below, grouped as those products group them, round alike."""
    if pair.n_modes != 2:
        raise ValueError(f"a sideband pair has two modes, got {pair.n_modes}")
    (c00, _, c02, _), (_, c11, _, c13), (c20, _, c22, _), (_, c31, _, c33) = _moments(pair)[1]
    return ((c00 + c20) + (c02 + c22)) + ((c11 - c31) - (c13 - c33))


class EntanglementVerdict(NamedTuple):
    """The sum criterion's verdict.  ``entangled`` is True when the criterion
    certifies entanglement, delta_sq < 1; False claims nothing."""

    entangled: bool
    margin: float


def is_entangled(pair: GaussianState) -> EntanglementVerdict:
    """Apply the sum criterion to a two-mode sideband pair: ``entangled`` is
    "certified by delta_sq < 1", and margin = 1 - delta_sq (positive if
    certified)."""
    value = delta_sq(pair)
    return EntanglementVerdict(value < 1.0, 1.0 - value)
