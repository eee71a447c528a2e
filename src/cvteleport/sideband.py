"""Upper/lower sideband decomposition of a single RF mode and the
sum/difference entanglement criterion.

A homodyne signal demodulated at one RF frequency measures the combinations
x+ + x- and p+ - p- of the two sideband modes a+- = (a -+ mirror) / sqrt(2),
where the mirror mode carries the conjugate spectrum (its x and p statistics
are the p and x statistics of the carrier mode).  The criterion value

    delta_sq = Var(x+ + x-) + Var(p+ - p-)

equals 1 for vacuum in the hbar = 1/2 convention, and delta_sq < 1 certifies
entanglement between the sidebands.  For a single mode with x variance Vx the
identity delta_sq = Vx / (1/4) holds: squeezing below vacuum at the analysis
frequency is the same statement as sideband entanglement.

The pair's moments are formed in closed form on the mode's held Python
floats, each covariance entry rounded once (vacuum gives delta_sq = 1
exactly), and the pair holds them as built, through `gaussian._own`, as
lists of Python floats; its arrays are built only if read.  Which
constructor checks: `SidebandPair(state)`, a slotted `gaussian._Record`,
and so its ``_replace``, checks that the state has two modes;
`sidebands_from_single_mode` builds its pair without that check, by the
slot's setter, as `_own` builds a state, around the two-mode state it has
just built.  The gate chain that defines them (`quarter_turn`, `tensor`,
`apply_symplectic`) is their test oracle.  `delta_sq` reads the pair's held covariance floats and sums
the entries its two combinations weigh, grouped so that the result is bit
for bit that of the matrix products with the weights of x+ + x- and
p+ - p-.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from cvteleport.gaussian import GaussianState, _Record, _moments, _own

if TYPE_CHECKING:
    import numpy as np

_ROOT_HALF = math.sqrt(0.5)  # np.sqrt(0.5)'s bits: both round correctly


class SidebandPair(_Record):
    """Two sideband modes ordered (x+, p+, x-, p-)."""

    __slots__ = ("state",)

    def __init__(self, state: GaussianState):
        if state.n_modes != 2:
            raise ValueError("SidebandPair requires exactly two modes")
        _SET_STATE(self, state)

    @property
    def mean(self) -> np.ndarray:
        return self.state.mean

    @property
    def cov(self) -> np.ndarray:
        return self.state.cov


_SET_STATE = SidebandPair.state.__set__  # the slot's setter


def sidebands_from_single_mode(state: GaussianState) -> SidebandPair:
    """Split one RF mode into its upper/lower sideband pair.

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
    pair = object.__new__(SidebandPair)  # SidebandPair(state) without its two-mode check
    _SET_STATE(pair, _own([mx, mp, mx, mp], cov))
    return pair


def delta_sq(pair: SidebandPair) -> float:
    """Sum criterion Var(x+ + x-) + Var(p+ - p-); vacuum sidebands give 1.

    Read as Python floats.  Each vector-matrix product of x @ cov @ x +
    p @ cov @ p, x = (1, 0, 1, 0) and p = (0, 1, 0, -1), has two nonzero terms,
    so the sums below, grouped as those products group them, round alike."""
    (c00, _, c02, _), (_, c11, _, c13), (c20, _, c22, _), (_, c31, _, c33) = _moments(pair.state)[1]
    return ((c00 + c20) + (c02 + c22)) + ((c11 - c31) - (c13 - c33))


class EntanglementVerdict(NamedTuple):
    entangled: bool
    margin: float


def is_entangled(pair: SidebandPair) -> EntanglementVerdict:
    """Apply the sum criterion; margin = 1 - delta_sq (positive if entangled)."""
    value = delta_sq(pair)
    return EntanglementVerdict(value < 1.0, 1.0 - value)
