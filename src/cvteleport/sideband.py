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

The pair's moments are formed directly; the gate chain that defines them
(`quarter_turn`, `tensor`, `apply_symplectic`) is their test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from cvteleport.gaussian import GaussianState

# Combination variances are referenced to two-mode vacuum, which gives
# Var(x+ + x-) = Var(p+ - p-) = 1/2 and delta_sq = 1.
_X_SUM = np.array([1.0, 0.0, 1.0, 0.0])
_P_DIFF = np.array([0.0, 1.0, 0.0, -1.0])
# The balanced split (a, mirror) -> ((a + mirror), (a - mirror)) / sqrt(2).
_SPLIT = np.sqrt(0.5) * np.block([[np.eye(2), np.eye(2)], [np.eye(2), -np.eye(2)]])


@dataclass(frozen=True)
class SidebandPair:
    """Two sideband modes ordered (x+, p+, x-, p-)."""

    state: GaussianState

    def __post_init__(self):
        if self.state.n_modes != 2:
            raise ValueError("SidebandPair requires exactly two modes")

    @property
    def mean(self) -> np.ndarray:
        return self.state.mean

    @property
    def cov(self) -> np.ndarray:
        return self.state.cov


def sidebands_from_single_mode(state: GaussianState) -> SidebandPair:
    """Split one RF mode into its upper/lower sideband pair.

    The mirror mode is an independent copy with x and p statistics exchanged
    (covariance rotated by pi/2), and the pair is formed by the orthogonal
    symplectic (a, mirror) -> ((a + mirror), (a - mirror)) / sqrt(2) acting
    identically on x and p.  Displacements split evenly between the sidebands
    and do not affect the criterion, which uses central variances only.

    Formed directly, bit for bit the moments of that chain: the product's
    mean and block-diagonal covariance go through apply_symplectic's products.
    """
    if state.n_modes != 1:
        raise ValueError("sidebands_from_single_mode requires a single-mode state")
    (mx, mp), ((cxx, cxp), (cpx, cpp)) = state.mean.tolist(), state.cov.tolist()
    cov = np.array([[cxx, cxp, 0.0, 0.0], [cpx, cpp, 0.0, 0.0],
                    [0.0, 0.0, cpp, 0.0 - cpx], [0.0, 0.0, 0.0 - cxp, cxx]])
    mean = _SPLIT @ np.array([mx, mp, 0.0, 0.0])
    return SidebandPair(GaussianState(mean, _SPLIT @ cov @ _SPLIT.T, validate=False))


def delta_sq(pair: SidebandPair) -> float:
    """Sum criterion Var(x+ + x-) + Var(p+ - p-); vacuum sidebands give 1."""
    cov = pair.cov
    return float(_X_SUM @ cov @ _X_SUM + _P_DIFF @ cov @ _P_DIFF)


class EntanglementVerdict(NamedTuple):
    entangled: bool
    margin: float


def is_entangled(pair: SidebandPair) -> EntanglementVerdict:
    """Apply the sum criterion; margin = 1 - delta_sq (positive if entangled)."""
    value = delta_sq(pair)
    return EntanglementVerdict(value < 1.0, 1.0 - value)
