"""Continuous-variable teleportation of one optical mode.

Protocol
--------
Two squeezed vacua (one squeezed in x, one in p) are mixed on a balanced
beamsplitter to form the entangled beams A and B.  The sender mixes the input
with A and homodynes the two output ports:

    u = (x_in - x_A) / sqrt(2),    v = (p_in + p_A) / sqrt(2),

then the receiver displaces B by (g_x sqrt(2) u, g_p sqrt(2) v).  At unity
gain the output quadratures are

    x_out = x_in - (x_A - x_B),    p_out = p_in + (p_A + p_B),

so only the two correlated EPR combinations are added to the input.  Losses
are modeled as beamsplitter admixtures of vacuum: one per squeezer output,
one per entangled beam, and one per sender detector (detector inefficiency is
compensated electronically so the configured gains are the realized
mean-transfer ratios).

Both paths read the output off one Gaussian vector: the sender's two
outcomes u, v and the receiver's beam B, whose moments `_readout` computes
once.  The feed-forward is the linear map x_out = x_B + c_x u,
p_out = p_B + c_p v with c = g sqrt(2 / eta_hom).  The analytic path applies
that map to the moments; the Monte Carlo path draws shots of (u, v, B) in
measurement order (u, then v given u, then B given both), displaces B shot by
shot, and reports empirical moments and gains.  The Monte Carlo path thus
checks the sampling, the per-shot feed-forward and the estimation of moments
and gains.  It shares the state preparation (`make_epr`, the sender's mixer
and the losses) with the analytic path, so an error there is not caught by
comparing the two.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from cvteleport.gaussian import (
    GaussianState,
    PhysicsError,
    TWO_MODE_VACUUM_VARIANCE,
    VACUUM_VARIANCE,
    beamsplitter,
    coherent_state,
    db_from_variance,
    impure_squeezed_vacuum,
    loss,
    rotate,
    tensor,
)
from cvteleport.sideband import delta_sq, sidebands_from_single_mode

_MC_CHUNK = 1 << 14


def _validate_db_pair(sq_db: float, antisq_db: float, label: str) -> None:
    if not (sq_db <= 0.0 <= antisq_db) or sq_db + antisq_db < -1e-12:
        raise PhysicsError(
            f"{label} noise pair ({sq_db:+.3g}, {antisq_db:+.3g}) dB is not a "
            "valid squeezed/anti-squeezed combination"
        )


def _validate_eta(value: float, label: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{label} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class TeleporterParams:
    """Full configuration of one teleporter stage.

    Attributes:
        input_state: single-mode state to be teleported.
        epr_sq_db: squeezed noise level of each resource squeezer in dB
            (first entry feeds the p correlations, second the x correlations).
        epr_antisq_db: anti-squeezed levels; None means pure partners.
        g_x, g_p: realized mean-transfer gains of the classical channel.
        eta_source: transmittance from each squeezer to the entangling mixer.
        eta_prop: transmittance of each entangled beam after the mixer.
        eta_hom: sender homodyne efficiency (visibility squared); the
            electronic gain is raised by 1/sqrt(eta_hom) so the configured
            gains stay the realized ones.
        seed: Monte Carlo seed; sub-streams are spawned per chunk.
    """

    input_state: GaussianState
    epr_sq_db: tuple[float, float] = (-6.0, -6.0)
    epr_antisq_db: tuple[float, float] | None = None
    g_x: float = 1.0
    g_p: float = 1.0
    eta_source: tuple[float, float] = (1.0, 1.0)
    eta_prop: tuple[float, float] = (1.0, 1.0)
    eta_hom: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.input_state.n_modes != 1:
            raise ValueError("input_state must be a single mode")
        anti = self.epr_antisq_db
        if anti is None:
            anti = (-self.epr_sq_db[0], -self.epr_sq_db[1])
            object.__setattr__(self, "epr_antisq_db", anti)
        for k in (0, 1):
            _validate_db_pair(self.epr_sq_db[k], anti[k], f"squeezer {k + 1}")
            _validate_eta(self.eta_source[k], f"eta_source[{k}]")
            _validate_eta(self.eta_prop[k], f"eta_prop[{k}]")
        _validate_eta(self.eta_hom, "eta_hom")
        if self.eta_hom < 1e-6:
            raise ValueError("eta_hom too small to compensate electronically")
        if not (np.isfinite(self.g_x) and np.isfinite(self.g_p)):
            raise ValueError("gains must be finite")


class EprCorrelations(NamedTuple):
    var_x_diff: float
    var_p_sum: float
    x_diff_db: float
    p_sum_db: float


@dataclass(frozen=True)
class TeleportReport:
    """Moments and derived figures of one teleporter run."""

    output_state: GaussianState
    vx: float
    vp: float
    vx_db: float
    vp_db: float
    fidelity_coherent: float | None
    delta_sq_out: float
    epr: EprCorrelations
    gains: tuple[float, float]
    method: str
    shots: int | None = None


def make_epr(params: TeleporterParams) -> GaussianState:
    """Entangled beam pair (A, B) from two lossy squeezers on a balanced mixer.

    Squeezer 1 (p-squeezed after a pi/2 rotation) sets Var(p_A + p_B);
    squeezer 2 (x-squeezed) sets Var(x_A - x_B).  Source losses act before
    the mixer, beam losses after.
    """
    anti = params.epr_antisq_db
    sq_p = rotate(impure_squeezed_vacuum(params.epr_sq_db[0], anti[0]), 0, np.pi / 2)
    sq_x = impure_squeezed_vacuum(params.epr_sq_db[1], anti[1])
    sq_p = loss(sq_p, 0, params.eta_source[0])
    sq_x = loss(sq_x, 0, params.eta_source[1])
    pair = beamsplitter(tensor(sq_x, sq_p), 0, 1, 0.5)
    pair = loss(pair, 0, params.eta_prop[0])
    pair = loss(pair, 1, params.eta_prop[1])
    return pair


def epr_correlations(pair: GaussianState) -> EprCorrelations:
    """Correlation variances of a beam pair, in absolute units and in dB
    relative to the two-mode vacuum level 1/2."""
    if pair.n_modes != 2:
        raise ValueError("epr_correlations requires a two-mode state")
    x_diff = np.array([1.0, 0.0, -1.0, 0.0])
    p_sum = np.array([0.0, 1.0, 0.0, 1.0])
    var_x = float(x_diff @ pair.cov @ x_diff)
    var_p = float(p_sum @ pair.cov @ p_sum)
    return EprCorrelations(
        var_x,
        var_p,
        db_from_variance(var_x, TWO_MODE_VACUUM_VARIANCE),
        db_from_variance(var_p, TWO_MODE_VACUUM_VARIANCE),
    )


# Quadratures of the mixed (u port, v port, B) state that the output reads:
# x of the u port, p of the v port, x_B, p_B.
_READOUT = np.array([0, 3, 4, 5])


def _readout(
    params: TeleporterParams,
) -> tuple[GaussianState, np.ndarray, np.ndarray, np.ndarray]:
    """The linear read-out the output is made of.

    Returns the beam pair, the mean and covariance of (u, v, x_B, p_B) after
    the sender's mixer and detector losses, and the 2 x 4 feed matrix F with
    (x_out, p_out) = F (u, v, x_B, p_B).  The u port carries
    (x_in - x_A)/sqrt(2) in x, the v port (p_in + p_A)/sqrt(2) in p.
    """
    pair = make_epr(params)
    mixed = beamsplitter(tensor(params.input_state, pair), 1, 0, 0.5)
    if params.eta_hom < 1.0:
        mixed = loss(mixed, 0, params.eta_hom)
        mixed = loss(mixed, 1, params.eta_hom)
    scale = np.sqrt(2.0 / params.eta_hom)
    feed = np.array(
        [[params.g_x * scale, 0.0, 1.0, 0.0], [0.0, params.g_p * scale, 0.0, 1.0]]
    )
    return pair, mixed.mean[_READOUT], mixed.cov[np.ix_(_READOUT, _READOUT)], feed


def _report(
    params: TeleporterParams,
    pair: GaussianState,
    output: GaussianState,
    gains: tuple[float, float],
    method: str,
    shots: int | None = None,
) -> TeleportReport:
    vx = float(output.cov[0, 0])
    vp = float(output.cov[1, 1])
    fidelity = None
    if _coherent_input(params) and params.g_x == params.g_p == 1.0:
        fidelity = coherent_fidelity(vx, vp)
    return TeleportReport(
        output_state=output,
        vx=vx,
        vp=vp,
        vx_db=db_from_variance(vx, VACUUM_VARIANCE),
        vp_db=db_from_variance(vp, VACUUM_VARIANCE),
        fidelity_coherent=fidelity,
        delta_sq_out=delta_sq(sidebands_from_single_mode(output)),
        epr=epr_correlations(pair),
        gains=gains,
        method=method,
        shots=shots,
    )


def _coherent_input(params: TeleporterParams) -> bool:
    return bool(
        np.allclose(params.input_state.cov, VACUUM_VARIANCE * np.eye(2), atol=1e-9)
    )


def teleport_analytic(params: TeleporterParams) -> TeleportReport:
    """Exact output moments by linear-network propagation.

    The output is x_out = g_x x_in + (x_B - g_x x_A) + detector terms, and
    likewise for p, so non-unity gains weight the EPR beams individually
    rather than through their correlated combinations only.
    """
    pair, mean, cov, feed = _readout(params)
    output = GaussianState(feed @ mean, feed @ cov @ feed.T, validate=False)
    return _report(params, pair, output, (params.g_x, params.g_p), "analytic")


def teleport_mc(
    params: TeleporterParams, shots: int, rng: np.random.Generator | None = None
) -> TeleportReport:
    """Empirical output moments from simulated measure-and-displace shots.

    State preparation is deterministic, so it is computed once.  Per shot
    the sender outcome u, then v given u, then the receiver mode given both
    are drawn through the lower Cholesky factor of their joint covariance,
    and the receiver mode is displaced by the feed-forward.  Shots are
    processed in chunks with independently spawned sub-streams.  If `rng` is
    given it replaces the seed-derived streams.
    """
    if shots < 2:
        raise ValueError("shots must be >= 2")
    pair, mean, cov, feed = _readout(params)
    center = feed @ mean
    # jitter guards exactly-pure corner cases
    factor = feed @ np.linalg.cholesky(cov + 1e-14 * np.eye(4))

    seeds = np.random.SeedSequence(params.seed).spawn(
        (shots + _MC_CHUNK - 1) // _MC_CHUNK
    )
    samples = np.empty((shots, 2))
    done = 0
    for seq in seeds:
        n = min(_MC_CHUNK, shots - done)
        gen = rng if rng is not None else np.random.default_rng(seq)
        z = gen.standard_normal(4 * n)  # n for u, n for v, then (x_B, p_B) pairs
        draws = np.column_stack((z[:n], z[n : 2 * n], z[2 * n :].reshape(n, 2)))
        samples[done : done + n] = center + draws @ factor.T
        done += n

    emp_mean = samples.mean(axis=0)
    emp_cov = np.cov(samples.T)
    output = GaussianState(emp_mean, emp_cov, validate=False)

    gains = [params.g_x, params.g_p]
    for q in (0, 1):
        if abs(params.input_state.mean[q]) > 1e-9:
            gains[q] = float(emp_mean[q] / params.input_state.mean[q])
    return _report(params, pair, output, (gains[0], gains[1]), "monte_carlo", shots)


def coherent_fidelity(vx: float, vp: float) -> float:
    """Average teleportation fidelity over coherent inputs at unity gain.

    Depends only on the output variances: F = 2 / sqrt((1 + 4Vx)(1 + 4Vp)).
    Unit fidelity at vacuum variances, 1/2 at the no-entanglement floor
    Vx = Vp = 3/4.
    """
    if vx <= 0 or vp <= 0:
        raise ValueError("variances must be positive")
    return float(2.0 / np.sqrt((1.0 + 4.0 * vx) * (1.0 + 4.0 * vp)))


def output_variances_pure(r: float) -> tuple[float, float]:
    """Unity-gain output variances with three pure squeezers of parameter r
    (resource pair plus an x-squeezed input): (3/4) e^{-2r} in x and
    (e^{2r} + 2 e^{-2r})/4 in p."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return 0.75 * np.exp(-2.0 * r), (np.exp(2.0 * r) + 2.0 * np.exp(-2.0 * r)) / 4.0


def squeezing_threshold_db() -> float:
    """Squeezing needed before the output x variance drops below vacuum:
    e^{-2r} < 1/3, i.e. 10 log10(1/3) = -4.77 dB."""
    return float(10.0 * np.log10(1.0 / 3.0))


@dataclass(frozen=True)
class CascadeStage:
    stage: int
    fidelity: float
    vx: float
    vp: float


def cascade(params: TeleporterParams, n_stages: int) -> list[CascadeStage]:
    """Teleport a coherent input through n identical stages in series.

    Each stage receives the previous analytic output.  Fidelity is evaluated
    against the original coherent input, which at unity gain depends only on
    the accumulated variances; with pure resource squeezers of parameter r it
    follows 1 / (1 + n e^{-2r}).
    """
    if n_stages < 1:
        raise ValueError("n_stages must be >= 1")
    if not _coherent_input(params):
        raise ValueError("cascade is defined for a coherent input")
    if not (params.g_x == params.g_p == 1.0):
        raise ValueError("cascade fidelity is defined at unity gain")
    stages = []
    current = params
    for k in range(1, n_stages + 1):
        report = teleport_analytic(current)
        stages.append(
            CascadeStage(k, coherent_fidelity(report.vx, report.vp), report.vx, report.vp)
        )
        current = replace(current, input_state=report.output_state)
    return stages


def measure_gains(params: TeleporterParams) -> tuple[float, float]:
    """Realized mean-transfer gains (x, p), read off the output mean of a
    coherent probe with amplitude 1 + 1j teleported through ``params``."""
    probe = replace(params, input_state=coherent_state(1 + 1j))
    out = teleport_analytic(probe).output_state
    return float(out.mean[0]), float(out.mean[1])
