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

Two derivations
---------------
The analytic path is the Heisenberg picture of this network.  Every squeezer
and every loss acts along x or p, so x_out and p_out are each a weighted sum
of independent sources: the input quadrature times its gain, the two
squeezed modes after their source losses, and the vacuum ancillas of the two
beam losses and the two detector losses.  `_source_map` writes the noise
these add in closed form, at one point, with plain arithmetic on floats.
With X the x-squeezed mode (squeezer 2) and P the p-squeezed mode
(squeezer 1) at the mixer, A = (X + P)/sqrt(2) and B = (P - X)/sqrt(2)
before the beam losses eta_A = eta_prop[0], eta_B = eta_prop[1], and

    Var(q_B + c q_A) = [(c sqrt(eta_A) - sqrt(eta_B))^2 Var(q_X)
                        + (c sqrt(eta_A) + sqrt(eta_B))^2 Var(q_P)] / 2
                       + [(1 - eta_B) + c^2 (1 - eta_A)] / 4

for q = x or p, where Var(q_S) = eta_S V_S + (1 - eta_S)/4 for a squeezer
of variance V_S in q behind a source loss eta_S.  The output noise is
N_x = Var(x_B - g_x x_A) + g_x^2 D and N_p = Var(p_B + g_p p_A) + g_p^2 D,
with the detector term D = (1 - eta_hom) / (2 eta_hom); the EPR correlation
variances are Var(x_A - x_B) and Var(p_A + p_B), the same sums at c = -1
and c = +1; the map returns these four numbers.  With lossless beams
(eta_A = eta_B = 1) the anti-squeezed quadratures drop out of both: x of P
weighs (c + 1)^2 = 0 at c = -1 and p of X weighs (c - 1)^2 = 0 at c = +1.  So the loss calibration
(`harness.calibrate_losses`) reads the correlations off this map, whatever
the anti-squeezed levels.

The Monte Carlo path, and only it, samples the Schroedinger picture:
`make_epr` runs the gates (squeezers, source losses, the mixer, beam losses)
as `gaussian`'s kernels on the moments held as Python-float lists and builds
one state, the beam pair; `_readout` mixes it with the input by the same
kernels and gives the moments of the sender's outcomes u, v and the
receiver's beam B; and a shot of (u, v, B) is their mean plus their lower
Cholesky factor times a standard normal 4-vector, i.e. drawn in measurement
order (u, then v given u, then B given both).  The feed-forward
x_out = x_B + c_x u, p_out = p_B + c_p v with c = g sqrt(2 / eta_hom) is
linear, so only the sample mean and covariance of the standard normals are
drawn, from their exact joint law, and mapped to the output's.  The Cholesky
factor, the feed-forward products and the drawn covariance's L L^T are
unrolled sums of Python floats in a fixed order, as the gates are, so no
BLAS or LAPACK kernel rounds the moments and they are the same on every
host.  The source map calls no Gaussian operation, so comparing the two
paths checks the state preparation (squeezers, mixers, losses) as well as
the sampling, the feed-forward and the estimation of moments and gains.

Records: TeleporterParams, whose constructor checks and normalizes its
fields, is a slotted `gaussian._Record`; TeleportReport, EprCorrelations and
CascadeStage check nothing and are named tuples.  Either derives a changed
copy by ``_replace(...)``, through TeleporterParams' checks for it.  Which
constructor checks: TeleporterParams checks every field, once, and the
paths trust what it checked; they build their states by `gaussian._own`,
which trusts its caller's moments (a completely positive map's of a checked
state), and `_report` checks only that the numbers it would hold are finite
and the output variances have levels in dB.  Their numbers are Python
floats, and so are the moments their states hold: each path reads its
input's held floats through `gaussian._moments` and builds its states from
float lists, so no array is built unless a caller reads a state's ``mean``
or ``cov``, and numpy is imported only for `teleport_mc`'s default
generator.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from cvteleport.gaussian import (
    GaussianState,
    PHYSICALITY_ATOL,
    PhysicsError,
    TWO_MODE_VACUUM_VARIANCE,
    VACUUM_VARIANCE,
    _Record,
    _as_finite,
    _as_float,
    _as_pair,
    _as_positive,
    _beamsplitter_moments,
    _level_db,
    _loss_moments,
    _moments,
    _own,
    _tensor_moments,
    check_count,
    check_fraction,
    check_noise_pair,
    variance_from_db,
)

if TYPE_CHECKING:
    import numpy as np


class TeleporterParams(_Record):
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
        seed: Monte Carlo seed of `teleport_mc`'s generator.

    Numbers are stored as Python floats, a pair as a tuple, so no caller's
    list is held; a value out of its class (`gaussian`) raises ValueError,
    and so does a pair that is not two values, None included: only
    epr_antisq_db may be None.  The first check that fails raises, in this
    order: input_state a GaussianState, then of one mode, g_x, g_p and
    eta_hom as numbers, g_x and g_p finite, the four pairs' shapes and
    values as numbers, then per squeezer its noise pair and its two
    efficiencies, then eta_hom and the seed.
    """

    __slots__ = ("input_state", "epr_sq_db", "epr_antisq_db", "g_x", "g_p",
                 "eta_source", "eta_prop", "eta_hom", "seed")

    def __init__(
        self,
        input_state: GaussianState,
        epr_sq_db: tuple[float, float] = (-6.0, -6.0),
        epr_antisq_db: tuple[float, float] | None = None,
        g_x: float = 1.0,
        g_p: float = 1.0,
        eta_source: tuple[float, float] = (1.0, 1.0),
        eta_prop: tuple[float, float] = (1.0, 1.0),
        eta_hom: float = 1.0,
        seed: int = 0,
    ):
        # each argument checked in a straight line, and each slot set once
        if not isinstance(input_state, GaussianState):
            raise ValueError(f"input_state must be a GaussianState, got {input_state!r}")
        if input_state.n_modes != 1:
            raise ValueError("input_state must be a single mode")
        if not (type(g_x) is type(g_p) is type(eta_hom) is float):
            g_x, g_p = _as_float(g_x, "g_x"), _as_float(g_p, "g_p")
            eta_hom = _as_float(eta_hom, "eta_hom")
        _as_finite(g_x, "g_x"), _as_finite(g_p, "g_p")
        sq, anti = _as_pair(epr_sq_db, "epr_sq_db"), epr_antisq_db
        anti = (-sq[0], -sq[1]) if anti is None else _as_pair(anti, "epr_antisq_db")
        source, prop = _as_pair(eta_source, "eta_source"), _as_pair(eta_prop, "eta_prop")
        check_noise_pair(sq[0], anti[0], "squeezer 1")
        check_fraction(source[0], "eta_source[0]")
        check_fraction(prop[0], "eta_prop[0]")
        check_noise_pair(sq[1], anti[1], "squeezer 2")
        check_fraction(source[1], "eta_source[1]")
        check_fraction(prop[1], "eta_prop[1]")
        check_fraction(eta_hom, "eta_hom")
        if eta_hom < 1e-6:
            floor = ValueError("eta_hom too small to compensate electronically")
            floor.config_fields = ("eta_hom",)  # the key a config reader reports it at
            raise floor
        _SET_INPUT_STATE(self, input_state)
        _SET_EPR_SQ_DB(self, sq)
        _SET_EPR_ANTISQ_DB(self, anti)
        _SET_G_X(self, g_x)
        _SET_G_P(self, g_p)
        _SET_ETA_SOURCE(self, source)
        _SET_ETA_PROP(self, prop)
        _SET_ETA_HOM(self, eta_hom)
        _SET_SEED(self, check_count(seed, "seed"))


# the slots' setters, which __init__ calls without a name lookup
(_SET_INPUT_STATE, _SET_EPR_SQ_DB, _SET_EPR_ANTISQ_DB, _SET_G_X, _SET_G_P, _SET_ETA_SOURCE,
 _SET_ETA_PROP, _SET_ETA_HOM, _SET_SEED) = [
    getattr(TeleporterParams, name).__set__ for name in TeleporterParams.__slots__]


class EprCorrelations(NamedTuple):
    var_x_diff: float
    var_p_sum: float
    x_diff_db: float
    p_sum_db: float


class TeleportReport(NamedTuple):
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

    Squeezer 1 (p-squeezed: the x-squeezed state after an exact quarter
    turn) sets Var(p_A + p_B); squeezer 2 (x-squeezed) sets Var(x_A - x_B).
    Source losses act before the mixer, beam losses after.  The gates run as
    `gaussian`'s kernels on the moments of params, which its constructor
    checked, and build one state.
    """
    (sq_1, sq_2), (anti_1, anti_2) = params.epr_sq_db, params.epr_antisq_db
    p_squeezed = [[variance_from_db(anti_1, VACUUM_VARIANCE), 0.0],
                  [0.0, variance_from_db(sq_1, VACUUM_VARIANCE)]]
    x_squeezed = [[variance_from_db(sq_2, VACUUM_VARIANCE), 0.0],
                  [0.0, variance_from_db(anti_2, VACUUM_VARIANCE)]]
    sq_p = _loss_moments([0.0, 0.0], p_squeezed, 0, params.eta_source[0])
    sq_x = _loss_moments([0.0, 0.0], x_squeezed, 0, params.eta_source[1])
    mean, cov = _beamsplitter_moments(*_tensor_moments(sq_x, sq_p), 0, 1, 0.5)
    mean, cov = _loss_moments(mean, cov, 0, params.eta_prop[0])
    mean, cov = _loss_moments(mean, cov, 1, params.eta_prop[1])
    return _own(mean, cov)


def epr_correlations(pair: GaussianState) -> EprCorrelations:
    """Correlation variances of a beam pair, in absolute units and in dB
    relative to the two-mode vacuum level 1/2."""
    if pair.n_modes != 2:
        raise ValueError("epr_correlations requires a two-mode state")
    # Var(x_A - x_B) and Var(p_A + p_B), summed as v @ cov @ v sums them
    (c00, _, c02, _), (_, c11, _, c13), (c20, _, c22, _), (_, c31, _, c33) = _moments(pair)[1]
    return _correlations((c00 - c20) - (c02 - c22), (c11 + c31) + (c13 + c33))


def _correlations(var_x_diff: float, var_p_sum: float) -> EprCorrelations:
    """The correlations of two variances, which are results, not input:
    raises PhysicsError when one has no finite level in dB."""
    try:
        x_db = _level_db(var_x_diff, TWO_MODE_VACUUM_VARIANCE)
        p_db = _level_db(var_p_sum, TWO_MODE_VACUUM_VARIANCE)
    except ValueError as exc:
        raise PhysicsError(f"EPR correlations: {exc}") from None
    return EprCorrelations(var_x_diff, var_p_sum, x_db, p_db)


def _readout(
    params: TeleporterParams,
) -> tuple[GaussianState, list[float], list[list[float]], tuple[float, float]]:
    """The linear read-out the output is made of.

    Returns the beam pair; the mean and the covariance (a list of rows) of
    (u, v, x_B, p_B) after the sender's mixer and detector losses, as Python
    floats; and the feed-forward gains (c_x, c_p), with x_out = x_B + c_x u
    and p_out = p_B + c_p v.  The u port carries (x_in - x_A)/sqrt(2) in x,
    the v port (p_in + p_A)/sqrt(2) in p.
    """
    pair = make_epr(params)
    moments = _tensor_moments(_moments(params.input_state), _moments(pair))  # new lists
    mean, cov = _beamsplitter_moments(*moments, 1, 0, 0.5)
    if params.eta_hom < 1.0:
        mean, cov = _loss_moments(mean, cov, 0, params.eta_hom)
        mean, cov = _loss_moments(mean, cov, 1, params.eta_hom)
    # x of the u port, p of the v port, x_B and p_B
    read = (0, 3, 4, 5)
    scale = math.sqrt(2.0 / params.eta_hom)  # a huge gain times it is inf
    return (pair, [mean[k] for k in read], [[cov[k][m] for m in read] for k in read],
            (params.g_x * scale, params.g_p * scale))


def _source_map(sq_db, antisq_db, g_x, g_p, eta_source, eta_prop, eta_hom):
    """The noise the network adds and its EPR correlations, in closed form.

    Heisenberg-picture propagation of the network (module docstring) at one
    point, on Python floats: the pairs are indexed [0], [1] in the order of
    `TeleporterParams`.  Returns (N_x, N_p, Var(x_A - x_B), Var(p_A + p_B));
    the output is the gains times the input plus (N_x, N_p).  The roots are
    math.sqrt's and each square is a product (a float's ** 2 is libm's pow,
    at times an ulp off).  A huge gain or level overflows to inf or nan
    without an exception; the report (`_report`), the calibration or the
    JSON writer rejects it.
    """
    # x and p of the x-squeezed mode X (squeezer 2) and of the p-squeezed
    # mode P (squeezer 1, whose anti-squeezed quadrature is x)
    x_of_x, p_of_x = _at_mixer(sq_db[1], eta_source[1]), _at_mixer(antisq_db[1], eta_source[1])
    x_of_p, p_of_p = _at_mixer(antisq_db[0], eta_source[0]), _at_mixer(sq_db[0], eta_source[0])
    eta_a, eta_b = eta_prop
    root_a, root_b = math.sqrt(eta_a), math.sqrt(eta_b)
    detector = 2.0 * VACUUM_VARIANCE * (1.0 - eta_hom) / eta_hom
    noise_x = _beams(-g_x, x_of_x, x_of_p, root_a, root_b, eta_a, eta_b) + g_x * g_x * detector
    noise_p = _beams(g_p, p_of_x, p_of_p, root_a, root_b, eta_a, eta_b) + g_p * g_p * detector
    return (noise_x, noise_p, _beams(-1.0, x_of_x, x_of_p, root_a, root_b, eta_a, eta_b),
            _beams(1.0, p_of_x, p_of_p, root_a, root_b, eta_a, eta_b))


# `_source_map`'s two terms, module functions rather than closures built per call

def _at_mixer(level_db, eta):
    """One quadrature's variance of a squeezer at level_db behind its source loss eta."""
    return eta * VACUUM_VARIANCE * 10.0 ** (level_db / 10.0) + (1.0 - eta) * VACUUM_VARIANCE


def _beams(c, var_x_mode, var_p_mode, root_a, root_b, eta_a, eta_b):
    """Var(q_B + c q_A) for one quadrature q, given Var(q) of X and of P, the
    beam transmittances eta_a, eta_b and their roots."""
    minus, plus = c * root_a - root_b, c * root_a + root_b
    lost = VACUUM_VARIANCE * ((1.0 - eta_b) + c * c * (1.0 - eta_a))
    return 0.5 * (minus * minus * var_x_mode + plus * plus * var_p_mode) + lost


def _report(
    params: TeleporterParams,
    epr: EprCorrelations,
    mean: list[float],
    cov: list[float],
    gains: tuple[float, float],
    method: str,
    shots: int | None = None,
) -> TeleportReport:
    """The report of one run, from the output mean [m_x, m_p] and covariance
    [C_xx, C_xp, C_px, C_pp] as Python floats, of which it builds the output
    state; raises PhysicsError when a number it would hold is not finite,
    before any of it is printed or written."""
    (m_x, m_p), (vx, c_xp, c_px, vp), (e_0, e_1, e_2, e_3), (g_x, g_p) = mean, cov, epr, gains
    # an inf or a nan makes the sum non-finite; so may finite values that
    # overflow it, which the loop then passes
    if not math.isfinite(m_x + m_p + vx + c_xp + c_px + vp + e_0 + e_1 + e_2 + e_3 + g_x + g_p):
        for quantity, numbers in (
            ("output mean", mean),
            ("output covariance", cov),
            ("EPR correlations", epr),
            ("gains", gains),
        ):
            if not all(map(math.isfinite, numbers)):
                raise PhysicsError(f"teleporter {quantity} is not finite: {numbers}")
    try:
        vx_db, vp_db = _level_db(vx, VACUUM_VARIANCE), _level_db(vp, VACUUM_VARIANCE)
    except ValueError as exc:  # a finite variance whose ratio to vacuum overflows
        raise PhysicsError(f"teleporter output: {exc}") from None
    fidelity = None
    if params.g_x == params.g_p == 1.0 and _coherent_input(params):
        fidelity = coherent_fidelity(vx, vp)
    # in field order: a named tuple's keyword call costs about 1 us more
    return TeleportReport(
        _own(mean, [cov[:2], cov[2:]]), vx, vp, vx_db, vp_db, fidelity,
        vx / VACUUM_VARIANCE,  # sideband identity: delta_sq = Vx / (1/4) for a single mode
        epr, gains, method, shots,
    )


# np.allclose(cov, I/4, atol=1e-9) with its default rtol of 1e-5, per element
_DIAGONAL_TOL, _OFF_DIAGONAL_TOL = 1e-9 + 1e-5 * VACUUM_VARIANCE, 1e-9


def _coherent_input(params: TeleporterParams) -> bool:
    (cxx, cxp), (cpx, cpp) = _moments(params.input_state)[1]
    return (
        abs(cxx - VACUUM_VARIANCE) <= _DIAGONAL_TOL and abs(cpp - VACUUM_VARIANCE) <= _DIAGONAL_TOL
        and abs(cxp) <= _OFF_DIAGONAL_TOL and abs(cpx) <= _OFF_DIAGONAL_TOL
    )


def teleport_analytic(params: TeleporterParams) -> TeleportReport:
    """Exact output moments from the closed-form source map.

    The output is x_out = g_x x_in + (x_B - g_x x_A) + detector terms, and
    likewise for p, so non-unity gains weight the EPR beams individually
    rather than through their correlated combinations only.  The output mean
    is (g_x m_x, g_p m_p) and its covariance
    [[g_x^2 C_xx + N_x, g_x g_p C_xp], [g_x g_p C_px, g_p^2 C_pp + N_p]],
    with the input's moments m and C and the added noise

        N_x = [(g_x sqrt(eta_A) + sqrt(eta_B))^2 Vx_X
               + (g_x sqrt(eta_A) - sqrt(eta_B))^2 Vx_P] / 2
              + [(1 - eta_B) + g_x^2 (1 - eta_A)] / 4
              + g_x^2 (1 - eta_hom) / (2 eta_hom),

    and N_p the same with g_p, Vp_X and Vp_P and the two squares swapped,
    where eta_A, eta_B are the beam transmittances and Vq_X, Vq_P the
    variances of q in the x-squeezed (squeezer 2) and p-squeezed
    (squeezer 1) modes after their source losses.
    """
    g_x, g_p, state = params.g_x, params.g_p, params.input_state
    noise_x, noise_p, var_x_diff, var_p_sum = _source_map(
        params.epr_sq_db, params.epr_antisq_db, g_x, g_p,
        params.eta_source, params.eta_prop, params.eta_hom,
    )
    (mx, mp), ((cxx, cxp), (cpx, cpp)) = _moments(state)
    mean = [g_x * mx, g_p * mp]
    cov = [g_x * g_x * cxx + noise_x, g_x * g_p * cxp, g_x * g_p * cpx, g_p * g_p * cpp + noise_p]
    epr = _correlations(var_x_diff, var_p_sum)
    return _report(params, epr, mean, cov, (g_x, g_p), "analytic")


def _cholesky(cov: list[list[float]]) -> list[list[float]]:
    """Lower Cholesky factor, as rows of Python floats, of the 4 x 4 read-out
    covariance plus 1e-14 on each pivot, which guards exactly-pure corner
    cases; raises PhysicsError at a pivot that is not > 0 (NaN included)."""
    (a00, _, _, _), (a10, a11, _, _), (a20, a21, a22, _), (a30, a31, a32, a33) = cov
    l00 = _pivot_root(a00 + 1e-14)
    l10, l20, l30 = a10 / l00, a20 / l00, a30 / l00
    l11 = _pivot_root(a11 + 1e-14 - l10 * l10)
    l21, l31 = (a21 - l20 * l10) / l11, (a31 - l30 * l10) / l11
    l22 = _pivot_root(a22 + 1e-14 - l20 * l20 - l21 * l21)
    l32 = (a32 - l30 * l20 - l31 * l21) / l22
    l33 = _pivot_root(a33 + 1e-14 - l30 * l30 - l31 * l31 - l32 * l32)
    return [[l00, 0.0, 0.0, 0.0], [l10, l11, 0.0, 0.0], [l20, l21, l22, 0.0],
            [l30, l31, l32, l33]]


def _pivot_root(pivot: float) -> float:
    if not pivot > 0.0:
        raise PhysicsError(
            "Monte Carlo read-out covariance of (u, v, x_B, p_B) has no Cholesky "
            "factor: it is not positive definite in double precision"
        )
    return math.sqrt(pivot)


def _dot(a: list[float], b: list[float]) -> float:
    """a . b of two 4-vectors, summed left to right: sum() sums floats with
    compensation from Python 3.12 on."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3


def _standard_moments(
    shots: int, rng: np.random.Generator
) -> tuple[list[float], list[list[float]]]:
    """Sample mean and covariance (ddof 1, a list of rows) of ``shots``
    i.i.d. standard normal 4-vectors, drawn from their exact joint law
    instead of shot by shot, as Python floats.

    The mean is N(0, I / shots).  Independently of it, (shots - 1) times the
    covariance is Wishart(shots - 1, I), drawn as L L^T (Bartlett, Proc. R.
    Soc. Edinb. 53, 260 (1933)): L is lower triangular with
    L_ii^2 ~ chi^2(shots - 1 - i) and N(0, 1) below the diagonal, and below
    5 shots only its first shots - 1 columns are kept (rank shots - 1).
    """
    root = math.sqrt(shots)
    mean = [z / root for z in rng.standard_normal(4).tolist()]
    # chi^2(k) = 2 Gamma(k / 2), which is 0 at k = 0.  The four scalar gamma draws
    # are one array draw's stream without its array checks.
    half_dof = [max(shots - 1 - i, 0) / 2.0 for i in range(4)]
    d0, d1, d2, d3 = (math.sqrt(2.0 * rng.standard_gamma(k)) for k in half_dof)
    b0, b1, b2, b3, b4, b5 = rng.standard_normal(6).tolist()
    lower = [[d0, 0.0, 0.0, 0.0], [b0, d1, 0.0, 0.0], [b1, b2, d2, 0.0], [b3, b4, b5, d3]]
    if shots < 5:
        for row in lower:
            row[shots - 1 :] = [0.0] * (5 - shots)
    # L L^T: products of two rows, in the same order for (i, j) and (j, i)
    cov = [[_dot(row, other) / (shots - 1) for other in lower] for row in lower]
    return mean, cov


def teleport_mc(
    params: TeleporterParams, shots: int, rng: np.random.Generator | None = None
) -> TeleportReport:
    """Empirical output moments from simulated measure-and-displace shots.

    State preparation is deterministic, so it is computed once.  The output
    is linear in each shot's standard normal draws (module docstring), so
    its sample mean and covariance (ddof 1) follow from theirs, which
    `_standard_moments` draws in O(1) time and memory whatever the shot
    count.  ``rng`` defaults to ``default_rng(params.seed)``.  Raises
    PhysicsError when the read-out covariance has no Cholesky factor, and
    when the output's sample covariance is not a state's (`_sample_state`):
    at 2 shots it never is, having rank 1, and with few shots or near a pure
    output the sampling error often dips it below vacuum (a coherent input
    through a pure -6 dB resource is refused at 3 of 4 seeds at 3 shots,
    1 of 2 at 5 and 1 of 4 at 10); its fidelity could then exceed 1.
    """
    shots = check_count(shots, "shots", 2)
    pair, (u, v, x_b, p_b), cov, (c_x, c_p) = _readout(params)
    root_u, root_v, root_x, root_p = _cholesky(cov)

    if rng is None:
        import numpy as np
        rng = np.random.default_rng(params.seed)
    z_mean, z_cov = _standard_moments(shots, rng)
    # (x_out, p_out) = (x_B + c_x u, p_B + c_p v) with (u, v, x_B, p_B) =
    # mean + L z, so the output's sample moments are the read-out's feed rows
    # f (of F L) applied to z's: f . z_mean and f z_cov f^T.  On Python
    # floats a huge gain overflows to inf or nan silently; _report rejects it.
    f_x = [c_x * a + b for a, b in zip(root_u, root_x)]
    f_p = [c_p * a + b for a, b in zip(root_v, root_p)]
    emp_mean = [c_x * u + x_b + _dot(f_x, z_mean), c_p * v + p_b + _dot(f_p, z_mean)]
    g_x = [_dot(f_x, row) for row in z_cov]  # f z_cov: z_cov is exactly symmetric
    g_p = [_dot(f_p, row) for row in z_cov]
    cross = 0.5 * (_dot(g_x, f_p) + _dot(g_p, f_x))

    gains = [params.g_x, params.g_p]
    input_mean = _moments(params.input_state)[0]
    for q in (0, 1):
        if abs(input_mean[q]) > 1e-9:
            gains[q] = emp_mean[q] / input_mean[q]
    emp_cov = [_dot(g_x, f_x), cross, cross, _dot(g_p, f_p)]
    report = _report(params, epr_correlations(pair), emp_mean, emp_cov,
                     (gains[0], gains[1]), "monte_carlo", shots)
    _sample_state(emp_cov, shots)  # after _report, which rejects a value that is not finite
    return report


def _sample_state(cov: list[float], shots: int) -> None:
    """Raise PhysicsError unless the sample covariance [C_xx, C_xp, C_px, C_pp]
    of ``shots`` shots is a one-mode state's: C_xx > 0 and
    sqrt(C_xx C_pp - C_xp C_px) >= 1/4 - PHYSICALITY_ATOL, the bona fide
    condition in closed form, on Python floats.  Where both products
    overflow, the entries are scaled by 2^-600 first, and the root back,
    exactly for all but subnormal results."""
    cxx, cxp, cpx, cpp = cov
    scale = 1.0
    det = cxx * cpp - cxp * cpx
    if math.isnan(det):  # inf - inf
        scale = 2.0 ** -600
        det = (cxx * scale) * (cpp * scale) - (cxp * scale) * (cpx * scale)
    root = math.sqrt(det) / scale if det >= 0.0 else math.nan  # nan: no real root
    if not (cxx > 0.0 and root >= VACUUM_VARIANCE - PHYSICALITY_ATOL):
        raise PhysicsError(
            f"Monte Carlo output covariance of {shots} shots is not a state's: "
            f"C_xx = {cxx:.6g} and sqrt(C_xx C_pp - C_xp C_px) = {root:.6g}, where a state "
            "has C_xx > 0 and the root >= 1/4; more shots shrink the sampling error"
        )


def coherent_fidelity(vx: float, vp: float) -> float:
    """Average teleportation fidelity over coherent inputs at unity gain.

    Depends only on the output variances: F = 2 / sqrt((1 + 4Vx)(1 + 4Vp)).
    Unit fidelity at vacuum variances, 1/2 at the no-entanglement floor
    Vx = Vp = 3/4.
    """
    vx, vp = _as_positive(vx, "vx"), _as_positive(vp, "vp")
    return 2.0 / math.sqrt((1.0 + 4.0 * vx) * (1.0 + 4.0 * vp))


def output_variances_pure(r: float) -> tuple[float, float]:
    """Unity-gain output variances with three pure squeezers of parameter r
    (resource pair plus an x-squeezed input): (3/4) e^{-2r} in x and
    (e^{2r} + 2 e^{-2r})/4 in p."""
    if not _as_float(r, "r") >= 0:
        raise ValueError("r must be >= 0")
    r = _as_finite(r, "r")  # nor +inf, whose p variance is inf
    try:
        grow = math.exp(2.0 * r)
    except OverflowError:  # from r = 354.9 on
        raise ValueError(f"r {r} overflows a float variance") from None
    shrink = math.exp(-2.0 * r)
    return 0.75 * shrink, (grow + 2.0 * shrink) / 4.0


def squeezing_threshold_db() -> float:
    """Squeezing needed before the output x variance drops below vacuum:
    e^{-2r} < 1/3, i.e. 10 log10(1/3) = -4.77 dB, taken as -10 log10(3),
    the double nearest to it."""
    return -10.0 * math.log10(3.0)


class CascadeStage(NamedTuple):
    stage: int
    fidelity: float
    vx: float
    vp: float


def cascade(params: TeleporterParams, n_stages: int) -> list[CascadeStage]:
    """Teleport a coherent input through n identical stages in series.

    Each stage receives the previous output.  At unity gain a stage keeps
    the mean and adds the same noise (N_x, N_p) of `teleport_analytic`
    whatever its input, so stage k has the input's variances plus
    k (N_x, N_p), read once off the source map.  Fidelity is evaluated
    against the original coherent input, which at unity gain depends only
    on the accumulated variances; with pure resource squeezers of parameter
    r it follows 1 / (1 + n e^{-2r}).
    """
    n_stages = check_count(n_stages, "n_stages", 1)
    if not _coherent_input(params):
        raise ValueError("cascade is defined for a coherent input")
    if not (params.g_x == params.g_p == 1.0):
        raise ValueError("cascade fidelity is defined at unity gain")
    noise_x, noise_p, _, _ = _source_map(
        params.epr_sq_db, params.epr_antisq_db, params.g_x, params.g_p,
        params.eta_source, params.eta_prop, params.eta_hom,
    )
    (cxx, _), (_, cpp) = _moments(params.input_state)[1]
    last = (cxx + n_stages * noise_x, cpp + n_stages * noise_p)  # the largest: noise >= 0
    if not all(map(math.isfinite, last)):
        raise PhysicsError(f"cascade variances are not finite at stage {n_stages}: {last}")
    stages = []
    for k in range(1, n_stages + 1):
        vx, vp = cxx + k * noise_x, cpp + k * noise_p
        stages.append(CascadeStage(k, coherent_fidelity(vx, vp), vx, vp))
    return stages
