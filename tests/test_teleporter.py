"""Tests for the teleporter: resource preparation, the measure-and-displace
protocol, the analytic network propagation, and the Monte Carlo cross-check.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import assert_owns_its_arrays, assert_same_two_moments, random_physical_state
from hypothesis import given, settings
from hypothesis import strategies as st

from cvteleport import (
    GaussianState,
    PhysicsError,
    coherent_state,
    impure_squeezed_vacuum,
    rotate,
    symplectic_eigenvalues,
    vacuum,
)
from cvteleport import gaussian, teleporter, tomography
from cvteleport.gaussian import VACUUM_VARIANCE
from cvteleport.harness import MAX_SAMPLES, calibrate_losses
from cvteleport.teleporter import (
    TeleporterParams,
    cascade,
    coherent_fidelity,
    epr_correlations,
    make_epr,
    output_variances_pure,
    squeezing_threshold_db,
    teleport_analytic,
    teleport_mc,
)

ATOL = 1e-12
R_6DB = 0.3 * np.log(10)  # exp(-2r) = 10^-0.6


def coherent_params(**kwargs) -> TeleporterParams:
    return TeleporterParams(input_state=coherent_state(3.5 + 0j), **kwargs)


def test_make_epr_unsqueezed_gives_two_mode_vacuum_level():
    pair = make_epr(coherent_params(epr_sq_db=(0.0, 0.0)))
    corr = epr_correlations(pair)
    assert corr.var_x_diff == pytest.approx(0.5, abs=ATOL)
    assert corr.var_p_sum == pytest.approx(0.5, abs=ATOL)


def test_make_epr_pure_6db_correlations():
    corr = epr_correlations(make_epr(coherent_params()))
    assert corr.x_diff_db == pytest.approx(-6.0, abs=1e-10)
    assert corr.p_sum_db == pytest.approx(-6.0, abs=1e-10)
    assert corr.var_x_diff == pytest.approx(0.5 * 10 ** -0.6, abs=ATOL)


def test_make_epr_source_and_beam_loss_placements_agree():
    # equal loss on both beams commutes with the balanced mixer, so it can be
    # attributed to the squeezer paths instead
    before = make_epr(coherent_params(eta_source=(0.9, 0.9)))
    after = make_epr(coherent_params(eta_prop=(0.9, 0.9)))
    assert np.allclose(before.cov, after.cov, atol=ATOL)


def test_make_epr_each_squeezer_controls_one_combination():
    base = epr_correlations(make_epr(coherent_params()))
    damped_p = epr_correlations(make_epr(coherent_params(eta_source=(0.8, 1.0))))
    assert damped_p.var_x_diff == pytest.approx(base.var_x_diff, abs=ATOL)
    assert damped_p.var_p_sum > base.var_p_sum
    damped_x = epr_correlations(make_epr(coherent_params(eta_source=(1.0, 0.8))))
    assert damped_x.var_p_sum == pytest.approx(base.var_p_sum, abs=ATOL)
    assert damped_x.var_x_diff > base.var_x_diff


def test_make_epr_keeps_x_and_p_uncorrelated():
    # every squeezer, mixer and loss acts along x or p
    pair = make_epr(
        coherent_params(
            epr_sq_db=(-9.0, -7.5), epr_antisq_db=(20.0, 15.0),
            eta_source=(0.9, 0.8), eta_prop=(0.97, 0.93),
        )
    )
    assert np.all(pair.cov[np.ix_([0, 2], [1, 3])] == 0.0)
    assert np.all(pair.cov[np.ix_([1, 3], [0, 2])] == 0.0)


def test_epr_pair_is_physical_and_entangled_only_when_squeezed():
    pair = make_epr(coherent_params(eta_source=(0.9, 0.95), eta_prop=(0.98, 0.97)))
    assert symplectic_eigenvalues(pair.cov).min() >= 0.25 - 1e-9
    corr = epr_correlations(pair)
    assert corr.var_x_diff < 0.5 and corr.var_p_sum < 0.5


def test_near_ideal_resource_reproduces_input_mean():
    # exp(-2r) = 1e-6, i.e. -60 dB resource squeezing
    params = TeleporterParams(
        input_state=coherent_state(1.4 - 0.7j), epr_sq_db=(-60.0, -60.0), seed=5
    )
    report = teleport_mc(params, 100_000)
    assert np.all(np.abs(report.output_state.mean - [1.4, -0.7]) < 1e-2)
    exact = teleport_analytic(params)
    assert np.allclose(exact.output_state.mean, [1.4, -0.7], atol=ATOL)
    assert abs(exact.vx - 0.25) < 1e-6
    assert abs(exact.vp - 0.25) < 1e-6


def test_classical_boundary_without_entanglement():
    report = teleport_analytic(coherent_params(epr_sq_db=(0.0, 0.0)))
    assert report.vx == pytest.approx(0.75, abs=1e-10)
    assert report.vp == pytest.approx(0.75, abs=1e-10)
    assert report.fidelity_coherent == pytest.approx(0.5, abs=1e-10)
    mc = teleport_mc(coherent_params(epr_sq_db=(0.0, 0.0), seed=3), 100_000)
    assert abs(mc.vx - 0.75) < 5 * 0.75 * np.sqrt(2.0 / 99_999)


@pytest.mark.parametrize("r", [0.0, 0.1, 0.35, R_6DB, 0.9, 1.4])
def test_three_pure_squeezers_match_closed_form(r):
    db = 10.0 * np.log10(np.exp(-2.0 * r))
    params = TeleporterParams(
        input_state=impure_squeezed_vacuum(db, -db), epr_sq_db=(db, db)
    )
    report = teleport_analytic(params)
    vx_expected, vp_expected = output_variances_pure(r)
    assert report.vx == pytest.approx(vx_expected, abs=1e-10)
    assert report.vp == pytest.approx(vp_expected, abs=1e-10)


def test_output_x_variance_hits_vacuum_at_threshold():
    db = 10.0 * np.log10(1.0 / 3.0)
    params = TeleporterParams(
        input_state=impure_squeezed_vacuum(db, -db), epr_sq_db=(db, db)
    )
    assert teleport_analytic(params).vx == pytest.approx(0.25, abs=1e-10)
    assert squeezing_threshold_db() == pytest.approx(-4.771212547196624, abs=1e-12)


def test_unity_gain_adds_exactly_the_epr_combination_noise(rng):
    # cov_out = cov_in + cov of (-(x_A - x_B), p_A + p_B), for any input and
    # any resource impurity or loss, when the sender detectors are ideal
    inputs = [
        coherent_state(0.3 + 2j),
        impure_squeezed_vacuum(-6.2, 12.0),
        rotate(impure_squeezed_vacuum(-4.0, 7.0), 0, 0.6),
    ]
    settings = [
        dict(epr_sq_db=(-6.2, -5.8), epr_antisq_db=(12.0, 9.0)),
        dict(epr_sq_db=(-3.0, -3.0), eta_source=(0.9, 0.8), eta_prop=(0.95, 0.9)),
    ]
    d_x = np.array([1.0, 0.0, -1.0, 0.0])
    s_p = np.array([0.0, 1.0, 0.0, 1.0])
    for state in inputs:
        for setting in settings:
            params = TeleporterParams(input_state=state, **setting)
            pair = make_epr(params)
            var_x = d_x @ pair.cov @ d_x
            var_p = s_p @ pair.cov @ s_p
            cross = d_x @ pair.cov @ s_p
            added = np.array([[var_x, -cross], [-cross, var_p]])
            out = teleport_analytic(params).output_state
            assert np.allclose(out.cov, state.cov + added, atol=ATOL)


def test_non_unity_gain_weights_the_beams_individually():
    # x_out = g x_in + (x_B - g x_A); with vacuum resource the added noise is
    # (1 + g^2)/4 per quadrature
    g = 0.5
    report = teleport_analytic(coherent_params(epr_sq_db=(0.0, 0.0), g_x=g, g_p=g))
    expected = g**2 * 0.25 + (1 + g**2) * 0.25
    assert report.vx == pytest.approx(expected, abs=1e-10)
    assert np.allclose(report.output_state.mean, [g * 3.5, 0.0], atol=ATOL)
    # anti-squeezing leaks in away from unity gain
    pure = teleport_analytic(coherent_params(g_x=g, g_p=g))
    impure = teleport_analytic(
        coherent_params(g_x=g, g_p=g, epr_antisq_db=(12.0, 12.0))
    )
    assert impure.vx > pure.vx + 1e-3


def test_detector_inefficiency_is_gain_compensated():
    eta = 0.98**2
    report = teleport_analytic(coherent_params(eta_hom=eta))
    assert np.allclose(report.output_state.mean, [3.5, 0.0], atol=1e-10)
    # the compensation injects (1 - eta)/(2 eta) of extra vacuum noise
    clean = teleport_analytic(coherent_params())
    penalty = (1 - eta) / (2 * eta)
    assert report.vx == pytest.approx(clean.vx + penalty, abs=1e-10)


def _assert_mc_matches_analytic_at_five_sigma(shots):
    params = TeleporterParams(
        input_state=coherent_state(1.5 + 0.5j),
        epr_sq_db=(-6.0, -6.0),
        g_x=0.5,
        g_p=1.0,
        eta_prop=(0.9, 0.9),
        eta_hom=0.9604,
        seed=11,
    )
    exact = teleport_analytic(params)
    mc = teleport_mc(params, shots)
    for emp, ref in ((mc.vx, exact.vx), (mc.vp, exact.vp)):
        assert abs(emp - ref) < 5 * ref * np.sqrt(2.0 / (shots - 1))
    sd_mean = np.sqrt(np.array([exact.vx, exact.vp]) / shots)
    assert np.all(np.abs(mc.output_state.mean - exact.output_state.mean) < 5 * sd_mean)
    cross_sd = np.sqrt(
        (exact.vx * exact.vp + exact.output_state.cov[0, 1] ** 2) / (shots - 1)
    )
    assert abs(mc.output_state.cov[0, 1] - exact.output_state.cov[0, 1]) < 5 * cross_sd


def test_mc_matches_analytic_at_five_sigma():
    _assert_mc_matches_analytic_at_five_sigma(100_000)


def test_mc_at_the_shot_bound_matches_analytic_at_five_sigma():
    _assert_mc_matches_analytic_at_five_sigma(MAX_SAMPLES)


def test_mc_is_deterministic_per_seed_and_reports_gains():
    params = coherent_params(seed=42)
    a = teleport_mc(params, 5000)
    b = teleport_mc(params, 5000)
    assert np.array_equal(a.output_state.mean, b.output_state.mean)
    assert np.array_equal(a.output_state.cov, b.output_state.cov)
    c = teleport_mc(replace(params, seed=43), 5000)
    assert not np.allclose(a.output_state.mean, c.output_state.mean, atol=1e-12)
    assert a.gains[0] == pytest.approx(1.0, abs=0.05)
    assert a.shots == 5000 and a.method == "monte_carlo"
    with pytest.raises(ValueError):
        teleport_mc(params, 1)


def test_measure_gains_matches_configuration():
    # realized gains away from unity, through lossy beams and detectors, as
    # teleport_mc measures them: a unit mean in each quadrature, so each gain
    # is read within 5 sigma
    probe = TeleporterParams(
        input_state=coherent_state(1 + 1j), g_x=0.5, g_p=1.1, eta_prop=(0.9, 0.9),
        eta_hom=0.9604, seed=42,
    )
    shots = 100_000
    sd = np.sqrt(np.diag(teleport_analytic(probe).output_state.cov) / shots)
    assert np.all(np.abs(np.subtract(teleport_mc(probe, shots).gains, (0.5, 1.1))) < 5 * sd)


def _per_shot_moments(center, factor, rng, trials, shots):
    """Reference for the Monte Carlo moments: per trial, ``shots`` shots kept
    one by one as center + z @ factor.T with standard normal z, and their
    sample mean and np.cov (ddof 1)."""
    samples = center + rng.standard_normal((trials, shots, factor.shape[1])) @ factor.T
    return samples.mean(axis=1), np.array([np.cov(trial.T) for trial in samples])


MOMENT_TRIALS = 2000
ESTIMATOR_TRIALS = 1000


def _ranks(covs) -> set[int]:
    # singular values above 1e-10 of the largest count: that is above the
    # rounding of a product of Cholesky factors with large anti-squeezed entries
    values = np.linalg.svd(np.asarray(covs), compute_uv=False)
    return set((values > 1e-10 * values[:, :1]).sum(axis=1).tolist())


@pytest.mark.parametrize("shots", [2, 3, 4, 5, 50])
def test_mc_moments_have_the_law_of_per_shot_samples(shots):
    # the drawn sample moments of the standard normals, and teleport_mc's
    # output moments, have the first two moments of every entry and the rank
    # of a per-shot rebuild over as many fixed seeds
    rebuild = np.random.default_rng(10_000 + shots)
    drawn = [teleporter._standard_moments(shots, np.random.default_rng(seed))
             for seed in range(MOMENT_TRIALS)]
    ref_mean, ref_cov = _per_shot_moments(np.zeros(4), np.eye(4), rebuild, MOMENT_TRIALS, shots)
    assert_same_two_moments([mean for mean, _ in drawn], ref_mean)
    assert_same_two_moments([cov for _, cov in drawn], ref_cov)
    assert _ranks([cov for _, cov in drawn]) == _ranks(ref_cov) == {min(shots - 1, 4)}

    tilted = rotate(impure_squeezed_vacuum(-4.0, 7.0), 0, 0.6)
    params = TeleporterParams(
        input_state=GaussianState([1.2, -0.7], tilted.cov),
        epr_antisq_db=(12.0, 11.0), g_x=0.9, g_p=1.1, eta_source=(0.95, 0.9),
        eta_prop=(0.97, 0.96), eta_hom=0.95, seed=5,
    )
    reports = [teleport_mc(params, shots, np.random.default_rng(seed))
               for seed in range(ESTIMATOR_TRIALS)]
    _, mean, cov, feed = teleporter._readout(params)
    factor = feed @ np.linalg.cholesky(cov + 1e-14 * np.eye(4))
    ref_mean, ref_cov = _per_shot_moments(feed @ mean, factor, rebuild, ESTIMATOR_TRIALS, shots)
    out_covs = np.array([r.output_state.cov for r in reports])
    assert_same_two_moments([r.output_state.mean for r in reports], ref_mean)
    assert_same_two_moments(out_covs, ref_cov)
    assert np.array_equal(out_covs[:, 0, 1], out_covs[:, 1, 0])
    assert _ranks(out_covs) == _ranks(ref_cov) == {min(shots - 1, 2)}


def _earlier_standard_moments(shots, rng):
    # _standard_moments' earlier form, a byte oracle: numpy arrays throughout
    mean = rng.standard_normal(4) / np.sqrt(shots)
    dof = np.maximum(shots - 1 - np.arange(4), 0)
    lower = np.diag(np.sqrt(2.0 * rng.standard_gamma(dof / 2.0)))
    lower[np.tril_indices(4, -1)] = rng.standard_normal(6)
    lower[:, shots - 1 :] = 0.0
    return mean, lower @ lower.T / (shots - 1)


@pytest.mark.parametrize("shots", [2, 3, 4, 5, 6, 200_000])
def test_standard_moments_match_their_earlier_form_byte_for_byte(shots):
    for seed in range(20):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        mean, cov = teleporter._standard_moments(shots, rng)
        oracle_mean, oracle_cov = _earlier_standard_moments(shots, oracle_rng)
        assert mean.tobytes() == oracle_mean.tobytes()
        assert cov.tobytes() == oracle_cov.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_epr_correlations_match_the_matrix_products_byte_for_byte(rng):
    x_diff, p_sum = np.array([1.0, 0.0, -1.0, 0.0]), np.array([0.0, 1.0, 0.0, 1.0])
    for _ in range(200):
        pair = random_physical_state(rng, 2)
        epr = epr_correlations(pair)
        assert epr.var_x_diff == float(x_diff @ pair.cov @ x_diff)
        assert epr.var_p_sum == float(p_sum @ pair.cov @ p_sum)


def test_report_fields_are_consistent():
    report = teleport_analytic(coherent_params(eta_prop=(0.95, 0.95)))
    assert report.vx == pytest.approx(report.output_state.cov[0, 0], abs=ATOL)
    assert 10 ** (report.vx_db / 10.0) * 0.25 == pytest.approx(report.vx, rel=1e-9)
    assert 0.0 < report.fidelity_coherent <= 1.0
    assert report.delta_sq_out == pytest.approx(4.0 * report.vx, abs=ATOL)
    assert report.method == "analytic" and report.shots is None
    squeezed = teleport_analytic(
        TeleporterParams(input_state=impure_squeezed_vacuum(-6.2, 12.0))
    )
    assert squeezed.fidelity_coherent is None
    nonunity = teleport_analytic(coherent_params(g_x=0.9))
    assert nonunity.fidelity_coherent is None


def test_coherent_fidelity_reference_points():
    assert coherent_fidelity(0.25, 0.25) == pytest.approx(1.0, abs=ATOL)
    assert coherent_fidelity(0.75, 0.75) == pytest.approx(0.5, abs=ATOL)
    vx = 0.25 * 10**0.20
    vp = 0.25 * 10**0.23
    assert coherent_fidelity(vx, vp) == pytest.approx(0.7573002709918975, abs=1e-12)
    assert coherent_fidelity(vx, vp) == pytest.approx(0.757, abs=0.005)
    for vx, vp, name in ((-0.1, 0.25, "vx"), (np.nan, 0.25, "vx"), (0.25, np.nan, "vp")):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
            coherent_fidelity(vx, vp)


def test_cascade_fidelity_sequence_and_preconditions():
    stages = cascade(coherent_params(), 4)
    expected = [1.0 / (1.0 + n * 10**-0.6) for n in range(1, 5)]
    assert [s.fidelity for s in stages] == pytest.approx(expected, abs=1e-10)
    assert [s.stage for s in stages] == [1, 2, 3, 4]
    assert stages[3].vx == pytest.approx(0.25 + 4 * 0.5 * 10**-0.6, abs=1e-10)
    with pytest.raises(ValueError):
        cascade(coherent_params(), 0)
    with pytest.raises(ValueError):
        cascade(TeleporterParams(input_state=impure_squeezed_vacuum(-6.0, 6.0)), 2)
    with pytest.raises(ValueError):
        cascade(coherent_params(g_x=0.9), 2)


@pytest.mark.parametrize(
    "diagonal, off_diagonal, coherent",
    [(0.0, 0.9e-9, True), (0.0, 1.1e-9, False), (2.4e-6, 0.0, True), (2.6e-6, 0.0, False)],
)
def test_coherent_input_tolerance_edges(diagonal, off_diagonal, coherent):
    # the tolerance of np.allclose(cov, I/4, atol=1e-9): 1e-9 + 1e-5 |I/4|
    cov = 0.25 * np.eye(2) + np.array([[diagonal, off_diagonal], [off_diagonal, diagonal]])
    params = TeleporterParams(input_state=GaussianState([1.0, -0.5], cov))
    assert (teleport_analytic(params).fidelity_coherent is not None) == coherent
    if coherent:
        assert len(cascade(params, 2)) == 2
    else:
        with pytest.raises(ValueError, match="coherent input"):
            cascade(params, 2)


# Elements at the edges of np.allclose(cov, I/4, atol=1e-9): each boundary,
# its neighbours one ulp away on either side, and the non-finite values.
def _edges(*boundaries):
    near = [np.nextafter(b, d) for b in boundaries for d in (-np.inf, np.inf)]
    return st.sampled_from([*boundaries, *near, np.nan, np.inf, -np.inf])


_DIAGONAL_TOL = 1e-9 + 1e-5 * 0.25
_DIAGONAL = st.one_of(
    _edges(0.25 + _DIAGONAL_TOL, 0.25 - _DIAGONAL_TOL, 0.25), st.floats(0.25 - 5e-6, 0.25 + 5e-6)
)
_OFF_DIAGONAL = st.one_of(_edges(1e-9, -1e-9, 0.0, -0.0), st.floats(-2e-9, 2e-9), st.floats())


@settings(max_examples=400, deadline=None)
@given(cov=st.tuples(_DIAGONAL, _OFF_DIAGONAL, _OFF_DIAGONAL, _DIAGONAL))
def test_coherent_input_equals_the_elementwise_numpy_check(cov):
    cov = np.array(cov).reshape(2, 2)
    vacuum_cov = 0.25 * np.eye(2)
    expected = bool(np.all(np.abs(cov - vacuum_cov) <= 1e-9 + 1e-5 * vacuum_cov))
    params = TeleporterParams(input_state=gaussian._own(np.zeros(2), cov))
    assert teleporter._coherent_input(params) is expected


def test_analytic_path_does_not_use_the_gaussian_chain(monkeypatch):
    def chain(*args, **kwargs):
        raise AssertionError("the Gaussian-state chain was called")

    monkeypatch.setattr(teleporter, "make_epr", chain)
    monkeypatch.setattr(teleporter, "_readout", chain)
    params = coherent_params(
        epr_antisq_db=(12.0, 11.0), g_x=0.9, eta_source=(0.95, 0.9), eta_prop=(0.97, 0.96),
        eta_hom=0.95,
    )
    report = teleport_analytic(params)
    assert report.vx > 0.25 and report.epr.var_x_diff < 0.5
    assert len(cascade(replace(params, g_x=1.0), 3)) == 3
    with pytest.raises(AssertionError, match="chain was called"):
        teleport_mc(params, 100)


def random_params(rng) -> TeleporterParams:
    """A random lossy, non-unity-gain point with a random physical input."""
    sq = rng.uniform(-10.0, 0.0, 2)
    return TeleporterParams(
        input_state=random_physical_state(rng, 1),
        epr_sq_db=tuple(sq.tolist()),
        epr_antisq_db=tuple((rng.uniform(0.0, 6.0, 2) - sq).tolist()),
        g_x=float(rng.uniform(0.5, 1.5)),
        g_p=float(rng.uniform(0.5, 1.5)),
        eta_source=tuple(rng.uniform(0.5, 1.0, 2).tolist()),
        eta_prop=tuple(rng.uniform(0.5, 1.0, 2).tolist()),
        eta_hom=float(rng.uniform(0.7, 1.0)),
    )


# The source map's earlier form, kept as a byte oracle: it took the input
# moments and returned the output's, and ran on numpy arrays as well.
@np.errstate(over="ignore", invalid="ignore")
def _earlier_source_map(mean, cov, sq_db, antisq_db, g_x, g_p, eta_source, eta_prop, eta_hom):
    def at_mixer(level_db, eta):
        return eta * VACUUM_VARIANCE * 10.0 ** (level_db / 10.0) + (1.0 - eta) * VACUUM_VARIANCE

    x_of_x, p_of_x = at_mixer(sq_db[1], eta_source[1]), at_mixer(antisq_db[1], eta_source[1])
    x_of_p, p_of_p = at_mixer(antisq_db[0], eta_source[0]), at_mixer(sq_db[0], eta_source[0])
    sqrt = math.sqrt if type(eta_prop[0]) is type(eta_prop[1]) is float else np.sqrt
    root_a, root_b = sqrt(eta_prop[0]), sqrt(eta_prop[1])

    def beams(c, var_x_mode, var_p_mode):
        minus, plus = c * root_a - root_b, c * root_a + root_b
        lost = VACUUM_VARIANCE * ((1.0 - eta_prop[1]) + c * c * (1.0 - eta_prop[0]))
        return 0.5 * (minus * minus * var_x_mode + plus * plus * var_p_mode) + lost

    detector = 2.0 * VACUUM_VARIANCE * (1.0 - eta_hom) / eta_hom
    noise_x = beams(-g_x, x_of_x, x_of_p) + g_x * g_x * detector
    noise_p = beams(g_p, p_of_x, p_of_p) + g_p * g_p * detector
    out_mean = np.array([g_x * mean[0], g_p * mean[1]])
    out_cov = np.array(
        [
            [g_x * g_x * cov[0][0] + noise_x, g_x * g_p * cov[0][1]],
            [g_x * g_p * cov[1][0], g_p * g_p * cov[1][1] + noise_p],
        ]
    )
    return out_mean, out_cov, beams(-1.0, x_of_x, x_of_p), beams(1.0, p_of_x, p_of_p)


def _bytes(*numbers) -> bytes:
    return np.array(numbers, dtype=float).tobytes()


def test_source_map_gives_the_noise_of_its_earlier_form_byte_for_byte(rng):
    # at random lossy, non-unity-gain points the earlier form's output for a
    # zero input is the added noise; a square taken as ** 2 (libm's pow, an
    # ulp off for about 1 in 1000 values) moves about 20 of these points
    n = 20000
    sq = rng.uniform(-10.0, 0.0, (n, 2))
    anti = rng.uniform(0.0, 6.0, (n, 2)) - sq
    gains, eta_hom = rng.uniform(0.5, 1.5, (n, 2)), rng.uniform(0.7, 1.0, n)
    eta_source, eta_prop = rng.uniform(0.5, 1.0, (n, 2)), rng.uniform(0.5, 1.0, (n, 2))
    for k in range(n):
        g_x, g_p = gains[k].tolist()
        args = (tuple(sq[k].tolist()), tuple(anti[k].tolist()), g_x, g_p,
                tuple(eta_source[k].tolist()), tuple(eta_prop[k].tolist()), float(eta_hom[k]))
        _, cov, var_x_diff, var_p_sum = _earlier_source_map(
            (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)), *args)
        assert _bytes(*teleporter._source_map(*args)) == _bytes(
            cov[0, 0], cov[1, 1], var_x_diff, var_p_sum)


def test_source_map_callers_give_the_bytes_of_its_earlier_form(rng):
    # teleport_analytic, cascade and calibrate_losses at random lossy,
    # non-unity-gain points
    for _ in range(1000):
        params = random_params(rng)
        state = params.input_state
        rest = (params.epr_sq_db, params.epr_antisq_db, params.g_x, params.g_p,
                params.eta_source, params.eta_prop, params.eta_hom)
        mean, cov, var_x_diff, var_p_sum = _earlier_source_map(
            state.mean.tolist(), state.cov.tolist(), *rest)
        report = teleport_analytic(params)
        assert report.output_state.mean.tobytes() == mean.tobytes()
        assert report.output_state.cov.tobytes() == cov.tobytes()
        assert _bytes(*report.epr) == _bytes(*teleporter._correlations(var_x_diff, var_p_sum))

        unity = replace(params, input_state=coherent_state(complex(*state.mean)), g_x=1.0, g_p=1.0)
        _, noise, _, _ = _earlier_source_map(np.zeros(2), np.zeros((2, 2)), *rest[:2], 1.0, 1.0,
                                             *rest[4:])
        start = unity.input_state.cov
        for stage in cascade(unity, 3):
            k = stage.stage
            vx, vp = start[0, 0] + k * noise[0, 0], start[1, 1] + k * noise[1, 1]
            fidelity = 2.0 / np.sqrt((1.0 + 4.0 * vx) * (1.0 + 4.0 * vp))
            assert _bytes(stage.vx, stage.vp, stage.fidelity) == _bytes(vx, vp, fidelity)

        source = tuple(rng.uniform(-10.0, -1.0, 2).tolist())
        target = tuple(rng.uniform(np.array(source[::-1]) + 0.05, -0.05).tolist())
        fit = calibrate_losses(target, source)
        *_, var_x_diff, var_p_sum = _earlier_source_map(
            (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)), source, (-source[0], -source[1]),
            1.0, 1.0, fit.eta_source, (1.0, 1.0), 1.0)
        achieved = teleporter._correlations(var_x_diff, var_p_sum)
        assert _bytes(fit.achieved_x_db, fit.achieved_p_db) == _bytes(
            achieved.x_diff_db, achieved.p_sum_db)


def test_outputs_own_read_only_float64_arrays(rng):
    for _ in range(20):
        params = random_params(rng)
        given = (params.input_state.mean, params.input_state.cov)
        assert_owns_its_arrays(teleport_analytic(params).output_state, *given)
        assert_owns_its_arrays(teleport_mc(params, 1000).output_state, *given)
    # float32 parameters are stored as Python floats: the output is float64
    f32 = np.float32
    narrow = replace(params, g_x=f32(0.9), g_p=f32(1.1), eta_source=(f32(0.9), f32(0.8)),
                     eta_prop=(f32(0.9), f32(0.95)), eta_hom=f32(0.9))
    assert_owns_its_arrays(teleport_analytic(narrow).output_state, *given)


def test_params_store_python_floats():
    # float32 and numpy float64 numbers give the output bytes of the same
    # values given as Python floats
    f32 = np.float32
    narrow = coherent_params(
        epr_sq_db=np.array([-6.2, -5.1]), epr_antisq_db=[f32(9.5), 8],
        g_x=f32(0.9), g_p=np.float64(1.1), eta_source=(f32(0.9), f32(0.8)),
        eta_prop=np.array([0.9, 0.95], dtype=f32), eta_hom=f32(0.9),
    )
    wide = coherent_params(
        epr_sq_db=(-6.2, -5.1), epr_antisq_db=(float(f32(9.5)), 8.0),
        g_x=float(f32(0.9)), g_p=1.1, eta_source=(float(f32(0.9)), float(f32(0.8))),
        eta_prop=(float(f32(0.9)), float(f32(0.95))), eta_hom=float(f32(0.9)),
    )
    for name in ("g_x", "g_p", "eta_hom"):
        assert type(getattr(narrow, name)) is float
    for name in ("epr_sq_db", "epr_antisq_db", "eta_source", "eta_prop"):
        pair = getattr(narrow, name)
        assert type(pair) is tuple and [type(v) for v in pair] == [float, float]
        assert pair == getattr(wide, name)
    for got, want in ((teleport_analytic(narrow), teleport_analytic(wide)),
                      (teleport_mc(narrow, 1000), teleport_mc(wide, 1000))):
        assert got.output_state.mean.tobytes() == want.output_state.mean.tobytes()
        assert got.output_state.cov.tobytes() == want.output_state.cov.tobytes()
    # floats, and tuples of them, are stored as given
    pair, gain = (0.9, 0.8), 0.9123
    held = coherent_params(eta_source=pair, g_x=gain)
    assert held.eta_source is pair and held.g_x is gain


def _floats(record):
    """Every float a record holds, its nested records and pairs included."""
    for value in record:
        if isinstance(value, tuple):
            yield from _floats(value)
        elif isinstance(value, (float, np.floating)):
            yield value


def test_records_hold_python_floats_not_numpy_scalars():
    params = coherent_params(g_x=0.9, eta_prop=(0.9, 0.8), eta_hom=0.95)
    unity = coherent_params(eta_source=(0.9, 0.8))
    records = {
        "analytic": teleport_analytic(unity),  # its fidelity_coherent is a float
        "analytic, non-unity gain": teleport_analytic(params),
        "monte_carlo": teleport_mc(params, 1000),
        "cascade stage": cascade(unity, 2)[-1],
        "calibration": calibrate_losses((-5.6, -5.5)),
    }
    counts = {name: [type(v) for v in _floats(record)] for name, record in records.items()}
    # vx, vp, vx_db, vp_db, (fidelity), delta_sq_out, 4 EPR numbers, 2 gains
    assert counts == {"analytic": [float] * 12, "analytic, non-unity gain": [float] * 11,
                      "monte_carlo": [float] * 11, "cascade stage": [float] * 3,
                      "calibration": [float] * 6}


def test_params_do_not_hold_the_caller_list():
    etas = [0.9, 0.9]
    params = coherent_params(eta_prop=etas)
    before = teleport_analytic(params).output_state.cov.tobytes()
    etas[0] = 7.0
    assert params.eta_prop == (0.9, 0.9)
    assert teleport_analytic(params).output_state.cov.tobytes() == before
    hash(params)  # a held list would raise TypeError


@pytest.mark.parametrize("name, value", [
    ("epr_sq_db", -3.0), ("epr_antisq_db", 3.0), ("eta_source", np.float64(0.9)),
    ("eta_prop", np.array(0.9)),
])
def test_params_reject_a_scalar_pair(name, value):
    with pytest.raises(ValueError, match=f"^{name} must hold exactly two values, got "):
        TeleporterParams(input_state=vacuum(1), **{name: value})


def test_params_reject_a_non_integral_seed():
    # 3.0, True and the other classes are rows of test_gaussian's boundary table
    for seed in (2.5,):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
            coherent_params(seed=seed)
    a = teleport_mc(coherent_params(seed=np.int64(7)), 100)
    b = teleport_mc(coherent_params(seed=7), 100)
    assert a.output_state.cov.tobytes() == b.output_state.cov.tobytes()


def test_pure_output_variances_reject_nan_and_negative_r():
    for r in (np.nan, -1.0):
        with pytest.raises(ValueError, match="^r must be >= 0$"):
            output_variances_pure(r)


def test_pure_output_variances_are_python_floats():
    vx, vp = output_variances_pure(0.5)
    assert type(vx) is type(vp) is float


def test_output_variance_whose_db_overflows_is_a_physics_error():
    # Vx = 1.1e308 is finite, Vx / (1/4) is not: the report would hold an infinite dB
    params = TeleporterParams(input_state=vacuum(1), g_x=1.2e154)
    with pytest.raises(PhysicsError, match=r"^teleporter output: variance / reference ratio "
                                           r"1\.12\d*e\+308 / 0\.25 leaves float range$"):
        teleport_analytic(params)


def test_params_validation():
    with pytest.raises(PhysicsError):
        TeleporterParams(input_state=vacuum(1), epr_sq_db=(3.0, -6.0))
    with pytest.raises(PhysicsError):
        TeleporterParams(
            input_state=vacuum(1), epr_sq_db=(-6.0, -6.0), epr_antisq_db=(5.0, 6.0)
        )
    with pytest.raises(ValueError):
        TeleporterParams(input_state=vacuum(2))
    with pytest.raises(ValueError):
        TeleporterParams(input_state=vacuum(1), eta_prop=(1.2, 1.0))
    with pytest.raises(ValueError):
        TeleporterParams(input_state=vacuum(1), g_x=np.inf)
    for name, pair in (("epr_sq_db", (-3.0, -3.0, -3.0)), ("eta_prop", (1.0, 1.0, 0.5)),
                       ("eta_source", (0.5,)), ("epr_antisq_db", (3.0,))):
        with pytest.raises(ValueError, match=f"^{name} must hold exactly two values, got "):
            TeleporterParams(input_state=vacuum(1), **{name: pair})
    pure = TeleporterParams(input_state=vacuum(1), epr_sq_db=(-6.0, -4.0))
    assert pure.epr_antisq_db == (6.0, 4.0)


def test_params_eta_hom_floor_is_one_millionth():
    assert TeleporterParams(input_state=vacuum(1), eta_hom=1e-6).eta_hom == 1e-6
    with pytest.raises(ValueError, match="^eta_hom too small to compensate electronically$"):
        TeleporterParams(input_state=vacuum(1), eta_hom=float(np.nextafter(1e-6, 0.0)))


@pytest.mark.parametrize("call, name", [
    (lambda n: teleport_mc(coherent_params(), n), "shots"),
    (lambda n: cascade(coherent_params(), n), "n_stages"),
    (lambda n: tomography.sample_record(vacuum(1), n, np.random.default_rng(0)), "n_samples"),
], ids=["teleport_mc", "cascade", "sample_record"])
def test_non_integral_count_is_rejected(call, name):
    # 3.0, True and the other classes are rows of test_gaussian's boundary table
    for count in (2.5,):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {count!r}$"):
            call(count)
    call(np.int64(3))  # a numpy integer is a count


@pytest.mark.parametrize(
    "levels",
    [{"epr_sq_db": (-np.inf, -np.inf)},
     {"epr_antisq_db": (np.inf, np.inf)},
     {"epr_antisq_db": (4000.0, 4000.0)}],
    ids=["minus-inf-squeezing", "inf-anti-squeezing", "overflowing-anti-squeezing"],
)
def test_params_reject_non_finite_and_overflowing_levels(levels):
    with pytest.raises(PhysicsError, match=r"^squeezer 1 noise pair \(.*\) dB is not a valid"):
        TeleporterParams(input_state=vacuum(1), **levels)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["analytic", "mc"])
def test_non_finite_output_is_physics_error(method):
    # g_x^2 = 1e400 overflows the added x noise, silently: the report rejects it
    params = coherent_params(g_x=1e200)
    with pytest.raises(PhysicsError, match="^teleporter output covariance is not finite"):
        teleport_analytic(params) if method == "analytic" else teleport_mc(params, 1000)


@pytest.mark.filterwarnings("error")
def test_gain_that_overflows_the_mc_feed_is_physics_error():
    # sqrt(2) g_x overflows the feed matrix itself, not only the moments
    with pytest.raises(PhysicsError, match="^teleporter output mean is not finite"):
        teleport_mc(coherent_params(g_x=1.7e308), 1000)


def test_output_remains_physical_under_losses(rng):
    for _ in range(20):
        sq_db = rng.uniform(-7.0, 0.0)
        params = TeleporterParams(
            input_state=rotate(impure_squeezed_vacuum(sq_db, -sq_db), 0, rng.uniform(0, np.pi)),
            epr_sq_db=(rng.uniform(-8, 0), rng.uniform(-8, 0)),
            g_x=rng.uniform(0.3, 1.4),
            g_p=rng.uniform(0.3, 1.4),
            eta_source=(rng.uniform(0.5, 1), rng.uniform(0.5, 1)),
            eta_prop=(rng.uniform(0.5, 1), rng.uniform(0.5, 1)),
            eta_hom=rng.uniform(0.8, 1),
        )
        out = teleport_analytic(params).output_state
        assert symplectic_eigenvalues(out.cov).min() >= 0.25 - 1e-9
