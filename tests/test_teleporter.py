"""Tests for the teleporter: resource preparation, the measure-and-displace
protocol, the analytic network propagation, and the Monte Carlo cross-check.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from cvteleport import (
    PhysicsError,
    coherent_state,
    impure_squeezed_vacuum,
    rotate,
    squeeze,
    symplectic_eigenvalues,
    vacuum,
)
from cvteleport.teleporter import (
    TeleporterParams,
    cascade,
    coherent_fidelity,
    epr_correlations,
    make_epr,
    measure_gains,
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
    assert measure_gains(coherent_params(eta_hom=eta)) == pytest.approx((1.0, 1.0), abs=1e-10)
    # the compensation injects (1 - eta)/(2 eta) of extra vacuum noise
    clean = teleport_analytic(coherent_params())
    penalty = (1 - eta) / (2 * eta)
    assert report.vx == pytest.approx(clean.vx + penalty, abs=1e-10)


def test_measure_gains_matches_configuration():
    params = coherent_params(g_x=0.5, g_p=1.1, eta_prop=(0.9, 0.9), eta_hom=0.9604)
    assert measure_gains(params) == pytest.approx((0.5, 1.1), abs=1e-10)
    with pytest.raises(ValueError):
        measure_gains(params, probe_amplitude=0.0)


def test_mc_matches_analytic_at_five_sigma():
    shots = 100_000
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
    with pytest.raises(ValueError):
        coherent_fidelity(-0.1, 0.25)


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
    pure = TeleporterParams(input_state=vacuum(1), epr_sq_db=(-6.0, -4.0))
    assert pure.epr_antisq_db == (6.0, 4.0)


def test_output_remains_physical_under_losses(rng):
    for _ in range(20):
        params = TeleporterParams(
            input_state=squeeze(vacuum(1), 0, rng.uniform(-0.8, 0.8)),
            epr_sq_db=(rng.uniform(-8, 0), rng.uniform(-8, 0)),
            g_x=rng.uniform(0.3, 1.4),
            g_p=rng.uniform(0.3, 1.4),
            eta_source=(rng.uniform(0.5, 1), rng.uniform(0.5, 1)),
            eta_prop=(rng.uniform(0.5, 1), rng.uniform(0.5, 1)),
            eta_hom=rng.uniform(0.8, 1),
        )
        out = teleport_analytic(params).output_state
        assert symplectic_eigenvalues(out.cov).min() >= 0.25 - 1e-9
