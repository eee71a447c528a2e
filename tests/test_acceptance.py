"""Acceptance suite: the eleven headline checks, one test per criterion.

Each test recomputes its quantities through the public API and asserts the
reference windows, then prints a single summary line, so `pytest -v -s`
yields one pass/fail line per criterion.  The reference-reproduction table
in the harness covers the same ground through the CLI path; the two are
deliberately independent implementations.
"""

import dataclasses
import sys
import time

import numpy as np
import pytest

from cvteleport import gaussian
from cvteleport.gaussian import coherent_state, impure_squeezed_vacuum
from cvteleport.harness import benchmark_config
from cvteleport.sideband import delta_sq, is_entangled, sidebands_from_single_mode
from cvteleport.teleporter import (
    TeleporterParams,
    cascade,
    coherent_fidelity,
    output_variances_pure,
    squeezing_threshold_db,
    teleport_analytic,
    teleport_mc,
)
from cvteleport.tomography import (
    GridSpec,
    inverse_radon,
    sample_record,
    spectrum_trace,
    wigner_moments,
)

ALPHA = 3.5 + 0j


def _db(r: float) -> float:
    return float(10.0 * np.log10(np.exp(-2.0 * r)))


def test_criterion_01_squeezing_threshold():
    threshold = squeezing_threshold_db()
    assert threshold == pytest.approx(-4.771212547196624, abs=1e-9)
    vx, _ = output_variances_pure(0.5 * np.log(3.0))
    assert vx == pytest.approx(0.25, abs=1e-10)
    print(f"criterion 1 pass: threshold {threshold:.4f} dB, Vx at e^(-2r)=1/3 -> {vx}")


def test_criterion_02_classical_limit():
    report = teleport_analytic(
        TeleporterParams(input_state=coherent_state(ALPHA), epr_sq_db=(0.0, 0.0))
    )
    assert report.fidelity_coherent == pytest.approx(0.5, abs=1e-10)
    assert report.vx == pytest.approx(0.75, abs=1e-10)
    assert report.vp == pytest.approx(0.75, abs=1e-10)
    print(f"criterion 2 pass: F={report.fidelity_coherent}, variances {report.vx}")


def test_criterion_03_ideal_6db_fidelity():
    report = teleport_analytic(TeleporterParams(input_state=coherent_state(ALPHA)))
    assert report.fidelity_coherent == pytest.approx(1.0 / (1.0 + 10.0**-0.6), abs=0.0005)
    print(f"criterion 3 pass: F={report.fidelity_coherent:.5f}")


def test_criterion_04_measured_fidelity_formula():
    value = coherent_fidelity(0.25 * 10.0**0.20, 0.25 * 10.0**0.23)
    assert value == pytest.approx(0.757, abs=0.005)
    print(f"criterion 4 pass: F={value:.5f}")


def test_criterion_05_calibrated_coherent_scenario():
    report = teleport_analytic(benchmark_config("coherent").teleporter_params())
    assert 1.8 <= report.vx_db <= 2.4
    assert 1.8 <= report.vp_db <= 2.4
    assert 0.74 <= report.fidelity_coherent <= 0.79
    print(
        f"criterion 5 pass: output {report.vx_db:.3f}/{report.vp_db:.3f} dB, "
        f"F={report.fidelity_coherent:.5f}"
    )


def test_criterion_06_calibrated_squeezed_scenario():
    config = benchmark_config("squeezed_x")
    report = teleport_analytic(config.teleporter_params())
    assert -1.2 <= report.vx_db <= -0.6
    assert 11.9 <= report.vp_db <= 12.7
    assert 0.76 <= report.delta_sq_out <= 0.88
    delta_in = delta_sq(sidebands_from_single_mode(config.input_state()))
    assert delta_in == pytest.approx(0.240, abs=0.005)
    verdict = is_entangled(sidebands_from_single_mode(report.output_state))
    assert verdict.entangled
    print(
        f"criterion 6 pass: output {report.vx_db:.3f}/{report.vp_db:.3f} dB, "
        f"delta_sq out {report.delta_sq_out:.4f} / in {delta_in:.4f}, entangled"
    )


def test_criterion_07_signal_calibration():
    trace = spectrum_trace(coherent_state(ALPHA))
    peak = float(trace.power_db.max())
    assert peak == pytest.approx(17.0, abs=0.1)
    print(f"criterion 7 pass: trace peak {peak:.4f} dB")


def test_criterion_08_mc_analytic_equivalence():
    start = time.perf_counter()
    worst = 0.0
    seed = 2600
    for r in (0.0, 0.35, 0.69):
        for gain in (0.5, 1.0):
            for eta in (0.9, 1.0):
                params = TeleporterParams(
                    input_state=coherent_state(ALPHA),
                    epr_sq_db=(_db(r), _db(r)),
                    g_x=gain,
                    g_p=gain,
                    eta_prop=(eta, eta),
                )
                shots = 100_000
                analytic = teleport_analytic(params)
                empirical = teleport_mc(params, shots, np.random.default_rng(seed))
                seed += 1
                a_mean = analytic.output_state.mean
                a_cov = analytic.output_state.cov
                e_mean = empirical.output_state.mean
                e_cov = empirical.output_state.cov
                scores = [
                    abs(e_mean[0] - a_mean[0]) / np.sqrt(a_cov[0, 0] / shots),
                    abs(e_mean[1] - a_mean[1]) / np.sqrt(a_cov[1, 1] / shots),
                    abs(e_cov[0, 0] - a_cov[0, 0])
                    / (a_cov[0, 0] * np.sqrt(2.0 / (shots - 1))),
                    abs(e_cov[1, 1] - a_cov[1, 1])
                    / (a_cov[1, 1] * np.sqrt(2.0 / (shots - 1))),
                    abs(e_cov[0, 1] - a_cov[0, 1])
                    / np.sqrt((a_cov[0, 0] * a_cov[1, 1] + a_cov[0, 1] ** 2) / shots),
                ]
                # np.max keeps a NaN score, where Python's max could drop it
                worst = float(np.max([worst, *scores]))
    elapsed = time.perf_counter() - start
    assert worst <= 5.0
    assert elapsed <= 60.0
    print(f"criterion 8 pass: max |z| = {worst:.2f} sigma, sweep {elapsed:.2f} s")


def test_criterion_08_fails_on_nan_moments(monkeypatch):
    def nan_mc(params, shots, rng=None):
        report = teleport_analytic(params)
        mean = report.output_state.mean
        nan_state = gaussian._own(mean.copy(), np.full((2, 2), np.nan))
        return dataclasses.replace(report, output_state=nan_state)

    monkeypatch.setattr(sys.modules[__name__], "teleport_mc", nan_mc)
    with pytest.raises(AssertionError):
        test_criterion_08_mc_analytic_equivalence()


def test_criterion_09_tomography_closure():
    report = teleport_analytic(benchmark_config("squeezed_x").teleporter_params())
    state = report.output_state
    record = sample_record(state, 100_000, np.random.default_rng(20260901))
    grid = inverse_radon(record, GridSpec.from_state(state))
    moments = wigner_moments(grid)
    assert moments.cov[0, 0] == pytest.approx(report.vx, rel=0.05)
    assert moments.cov[1, 1] == pytest.approx(report.vp, rel=0.05)
    assert np.abs(moments.mean).max() < 0.05
    print(
        "criterion 9 pass: reconstructed variances "
        f"{moments.cov[0, 0]:.4f}/{moments.cov[1, 1]:.4f} vs "
        f"{report.vx:.4f}/{report.vp:.4f}, |mean| {np.abs(moments.mean).max():.4f}"
    )


def test_criterion_10_entanglement_iff_squeezing():
    outcomes = []
    for r in (0.0, 0.2, 0.4, 0.55, 0.7, 0.9):
        report = teleport_analytic(
            TeleporterParams(
                input_state=impure_squeezed_vacuum(-6.2, 12.0),
                epr_sq_db=(_db(r), _db(r)),
            )
        )
        entangled = is_entangled(sidebands_from_single_mode(report.output_state)).entangled
        squeezed = report.vx < 0.25
        assert entangled == squeezed
        outcomes.append((r, entangled))
    print(f"criterion 10 pass: entangled iff squeezed at r={[o[0] for o in outcomes]}")


def test_criterion_11_cascade_fidelities():
    stages = cascade(TeleporterParams(input_state=coherent_state(ALPHA)), 4)
    targets = (0.799, 0.666, 0.570, 0.499)
    for stage, target in zip(stages, targets):
        assert stage.fidelity == pytest.approx(target, abs=0.002)
    values = [round(stage.fidelity, 4) for stage in stages]
    print(f"criterion 11 pass: cascade fidelities {values}")
