"""Property tests for the config grammar, the report JSON, the agreement
of the Monte Carlo and analytic teleporter paths, the closed-form source map
against the Gaussian-state chain, the cascade and the loss calibration.

The config strategies below are written from the documented config grammar
(the ``harness`` module docstring), not derived from the code's own field
table, so they check that table rather than restate it.
"""

import dataclasses
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import assert_report_holds

from cvteleport import TeleporterParams, coherent_state, impure_squeezed_vacuum, rotate, vacuum
from cvteleport import teleporter
from cvteleport.teleporter import (
    cascade,
    coherent_fidelity,
    epr_correlations,
    make_epr,
    teleport_analytic,
)
from cvteleport.harness import (
    ExperimentConfig,
    _mc_max_sigma,
    calibrate_losses,
    emit_config,
    parse_config,
    run,
    scenario_files,
)

# Documented grammar: (section, key) -> ExperimentConfig attribute.
GRAMMAR = {
    ("run", "scenario"): "scenario",
    ("run", "alpha"): "alpha",
    ("run", "input_sq_db"): "input_sq_db",
    ("run", "input_antisq_db"): "input_antisq_db",
    ("run", "method"): "method",
    ("run", "shots"): "shots",
    ("run", "seed"): "seed",
    ("teleporter", "epr_sq_db"): "epr_sq_db",
    ("teleporter", "epr_antisq_db"): "epr_antisq_db",
    ("teleporter", "g_x"): "g_x",
    ("teleporter", "g_p"): "g_p",
    ("teleporter", "eta_source"): "eta_source",
    ("teleporter", "eta_prop"): "eta_prop",
    ("teleporter", "eta_hom"): "eta_hom",
    ("trace", "n_points"): "trace_points",
    ("trace", "averages"): "trace_averages",
    ("trace", "sampled"): "trace_sampled",
    ("tomography", "samples"): "tomo_samples",
    ("tomography", "grid_points"): "grid_points",
    ("tomography", "grid_pad"): "grid_pad",
    ("tomography", "cutoff"): "cutoff",
    ("output", "dir"): "output_dir",
}

# One non-default value per key, as config text, and the value it must set.
NON_DEFAULT = {
    ("run", "scenario"): ("squeezed_p", "squeezed_p"),
    ("run", "alpha"): ("-1.5", -1.5),
    ("run", "input_sq_db"): ("-3.0", -3.0),
    ("run", "input_antisq_db"): ("7.5", 7.5),
    ("run", "method"): ("mc", "mc"),
    ("run", "shots"): ("77", 77),
    ("run", "seed"): ("12", 12),
    ("teleporter", "epr_sq_db"): ("-4.0 -5.0", (-4.0, -5.0)),
    ("teleporter", "epr_antisq_db"): ("8.0", (8.0, 8.0)),
    ("teleporter", "g_x"): ("0.5", 0.5),
    ("teleporter", "g_p"): ("1.5", 1.5),
    ("teleporter", "eta_source"): ("0.9, 0.8", (0.9, 0.8)),
    ("teleporter", "eta_prop"): ("0.7 0.6", (0.7, 0.6)),
    ("teleporter", "eta_hom"): ("0.85", 0.85),
    ("trace", "n_points"): ("17", 17),
    ("trace", "averages"): ("3", 3),
    ("trace", "sampled"): ("yes", True),
    ("tomography", "samples"): ("999", 999),
    ("tomography", "grid_points"): ("9", 9),
    ("tomography", "grid_pad"): ("2.5", 2.5),
    ("tomography", "cutoff"): ("12.5", 12.5),
    ("output", "dir"): ("results/a", "results/a"),
}


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def db_pair(draw):
    """A squeezed level <= 0 dB and an anti-squeezed level >= -squeezed."""
    sq = draw(finite(-20.0, 0.0))
    return sq, -sq + draw(finite(0.0, 20.0))


@st.composite
def configs(draw):
    sq = [draw(db_pair()) for _ in range(2)]
    input_sq, input_antisq = draw(db_pair())
    path = st.text("abcxyz019_-./", min_size=1, max_size=12)
    return ExperimentConfig(
        scenario=draw(st.sampled_from(["coherent", "squeezed_x", "squeezed_p", "vacuum"])),
        alpha=draw(finite(-1e6, 1e6)),
        input_sq_db=input_sq,
        input_antisq_db=input_antisq,
        method=draw(st.sampled_from(["analytic", "mc"])),
        shots=draw(st.integers(2, 10**7)),
        seed=draw(st.integers(0, 2**32 - 1)),
        epr_sq_db=(sq[0][0], sq[1][0]),
        epr_antisq_db=draw(st.none() | st.just((sq[0][1], sq[1][1]))),
        g_x=draw(finite(-3.0, 3.0)),
        g_p=draw(finite(-3.0, 3.0)),
        eta_source=(draw(finite(0.0, 1.0)), draw(finite(0.0, 1.0))),
        eta_prop=(draw(finite(0.0, 1.0)), draw(finite(0.0, 1.0))),
        eta_hom=draw(finite(1e-6, 1.0)),
        trace_points=draw(st.integers(2, 10**5)),
        trace_averages=draw(st.integers(1, 10**4)),
        trace_sampled=draw(st.booleans()),
        tomo_samples=draw(st.integers(1, 10**7)),
        grid_points=draw(st.integers(2, 1001)),
        grid_pad=draw(finite(1e-3, 50.0)),
        cutoff=draw(st.none() | finite(1e-3, 1e3)),
        output_dir=draw(st.none() | path),
    )


@settings(max_examples=200, deadline=None)
@given(configs())
def test_parse_of_emit_is_identity(config):
    assert parse_config(emit_config(config)) == config


def test_every_field_is_set_by_exactly_one_key():
    names = sorted(f.name for f in dataclasses.fields(ExperimentConfig))
    assert sorted(GRAMMAR.values()) == names
    default = ExperimentConfig()
    for (section, key), attr in GRAMMAR.items():
        text, expected = NON_DEFAULT[(section, key)]
        config = parse_config(f"[{section}]\n{key} = {text}\n")
        changed = [name for name in names if getattr(config, name) != getattr(default, name)]
        assert changed == [attr], (section, key)
        assert getattr(config, attr) == expected


@st.composite
def runs(draw):
    """Small, fast runs of random valid configs, with random artifacts."""
    config = dataclasses.replace(
        draw(configs()),
        alpha=draw(finite(-5.0, 5.0)),
        shots=draw(st.integers(500, 3000)),
        trace_points=draw(st.integers(2, 40)),
        tomo_samples=draw(st.integers(1000, 3000)),
        grid_points=draw(st.integers(2, 15)),
        grid_pad=draw(finite(3.0, 6.0)),
        cutoff=None,
    )
    return run(config, include_trace=draw(st.booleans()), include_wigner=draw(st.booleans()))


@settings(max_examples=25, deadline=None)
@given(runs())
def test_json_round_trip_is_lossless(result):
    assert_report_holds(json.loads(scenario_files(result)["report.json"]), result)


@st.composite
def teleporters(draw):
    """Lossy teleporters at random gains: a coherent or a rotated impure
    squeezed input, pure or impure resource squeezers."""
    if draw(st.booleans()):
        state = coherent_state(complex(draw(finite(-4.0, 4.0)), draw(finite(-4.0, 4.0))))
    else:
        sq, antisq = draw(db_pair())
        state = rotate(impure_squeezed_vacuum(sq, antisq), 0, draw(finite(0.0, np.pi)))
    pairs = [draw(db_pair()) for _ in range(2)]
    unit = finite(0.5, 1.0)
    return TeleporterParams(
        input_state=state,
        epr_sq_db=(pairs[0][0], pairs[1][0]),
        epr_antisq_db=draw(st.none() | st.just((pairs[0][1], pairs[1][1]))),
        g_x=draw(finite(0.3, 1.5)),
        g_p=draw(finite(0.3, 1.5)),
        eta_source=(draw(unit), draw(unit)),
        eta_prop=(draw(unit), draw(unit)),
        eta_hom=draw(finite(0.7, 1.0)),
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(teleporters(), st.integers(0, 2**32 - 1))
def test_mc_agrees_with_analytic_within_five_sigma(params, seed):
    assert _mc_max_sigma(params, 20_000, seed) <= 5.0


def _chain_error(value, weights, moments) -> float:
    """Distance of `value` from the float64 chain's result W M W^T (or W m),
    relative to the largest term that sum adds up, |W| |M| |W|^T (or |W| |m|).

    The chain's quadratic forms cancel: with a 40 dB anti-squeezed squeezer
    they lose up to about 2e-12 of a small correlation variance to rounding,
    while the source map stays within 4e-15 of a 50-digit evaluation.  The
    rounding of a sum is bounded by the size of its terms, not of its result.
    """
    if moments.ndim == 1:
        reference, terms = weights @ moments, np.abs(weights) @ np.abs(moments)
    else:
        reference = weights @ moments @ weights.T
        terms = np.abs(weights) @ np.abs(moments) @ np.abs(weights).T
    return float(np.max(np.abs(np.asarray(value) - reference)) / np.max(terms))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(teleporters())
def test_source_map_matches_the_gaussian_chain(params):
    report = teleport_analytic(params)
    mean, cov = report.output_state.mean, report.output_state.cov
    var_x_diff, var_p_sum = report.epr.var_x_diff, report.epr.var_p_sum
    pair, chain_mean, chain_cov, feed = teleporter._readout(params)
    if np.any(chain_mean != 0.0):
        assert _chain_error(mean, feed, chain_mean) <= 1e-13
    else:
        assert np.all(mean == 0.0)
    assert _chain_error(cov, feed, chain_cov) <= 1e-13
    x_diff = np.array([[1.0, 0.0, -1.0, 0.0]])
    p_sum = np.array([[0.0, 1.0, 0.0, 1.0]])
    assert _chain_error(var_x_diff, x_diff, pair.cov) <= 1e-13
    assert _chain_error(var_p_sum, p_sum, pair.cov) <= 1e-13


@st.composite
def unity_gain_teleporters(draw):
    """The lossy teleporters above at unity gain, with a coherent input."""
    params = draw(teleporters())
    alpha = complex(*params.input_state.mean)
    return dataclasses.replace(params, input_state=coherent_state(alpha), g_x=1.0, g_p=1.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(unity_gain_teleporters(), st.integers(1, 200))
def test_cascade_matches_iterated_teleports(params, n_stages):
    stages = cascade(params, n_stages)
    assert [stage.stage for stage in stages] == list(range(1, n_stages + 1))
    current = params
    for stage in stages:
        report = teleport_analytic(current)
        expected = [report.vx, report.vp, coherent_fidelity(report.vx, report.vp)]
        got = [stage.vx, stage.vp, stage.fidelity]
        assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(got, expected))
        current = dataclasses.replace(current, input_state=report.output_state)


@st.composite
def calibrations(draw):
    """Source squeezers, targets between each path's lossless limit (the
    squeezer's own level) and a millionth of it, and the anti-squeezed
    levels, pure or impure, of the beam pair the fit is checked on."""
    source_sq = (draw(finite(-20.0, -1e-3)), draw(finite(-20.0, -1e-3)))
    source_antisq = draw(st.none() | st.tuples(*(finite(-sq, 20.0 - sq) for sq in source_sq)))
    # (x, p) targets: the x correlation is squeezer 2's, the p correlation squeezer 1's
    target = tuple(source_sq[k] * draw(finite(1e-6, 1.0)) for k in (1, 0))
    return target, source_sq, source_antisq


@settings(max_examples=100, deadline=None, derandomize=True)
@given(calibrations())
def test_calibration_reproduces_reachable_targets(case):
    # the fit, made on the source map, hits the targets through the
    # Gaussian-state chain whatever the anti-squeezed levels, and reports the
    # levels teleport_analytic gives at the fitted efficiencies, to the last bit
    target, source_sq, source_antisq = case
    result = calibrate_losses(target, source_sq)
    eta_source = result.eta_source
    params = TeleporterParams(input_state=vacuum(1), epr_sq_db=source_sq, eta_source=eta_source)
    epr = teleport_analytic(params).epr
    assert (result.achieved_x_db, result.achieved_p_db) == (epr.x_diff_db, epr.p_sum_db)
    assert (result.residual_x_db, result.residual_p_db) == (
        epr.x_diff_db - target[0], epr.p_sum_db - target[1]
    )
    pair = make_epr(
        TeleporterParams(
            input_state=vacuum(1), epr_sq_db=source_sq, epr_antisq_db=source_antisq,
            eta_source=eta_source,
        )
    )
    achieved = epr_correlations(pair)
    assert all(0.0 < eta <= 1.0 for eta in eta_source)
    assert abs(achieved.x_diff_db - target[0]) <= 1e-9
    assert abs(achieved.p_sum_db - target[1]) <= 1e-9
