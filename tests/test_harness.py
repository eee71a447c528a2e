"""Tests for config parsing, scenario runs, serialization, and calibration."""

import ast
import errno
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_report_holds
from digest import CONFIG_TEXTS

from cvteleport import gaussian, harness, teleporter
from cvteleport.gaussian import PhysicsError, coherent_state, vacuum
from cvteleport.harness import (
    MAX_GRID_POINTS,
    MAX_SAMPLES,
    MAX_TRACE_POINTS,
    CalibrationResult,
    ConfigError,
    ExperimentConfig,
    benchmark_config,
    calibrate_losses,
    emit_config,
    format_repro_table,
    paper_repro,
    parse_config,
    report_json,
    run,
    scenario_files,
    write_files,
    _mc_max_sigma,
)
from cvteleport.teleporter import TeleporterParams, epr_correlations, make_epr, teleport_analytic


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        config = parse_config("")
        assert config == ExperimentConfig()

    def test_full_config_parses(self):
        text = """
[run]
scenario = squeezed_x
input_sq_db = -6.2
input_antisq_db = 12.0
method = mc
shots = 5000
seed = 7

[teleporter]
epr_sq_db = -6.2 -6.2
epr_antisq_db = 12.0 12.0
g_x = 0.99
eta_source = 0.95, 0.95
eta_hom = 0.98

[tomography]
cutoff = 14.5
"""
        config = parse_config(text)
        assert config.scenario == "squeezed_x"
        assert config.method == "mc"
        assert config.shots == 5000
        assert config.epr_antisq_db == (12.0, 12.0)
        assert config.g_x == 0.99
        assert config.eta_source == (0.95, 0.95)
        assert config.cutoff == 14.5

    def test_single_value_pair_applies_to_both(self):
        config = parse_config("[teleporter]\nepr_sq_db = -5.0\n")
        assert config.epr_sq_db == (-5.0, -5.0)

    def test_unknown_section_rejected_with_line(self):
        with pytest.raises(ConfigError, match=r"\[teleport\].*line 1.*unknown section"):
            parse_config("[teleport]\ng_x = 1\n")

    def test_unknown_key_rejected_with_line(self):
        text = "[run]\nscenario = vacuum\n\n[teleporter]\ngain_x = 1\n"
        with pytest.raises(ConfigError, match=r"gain_x \(line 5\): unknown key"):
            parse_config(text)

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="shots"):
            parse_config("[run]\nshots = many\n")
        with pytest.raises(ConfigError, match="sampled"):
            parse_config("[trace]\nsampled = maybe\n")

    def test_positive_squeezing_rejected(self):
        with pytest.raises(ConfigError, match="squeez"):
            parse_config("[teleporter]\nepr_sq_db = 3.0\n")

    def test_cutoff_auto(self):
        assert parse_config("[tomography]\ncutoff = auto\n").cutoff is None
        with pytest.raises(ConfigError):
            parse_config("[tomography]\ncutoff = -2\n")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[tomography]\nsamples = 1000000000\n", "samples"),
            ("[run]\nmethod = mc\nshots = 20000001\n", "shots"),
            ("[trace]\nsampled = true\naverages = 20000001\n", "averages"),
        ],
    )
    def test_oversized_sample_count_rejected_with_line(self, text, key):
        line = text.count("\n")
        with pytest.raises(ConfigError, match=rf"{key} \(line {line}\): must be <= {MAX_SAMPLES}"):
            parse_config(text)

    @pytest.mark.parametrize(
        "section, key, bound",
        [("trace", "n_points", MAX_TRACE_POINTS), ("tomography", "grid_points", MAX_GRID_POINTS)],
    )
    def test_oversized_array_size_rejected_with_line(self, section, key, bound):
        parse_config(f"[{section}]\n{key} = {bound}\n")  # the bound itself is accepted
        message = rf"\[{section}\] {key} \(line 2\): must be <= {bound}"
        with pytest.raises(ConfigError, match=message):
            parse_config(f"[{section}]\n{key} = {bound + 1}\n")

    def test_negative_seed_rejected_with_line(self):
        with pytest.raises(ConfigError, match=r"\[run\] seed \(line 3\): must be >= 0"):
            parse_config("[run]\nmethod = mc\nseed = -1\n")

    @pytest.mark.parametrize(
        "text, location, message",
        [
            ("[teleporter]\neta_hom = 2.5\n", "[teleporter] eta_hom (line 2)",
             "must lie in [0, 1], got 2.5"),
            ("[teleporter]\ng_x = 0.9\neta_prop = 0.9 -0.1\n", "[teleporter] eta_prop (line 3)",
             "must lie in [0, 1], got -0.1"),
            ("[teleporter]\nepr_antisq_db = 1 1\nepr_sq_db = -6 -6\n",
             "[teleporter] epr_sq_db (line 3)",
             "squeezer 1 noise pair (-6, +1) dB is not a valid squeezed/anti-squeezed combination"),
            ("[teleporter]\ng_p = 1.1\nepr_antisq_db = 9 1\n",
             "[teleporter] epr_antisq_db (line 3)",
             "squeezer 2 noise pair (-6, +1) dB is not a valid squeezed/anti-squeezed combination"),
            ("[run]\nscenario = squeezed_p\ninput_sq_db = 1\n", "[run] input_sq_db (line 3)",
             "squeezed vacuum noise pair (+1, +12) dB is not a valid squeezed/anti-squeezed "
             "combination"),
            ("[teleporter]\neta_hom = 1e-7\n", "[teleporter] eta_hom (line 2)",
             "eta_hom too small to compensate electronically"),
            ("[teleporter]\ng_x = 0.9\neta_hom = 0\n", "[teleporter] eta_hom (line 3)",
             "eta_hom too small to compensate electronically"),
            ("[teleporter]\neta_hom = -0\n", "[teleporter] eta_hom (line 2)",
             "eta_hom too small to compensate electronically"),
            ("[teleporter]\neta_hom = 5e-7\n", "[teleporter] eta_hom (line 2)",
             "eta_hom too small to compensate electronically"),
        ],
        ids=["fraction", "fraction-pair", "noise-pair", "noise-pair-second-key", "input-pair",
             "eta-hom-floor", "eta-hom-floor-zero", "eta-hom-floor-negative-zero",
             "eta-hom-floor-half"],
    )
    def test_teleporter_rule_is_reported_at_its_key(self, text, location, message):
        # a fraction, or the eta_hom floor, at its key's line; a rule across two
        # keys at the line of the first of them that the text sets
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert str(excinfo.value) == f"{location}: {message}"

    def test_comments_and_inline_comments(self):
        text = "# preset\n[run]\nseed = 9  # fixed\n; trailing\n"
        assert parse_config(text).seed == 9


class TestEmitRoundtrip:
    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(),
            ExperimentConfig(scenario="vacuum", seed=3, method="mc", shots=2048),
            ExperimentConfig(
                scenario="squeezed_p",
                input_sq_db=-5.5,
                input_antisq_db=9.25,
                epr_sq_db=(-6.2, -6.1),
                epr_antisq_db=(12.0, 11.5),
                g_x=0.987654321,
                g_p=1.012345678,
                eta_source=(0.953, 0.945),
                eta_prop=(0.99, 0.98),
                eta_hom=0.97,
                trace_sampled=True,
                cutoff=13.25,
                output_dir="out",
            ),
            # whitespace inside, and '#' and ';' not after whitespace, start no comment
            ExperimentConfig(output_dir="out#x;y a\tb"),
        ],
    )
    def test_parse_emit_is_identity(self, config):
        assert parse_config(emit_config(config)) == config

    @pytest.mark.parametrize("value, message", [
        ("out #x", "must not have '#' or ';' at its start or after whitespace, got 'out #x'"),
        ("out ;x", "must not have '#' or ';' at its start or after whitespace, got 'out ;x'"),
        ("out\t#x", "must not have '#' or ';' at its start or after whitespace, got 'out\\t#x'"),
        ("#x", "must not have '#' or ';' at its start or after whitespace, got '#x'"),
        ("x ;", "must not have '#' or ';' at its start or after whitespace, got 'x ;'"),
        (" out", "must not begin or end with whitespace, got ' out'"),
        ("out\t", "must not begin or end with whitespace, got 'out\\t'"),
        ("res\nults", "must be one line, got 'res\\nults'"),
        ("res\rults", "must be one line, got 'res\\rults'"),
    ])
    def test_output_dir_that_config_text_cannot_hold_is_refused(self, value, message):
        with pytest.raises(ValueError) as excinfo:
            ExperimentConfig(output_dir=value)
        assert str(excinfo.value) == f"output_dir: {message}"

    def test_emitted_floats_are_exact(self):
        config = ExperimentConfig(alpha=1.0 / 3.0, g_x=np.nextafter(1.0, 2.0))
        assert parse_config(emit_config(config)) == config


class TestExperimentConfig:
    def test_scenario_input_states(self):
        assert parse_config("[run]\nscenario = vacuum\n").input_state().cov[0, 0] == 0.25
        coherent = ExperimentConfig(scenario="coherent", alpha=2.0).input_state()
        assert coherent.mean[0] == 2.0
        sx = ExperimentConfig(scenario="squeezed_x").input_state()
        sp = ExperimentConfig(scenario="squeezed_p").input_state()
        assert sx.cov[0, 0] < 0.25 < sx.cov[1, 1]
        assert np.allclose(sp.cov, np.diag([sx.cov[1, 1], sx.cov[0, 0]]), atol=1e-12)

    def test_squeezed_p_turn_is_exact(self):
        # the network couples no x to p, so the output's x-p covariance is 0
        output = run(ExperimentConfig(scenario="squeezed_p")).report.output_state
        assert output.cov[0, 1] == output.cov[1, 0] == 0.0
        assert not np.any(np.signbit(output.cov)) and not np.any(np.signbit(output.mean))

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="thermal")
        with pytest.raises(ValueError):
            ExperimentConfig(method="exact")
        with pytest.raises(ValueError):
            ExperimentConfig(shots=1)
        with pytest.raises(ValueError, match="grid_pad: must be positive"):
            ExperimentConfig(grid_pad=0.0)
        with pytest.raises(ValueError, match="alpha"):
            ExperimentConfig(alpha=float("nan"))
        with pytest.raises(ValueError, match="tomo_samples"):
            ExperimentConfig(tomo_samples=MAX_SAMPLES + 1)
        with pytest.raises(ValueError, match="shots"):
            ExperimentConfig(shots=MAX_SAMPLES + 1)
        with pytest.raises(ValueError, match="seed: must be >= 0"):
            ExperimentConfig(seed=-1)
        with pytest.raises(ValueError, match="shots: must be an integer"):
            ExperimentConfig(shots=2.9)
        with pytest.raises(ValueError, match="seed: must be an integer"):
            ExperimentConfig(seed=1.9)
        with pytest.raises(ValueError, match="shots: cannot convert"):
            ExperimentConfig(shots=float("inf"))
        with pytest.raises(ValueError, match="trace_sampled: must be a boolean"):
            ExperimentConfig(trace_sampled="false")
        # numbers, counts and pairs are never truth values or text
        for name, value in [("alpha", True), ("cutoff", True), ("seed", False),
                            ("grid_pad", np.True_), ("eta_prop", "11"), ("eta_source", "01")]:
            with pytest.raises(ValueError, match=f"^{name}: must be numeric"):
                ExperimentConfig(**{name: value})
        with pytest.raises(PhysicsError):
            ExperimentConfig(epr_sq_db=(2.0, -6.0))

    def test_params_carry_config_fields(self):
        config = ExperimentConfig(g_x=0.9, eta_hom=0.95, seed=11)
        params = config.teleporter_params()
        assert params.g_x == 0.9
        assert params.eta_hom == 0.95
        assert params.seed == 11

    @pytest.mark.parametrize(
        "text", CONFIG_TEXTS, ids=lambda text: text[:12] + (f"..({len(text)})" if text[12:] else "")
    )
    @pytest.mark.parametrize("field", harness.CONFIG_FIELDS, ids=lambda field: field.key)
    def test_each_kind_has_one_rule(self, field, text):
        """Config text and ExperimentConfig given what the text reads as reach
        the same value or message: the kind's one check judges both."""

        def outcome(call, prefix):
            try:
                return call()
            except ValueError as exc:
                return re.sub(prefix, "", str(exc), count=1)

        config_text = f"[{field.section}]\n{field.key} = {text}\n"
        from_text = outcome(lambda: getattr(parse_config(config_text), field.attr),
                            r"^\[\w+\] \w+ \(line \d+\): ")
        try:
            value = field.kind.read(text.strip())  # as the config reader stores it
        except ValueError as exc:  # syntax: no value to give ExperimentConfig
            assert from_text == str(exc)
            return
        from_value = outcome(lambda: getattr(ExperimentConfig(**{field.attr: value}), field.attr),
                             f"^{field.attr}: ")
        assert from_text == from_value

    @pytest.mark.parametrize("huge", [10**400, -(10**400)], ids=["huge", "-huge"])
    @pytest.mark.parametrize(
        "field",
        [f for f in harness.CONFIG_FIELDS
         if f.kind.read in (float, harness._read_pair) or f.kind is harness._CUTOFF],
        ids=lambda field: field.key,
    )
    def test_int_beyond_float_range_reads_as_its_text(self, field, huge):
        """ExperimentConfig given an int beyond float range reaches the
        outcome of the int's text: both read as an infinity."""
        pair = field.kind.read is harness._read_pair
        text = f"{huge} {huge}" if pair else str(huge)
        with pytest.raises(ConfigError) as from_text:
            parse_config(f"[{field.section}]\n{field.key} = {text}\n")
        with pytest.raises(ValueError) as from_value:
            ExperimentConfig(**{field.attr: (huge, huge) if pair else huge})
        assert str(from_text.value) == f"[{field.section}] {field.key} (line 2): must be finite"
        assert str(from_value.value) == f"{field.attr}: must be finite"

    def test_seed_above_float_range_is_entropy(self):
        seed = 10**400  # SeedSequence takes any non-negative int
        assert parse_config(f"[run]\nseed = {seed}\n").seed == seed
        assert run(ExperimentConfig(seed=seed, method="mc", shots=100)).provenance["seed"] == seed


class TestRun:
    def test_analytic_run_matches_direct_call(self):
        config = ExperimentConfig()
        result = run(config)
        direct = teleport_analytic(config.teleporter_params())
        assert result.report.vx == direct.vx
        assert result.report.fidelity_coherent == direct.fidelity_coherent
        assert result.trace is None and result.wigner is None
        assert result.provenance["version"]
        assert len(result.provenance["config_sha256"]) == 64

    def test_artifacts_produced_on_request(self):
        config = ExperimentConfig(tomo_samples=20_000, trace_points=100)
        result = run(config, include_trace=True, include_wigner=True)
        assert result.trace.thetas.size == 100
        assert result.trace.averages is None
        assert result.wigner.values.shape == (81, 81)

    def test_sampled_trace_uses_seeded_stream(self):
        config = ExperimentConfig(trace_sampled=True, seed=5)
        first = run(config, include_trace=True)
        second = run(config, include_trace=True)
        assert np.array_equal(first.trace.power_db, second.trace.power_db)

    def test_mc_run_deterministic_and_close_to_analytic(self):
        config = ExperimentConfig(method="mc", shots=40_000, seed=2)
        first = run(config)
        second = run(config)
        assert first.report.vx == second.report.vx
        analytic = run(ExperimentConfig())
        assert first.report.vx == pytest.approx(analytic.report.vx, rel=0.05)

    def test_seed_changes_mc_output(self):
        a = run(ExperimentConfig(method="mc", shots=10_000, seed=0))
        b = run(ExperimentConfig(method="mc", shots=10_000, seed=1))
        assert a.report.vx != b.report.vx

    @pytest.mark.parametrize("epr_sq_db, shots", [
        ((-40.0, -40.0), 100_000), ((-6.0, -6.0), 2), ((-6.0, -6.0), 3), ((-6.0, -6.0), 4),
        ((-6.0, -6.0), 5),
    ], ids=["-40dB-100000-shots", "2-shots", "3-shots", "4-shots", "5-shots"])
    def test_mc_estimate_that_is_not_a_state_is_refused(self, epr_sq_db, shots):
        # At -40 dB the output variance is 0.25 plus about 5e-5, below the
        # sampling error of 100k shots (about 1e-3); below 5 shots the sample
        # covariance has rank shots - 1.  Either the run raises, naming its
        # shots, or its estimate is a state: its fidelity is at most 1 but
        # for PHYSICALITY_ATOL's allowance, and LAPACK's symplectic
        # eigenvalue (not the closed form the refusal uses) is >= 1/4.
        refused = 0
        for seed in range(200):
            config = ExperimentConfig(method="mc", shots=shots, seed=seed, epr_sq_db=epr_sq_db)
            try:
                report = run(config).report
            except PhysicsError as exc:
                assert re.match(f"Monte Carlo output covariance of {shots} shots is not a "
                                "state's: ", str(exc))
                refused += 1
                continue
            assert report.fidelity_coherent <= 1.0 + 4 * gaussian.PHYSICALITY_ATOL
            cov = report.output_state.cov
            nu = gaussian.symplectic_eigenvalues(cov).min()
            assert cov[0, 0] > 0.0 and nu >= 0.25 - 2 * gaussian.PHYSICALITY_ATOL
        # rank 1 at 2 shots is never a state; each other case refuses some
        # seeds and reports others
        assert refused == 200 if shots == 2 else 0 < refused < 200


class TestNumpyFreeChecks:
    """The config's boolean check and the report encoder test numpy's types
    only once numpy is imported, which loses nothing: no numpy bool or array
    exists before.  In this process numpy is imported, so both branches run."""

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), np.bool_(False)])
    def test_check_bool_takes_python_and_numpy_bools(self, value):
        checked = harness._check_bool(value)
        assert type(checked) is bool and checked == value

    @pytest.mark.parametrize("value", [1, 0, np.int64(1), "true"], ids=repr)
    def test_check_bool_refuses_what_is_no_bool(self, value):
        with pytest.raises(ValueError, match="^must be a boolean$"):
            harness._check_bool(value)

    @pytest.mark.parametrize("array", [np.arange(3.0), np.eye(2), np.zeros((0,)),
                                       np.array([[1, 2], [3, 4]])], ids=repr)
    def test_plain_turns_an_array_into_its_list(self, array):
        array.setflags(write=False)
        plain = harness._plain({"a": array, "b": (array,)})
        assert type(plain["a"]) is list and plain["a"] == array.tolist()
        assert plain["b"] == [array.tolist()]


class TestSerialization:
    @staticmethod
    def _written(result):
        """``result``'s report.json, as json.loads reads it back."""
        return json.loads(scenario_files(result)["report.json"])

    def test_report_roundtrip_is_lossless(self):
        result = run(ExperimentConfig(method="mc", shots=5000, seed=3))
        data = self._written(result)
        assert_report_holds(data, result)
        assert data["report"]["shots"] == 5000
        assert data["report"]["epr"]["x_diff_db"] == result.report.epr.x_diff_db

    @pytest.mark.parametrize("method", ["analytic", "mc"])
    def test_writing_a_run_builds_no_array_of_its_state(self, method):
        # the report, trace and tomography read the output state's held floats
        config = ExperimentConfig(method=method, tomo_samples=5000, trace_points=32,
                                  grid_points=21)
        result = run(config, include_trace=True, include_wigner=True)
        files = scenario_files(result)
        state = result.report.output_state
        assert not hasattr(state, "_mean_array") and not hasattr(state, "_cov_array")
        written = json.loads(files["report.json"])["report"]["output_state"]
        assert written == {"mean": state.mean.tolist(), "cov": state.cov.tolist()}

    def test_artifact_roundtrip_is_lossless(self):
        config = ExperimentConfig(tomo_samples=5000, trace_points=32, grid_points=21)
        result = run(config, include_trace=True, include_wigner=True)
        data = self._written(result)
        assert_report_holds(data, result)
        assert np.array_equal(data["trace"]["power_db"], result.trace.power_db)
        assert np.array_equal(data["wigner"]["values"], result.wigner.values)

    def test_report_json_file_roundtrip(self, tmp_path):
        result = run(ExperimentConfig(seed=8))
        [path] = write_files(tmp_path, {"report.json": scenario_files(result)["report.json"]})
        data = json.loads(path.read_text(encoding="utf-8"))
        assert_report_holds(data, result)
        assert data["report"]["vx_db"] == result.report.vx_db

    def test_writers_are_deterministic(self, tmp_path):
        config = ExperimentConfig(tomo_samples=5000, grid_points=21, seed=4)
        blobs = []
        for name in ("a", "b"):
            result = run(config, include_trace=True, include_wigner=True)
            files = scenario_files(result)
            assert list(files) == ["report.json", "trace.csv", "wigner.csv"]
            paths = write_files(tmp_path / name, files)
            blobs.append(tuple(path.read_bytes() for path in paths))
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_json_writers_refuse_non_finite_numbers(self, bad, tmp_path):
        with pytest.raises(PhysicsError, match="^not writing report.json"):
            report_json({"cascade": [{"vx": bad}]})
        result = run(ExperimentConfig(seed=8))
        leaky = result._replace(provenance={**result.provenance, "seed": bad})
        with pytest.raises(PhysicsError, match="^not writing report.json"):
            write_files(tmp_path, scenario_files(leaky))
        assert list(tmp_path.iterdir()) == []

    def test_csv_shapes_and_headers(self):
        result = run(
            ExperimentConfig(tomo_samples=5000, trace_points=32, grid_points=21),
            include_trace=True,
            include_wigner=True,
        )
        files = scenario_files(result)
        lines = files["trace.csv"].splitlines()
        assert lines[0] == "theta_rad,power_db"
        assert len(lines) == 1 + 32
        lines = files["wigner.csv"].splitlines()
        assert lines[0] == "x0,x1,nx,p0,p1,np"
        geometry = lines[1].split(",")
        assert int(geometry[2]) == int(geometry[5]) == 21
        assert len(lines) == 2 + 21
        assert all(len(line.split(",")) == 21 for line in lines[2:])


class TestWriteFiles:
    def test_writes_utf8_lf_bytes_and_replaces_old_files(self, tmp_path):
        outdir = tmp_path / "a" / "b"
        files = {"report.json": "{\"η\": 1}\n", "trace.csv": "x\ny\n"}
        outdir.mkdir(parents=True)
        (outdir / "trace.csv").write_text("old", encoding="utf-8")
        paths = write_files(outdir, files)
        assert paths == [outdir / "report.json", outdir / "trace.csv"]
        assert [path.read_bytes() for path in paths] == [
            text.encode("utf-8") for text in files.values()
        ]
        assert sorted(p.name for p in outdir.iterdir()) == ["report.json", "trace.csv"]

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        (tmp_path / "report.json").write_text("old report", encoding="utf-8")
        (tmp_path / "wigner.csv").write_text("old grid", encoding="utf-8")
        real = os.replace
        calls = []

        def replace_once(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError(errno.EIO, "rename failed")
            real(src, dst)

        monkeypatch.setattr(harness.os, "replace", replace_once)
        with pytest.raises(OSError, match="rename failed"):
            write_files(tmp_path, {"report.json": "new\n", "wigner.csv": "new\n"})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "wigner.csv"]
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == "new\n"
        assert (tmp_path / "wigner.csv").read_text(encoding="utf-8") == "old grid"


def _file_calls(node, owner="<module>"):
    """(innermost enclosing function, name) of every call under ``node`` that
    makes, writes, renames or deletes a file or directory.  ``replace`` counts
    as ``os.replace`` and as a ``Path.replace(target)`` rename, an attribute
    call with one positional argument and no keywords: ``str.replace`` takes
    two, and ``dataclasses.replace`` is called by name."""
    touching = {"write_text", "write_bytes", "open", "mkdir", "makedirs", "rename",
                "os.replace", "Path.replace", "unlink", "remove", "touch", "rmdir"}
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _file_calls(child, child.name)
            continue
        if isinstance(child, ast.Call):
            callee = child.func
            if isinstance(callee, ast.Attribute):
                name = callee.attr
                if name == "replace" and getattr(callee.value, "id", None) == "os":
                    name = "os.replace"
                elif name == "replace" and len(child.args) == 1 and not child.keywords:
                    name = "Path.replace"
            else:
                name = getattr(callee, "id", None)
            if name in touching:
                yield owner, name
        yield from _file_calls(child, owner)


def test_only_write_files_touches_the_output_directory():
    """Every call in the package that makes, writes, renames or deletes a file
    sits inside ``harness.write_files``, so no output can skip its staging.
    Reads, such as the --config file's, are allowed."""
    package = Path(harness.__file__).parent
    found = {
        (path.name, *call)
        for path in sorted(package.glob("*.py"))
        for call in _file_calls(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {
        ("harness.py", "write_files", name)
        for name in ("mkdir", "write_text", "os.replace", "unlink")
    }


class TestCalibrateLosses:
    def test_pure_source_at_target_needs_no_loss(self):
        result = calibrate_losses((-6.0, -6.0), (-6.0, -6.0))
        assert result.eta_source[0] == pytest.approx(1.0, abs=1e-9)
        assert result.eta_source[1] == pytest.approx(1.0, abs=1e-9)

    def test_matches_closed_form(self):
        result = calibrate_losses((-5.6, -5.5), (-6.2, -6.2))
        eta_x = (1.0 - 10.0**-0.56) / (1.0 - 10.0**-0.62)
        eta_p = (1.0 - 10.0**-0.55) / (1.0 - 10.0**-0.62)
        assert result.eta_source[1] == pytest.approx(eta_x, abs=1e-9)
        assert result.eta_source[0] == pytest.approx(eta_p, abs=1e-9)
        assert abs(result.residual_x_db) < 1e-9
        assert abs(result.residual_p_db) < 1e-9

    def test_antisqueezing_does_not_move_the_fit(self):
        # the fitted efficiencies hit the targets through the Gaussian-state
        # chain whatever the squeezers' anti-squeezed levels
        fit = calibrate_losses((-5.6, -5.5), (-6.2, -6.2))
        for antisq in (None, (12.0, 12.0), (6.2, 30.0)):
            params = TeleporterParams(
                input_state=vacuum(1), epr_sq_db=(-6.2, -6.2), epr_antisq_db=antisq,
                eta_source=fit.eta_source,
            )
            corr = epr_correlations(make_epr(params))
            assert corr.x_diff_db == pytest.approx(-5.6, abs=1e-9)
            assert corr.p_sum_db == pytest.approx(-5.5, abs=1e-9)

    def test_idempotent_on_simulated_targets(self):
        generating = (0.87, 0.93)
        params = TeleporterParams(
            input_state=vacuum(1),
            epr_sq_db=(-6.2, -6.2),
            epr_antisq_db=(12.0, 12.0),
            eta_source=generating,
        )
        corr = epr_correlations(make_epr(params))
        result = calibrate_losses((corr.x_diff_db, corr.p_sum_db))
        assert result.eta_source[0] == pytest.approx(generating[0], abs=1e-6)
        assert result.eta_source[1] == pytest.approx(generating[1], abs=1e-6)

    def test_unreachable_targets_rejected(self):
        with pytest.raises(PhysicsError, match="below"):
            calibrate_losses((-7.0, -5.5), (-6.0, -6.0))
        with pytest.raises(PhysicsError, match="vacuum"):
            calibrate_losses((0.5, -5.5), (-6.0, -6.0))

    @pytest.mark.parametrize(
        "target, source_sq, message",
        [
            ((0.0, 0.0), (0.0, 0.0),
             "target 0.0 dB is below the 0.000 dB limit set by the source squeezing"),
            ((-5.6, -5.5), (1.0, -6.0),
             "squeezer 1 noise pair (+1, -1) dB is not a valid squeezed/anti-squeezed combination"),
            ((-1e-12, -3.0), (-6.0, -6.0),
             "target -1e-12 dB is not below the vacuum correlation level"),
            ((0.0, -1.0), (-6.0, -6.0),
             "target 0.0 dB is not below the vacuum correlation level"),
            ((1e308, -1.0), (-6.0, -6.0),
             "target 1e+308 dB is not below the vacuum correlation level"),
        ],
        ids=["unsqueezed-source", "invalid-source", "below-eta-floor", "vacuum-target",
             "huge-target"],
    )
    def test_edge_cases_raise_physics_error(self, target, source_sq, message):
        with pytest.raises(PhysicsError) as excinfo:
            calibrate_losses(target, source_sq)
        assert str(excinfo.value) == message

    def test_result_is_named(self):
        result = calibrate_losses((-5.6, -5.5))
        assert isinstance(result, CalibrationResult)
        assert result.achieved_x_db == pytest.approx(-5.6, abs=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("which", [2, 3], ids=["x", "p"])
    def test_non_finite_correlation_raises_physics_error(self, bad, which, monkeypatch):
        def source_map(*args):
            moments = list(teleporter._source_map(*args))
            moments[which] = bad
            return tuple(moments)

        monkeypatch.setattr(harness, "_source_map", source_map)
        with pytest.raises(PhysicsError, match="^EPR correlations .* are not finite$"):
            calibrate_losses((-5.6, -5.5))

    def test_parameters_are_validated_once(self, monkeypatch):
        checked = []
        init = TeleporterParams.__init__

        def counting(self, *args, **kwargs):
            checked.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TeleporterParams, "__init__", counting)
        calibrate_losses((-5.6, -5.5))
        assert len(checked) == 1


class TestBenchmarkAndRepro:
    def test_benchmark_config_hits_measured_correlations(self):
        config = benchmark_config("coherent")
        corr = epr_correlations(make_epr(config.teleporter_params()))
        assert corr.x_diff_db == pytest.approx(-5.6, abs=1e-6)
        assert corr.p_sum_db == pytest.approx(-5.5, abs=1e-6)

    def test_paper_repro_all_rows_pass(self):
        rows = paper_repro()
        assert {row.criterion for row in rows} == set(range(1, 12))
        failed = [row.quantity for row in rows if not row.passed]
        assert failed == []

    def test_repro_table_formatting(self):
        rows = paper_repro()
        table = format_repro_table(rows)
        assert "quantity" in table.splitlines()[0]
        assert f"{len(rows)}/{len(rows)} rows pass" in table
        assert "FAIL" not in table


class TestMcSigmaGate:
    """`_mc_max_sigma`, the score of paper-repro criterion 8."""

    # a point of the criterion-8 sweep: -6 dB resource, gain 1/2, no loss
    PARAMS = TeleporterParams(
        input_state=coherent_state(3.5 + 0j), epr_sq_db=(-6.0, -6.0), g_x=0.5, g_p=0.5
    )

    def test_non_finite_moments_fail(self, monkeypatch):
        def nan_mc(params, shots, rng=None):
            report = teleport_analytic(params)
            nan_cov = np.full((2, 2), np.nan).tolist()
            output = gaussian._own(report.output_state.mean.tolist(), nan_cov)
            return report._replace(output_state=output)

        monkeypatch.setattr(harness, "teleport_mc", nan_mc)
        sigma = _mc_max_sigma(self.PARAMS, 100_000, 814)
        assert sigma == np.inf and not sigma <= 5.0

    def test_state_preparation_bug_fails(self, monkeypatch):
        # the EPR mixer at 0.45 instead of 0.5; the analytic source map does
        # not read make_epr, so only the Monte Carlo comparison can see it
        assert _mc_max_sigma(self.PARAMS, 100_000, 814) <= 5.0
        make_epr_at_half = teleporter.make_epr
        mixer = teleporter._beamsplitter_moments

        def mixer_at_045(mean, cov, mode_i, mode_j, transmittance):
            return mixer(mean, cov, mode_i, mode_j, 0.45)

        def make_epr_at_045(params):
            # make_epr's one beamsplitter kernel is the EPR mixer
            with monkeypatch.context() as inner:
                inner.setattr(teleporter, "_beamsplitter_moments", mixer_at_045)
                return make_epr_at_half(params)

        monkeypatch.setattr(teleporter, "make_epr", make_epr_at_045)
        assert _mc_max_sigma(self.PARAMS, 100_000, 814) > 5.0
