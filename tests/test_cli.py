"""End-to-end tests of the command-line interface (in-process)."""

import errno
import json
import os
from pathlib import Path

import pytest
from conftest import fresh_python

import cvteleport.cli as cli
from cvteleport.harness import MAX_GRID_POINTS, MAX_SAMPLES, MAX_STAGES, MAX_TRACE_POINTS, ReproRow


def invoke(*argv):
    return cli.main(list(argv))


class TestRunVerb:
    def test_writes_report_and_prints_summary(self, tmp_path, capsys):
        code = invoke("run", "--scenario", "coherent", "--out", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "fidelity: 0.79924" in out
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["report"]["method"] == "analytic"
        assert payload["provenance"]["seed"] == 0

    def test_config_file_then_flags_precedence(self, tmp_path, capsys):
        config = tmp_path / "exp.ini"
        config.write_text("[run]\nscenario = vacuum\nseed = 3\n", encoding="utf-8")
        code = invoke(
            "run", "--config", str(config), "--seed", "9", "--out", str(tmp_path)
        )
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert "scenario = vacuum" in payload["config_text"]
        assert payload["provenance"]["seed"] == 9

    def test_seed_above_float_range_is_accepted(self, tmp_path):
        seed = 10**400
        assert invoke("run", "--seed", str(seed), "--out", str(tmp_path)) == 0
        assert json.loads((tmp_path / "report.json").read_text())["provenance"]["seed"] == seed

    def test_mc_method_reports_shots(self, tmp_path):
        code = invoke(
            "run", "--method", "mc", "--shots", "5000", "--out", str(tmp_path)
        )
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["report"]["shots"] == 5000

    def test_outdir_env_var_is_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CVTELEPORT_OUTDIR", str(tmp_path / "fromenv"))
        assert invoke("run") == 0
        assert (tmp_path / "fromenv" / "report.json").exists()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CVTELEPORT_OUTDIR", str(tmp_path / "fromenv"))
        assert invoke("run", "--out", str(tmp_path / "flag")) == 0
        assert (tmp_path / "flag" / "report.json").exists()
        assert not (tmp_path / "fromenv").exists()


class TestTraceAndWignerVerbs:
    def test_trace_csv_written(self, tmp_path):
        code = invoke(
            "trace", "--scenario", "squeezed_x", "--n-points", "48",
            "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "theta_rad,power_db"
        assert len(lines) == 49

    def test_wigner_csv_written(self, tmp_path):
        code = invoke(
            "wigner", "--scenario", "vacuum", "--samples", "5000",
            "--grid-points", "31", "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "wigner.csv").read_text().splitlines()
        assert lines[0] == "x0,x1,nx,p0,p1,np"
        assert len(lines) == 2 + 31
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["wigner"]["n_x"] == 31

    def test_wigner_cutoff_flag_accepts_auto(self, tmp_path):
        code = invoke(
            "wigner", "--scenario", "vacuum", "--samples", "5000",
            "--cutoff", "auto", "--out", str(tmp_path),
        )
        assert code == 0

    def test_deterministic_outputs(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            outdir = tmp_path / name
            assert invoke(
                "trace", "--method", "mc", "--shots", "4000", "--seed", "6",
                "--sampled", "--out", str(outdir),
            ) == 0
            blobs.append(
                (outdir / "report.json").read_bytes()
                + (outdir / "trace.csv").read_bytes()
            )
        assert blobs[0] == blobs[1]


class TestCascadeVerb:
    def test_prints_stage_fidelities(self, tmp_path, capsys):
        code = invoke("cascade", "--stages", "4", "--out", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "0.799240" in out and "0.498814" in out
        payload = json.loads((tmp_path / "report.json").read_text())
        assert [row["stage"] for row in payload["cascade"]] == [1, 2, 3, 4]

    def test_default_is_four_stages(self, tmp_path):
        assert invoke("cascade", "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert len(payload["cascade"]) == 4

    def test_non_coherent_input_is_config_error(self, tmp_path, capsys):
        code = invoke(
            "cascade", "--scenario", "squeezed_x", "--out", str(tmp_path)
        )
        assert code == 2
        assert "coherent" in capsys.readouterr().err


class TestCalibrateVerb:
    def test_prints_fit_and_writes_json(self, tmp_path, capsys):
        code = invoke("calibrate", "--out", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "0.953245" in out and "0.944805" in out
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["calibration"]["achieved_x_db"] == pytest.approx(-5.6)

    def test_unreachable_target_is_physics_error(self, capsys):
        code = invoke(
            "calibrate", "--target-epr-db", "-7", "-7",
            "--source-sq-db", "-6", "-6",
        )
        assert code == 3
        assert "physics error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--source-antisq-db", "12", "12"], ["--pure-sources"]])
    def test_anti_squeezing_flags_are_gone(self, argv, capsys):
        # the anti-squeezed level cannot move the fit, so calibrate takes none
        with pytest.raises(SystemExit) as excinfo:
            invoke("calibrate", *argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestErrorPaths:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[teleporter]\ngaain = 1\n", encoding="utf-8")
        code = invoke("run", "--config", str(config))
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown key" in err and "line 2" in err

    @pytest.mark.parametrize("text, argv, line", [
        ("[teleporter]\nepr_sq_db = -6 -6\nepr_antisq_db = 3 3\n", ["--epr-antisq-db", "8", "8"],
         "epr_antisq_db = 8.0 8.0\n"),
        ("[teleporter]\neta_hom = 1e-7\n", ["--eta-hom", "0.9"], "eta_hom = 0.9\n"),
    ], ids=["noise-pair", "eta-hom-floor"])
    def test_flags_can_make_a_file_valid(self, text, argv, line, tmp_path):
        # a rule that spans keys judges the file's values with the flags laid over them
        config = tmp_path / "exp.ini"
        config.write_text(text, encoding="utf-8")
        assert invoke("run", "--config", str(config), *argv, "--out", str(tmp_path)) == 0
        assert line in json.loads((tmp_path / "report.json").read_text())["config_text"]

    @pytest.mark.parametrize("text, argv, message", [
        ("[run]\ninput_sq_db = -6\ninput_antisq_db = 3\n", ["--scenario", "squeezed_x"],
         "[run] input_sq_db (line 2): squeezed vacuum noise pair (-6, +3) dB"),
        # the first key the rule spans, at its line when the file set it ...
        ("[teleporter]\nepr_sq_db = -6 -6\n", ["--epr-antisq-db", "3", "3"],
         "[teleporter] epr_sq_db (line 2): squeezer 1 noise pair (-6, +3) dB"),
        # ... and at its flag when a flag did
        ("[teleporter]\nepr_antisq_db = 3 3\n", ["--epr-sq-db", "-6", "-6"],
         "[teleporter] epr_sq_db (--epr-sq-db): squeezer 1 noise pair (-6, +3) dB"),
        # a file key that fails its own kind's check is an error whatever the flags
        ("[teleporter]\neta_hom = 2.0\n", ["--eta-hom", "0.9"],
         "[teleporter] eta_hom (line 2): must lie in [0, 1], got 2.0\n"),
        # and is reported before a flag that fails its own
        ("[teleporter]\neta_hom = 2.0\n", ["--alpha", "nan"],
         "[teleporter] eta_hom (line 2): must lie in [0, 1], got 2.0\n"),
    ], ids=["scenario-flag", "rule-at-line", "rule-at-flag", "file-key-overridden",
            "file-key-before-flag"])
    def test_merged_config_error_is_located(self, text, argv, message, tmp_path, capsys):
        config = tmp_path / "exp.ini"
        config.write_text(text, encoding="utf-8")
        assert invoke("run", "--config", str(config), *argv, "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("text, message", [
        ("[DEFAULT]\neta_hom = 2.0\nbogus = 1\n", "[default] (line 1): unknown section"),
        ("[DEFAULT]\nalpha = 2.0\n\n[run]\nscenario = coherent\n",
         "[default] (line 1): unknown section"),
        ("[output]\ndir = res\n  ults\n",
         "[output] dir (line 2): must be one line, got 'res\\nults'"),
        ("[run]\nseed = 1\n[output]\ndir = a\n\tb\n",
         "[output] dir (line 4): must be one line, got 'a\\nb'"),
    ], ids=["default-section", "default-beside-run", "dir-continuation", "dir-tab-continuation"])
    def test_text_that_configparser_reads_loosely_exits_2(
        self, text, message, tmp_path, monkeypatch, capsys
    ):
        # run where a run would write, so one that passes shows as a new file
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CVTELEPORT_OUTDIR", raising=False)
        (tmp_path / "exp.ini").write_text(text, encoding="utf-8")
        assert invoke("run", "--config", "exp.ini") == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["exp.ini"]

    @pytest.mark.parametrize("text, reason", [
        ("alpha = 2.0\n[run]\n", "File contains no section headers."),
        ("[run]\nalpha = 2.0\nalpha = 3.0\n", "option 'alpha' in section 'run' already exists"),
        ("[run]\nalpha = 2.0\n\n[run]\nseed = 1\n", "section 'run' already exists"),
    ], ids=["key-before-section", "duplicate-key", "duplicate-section"])
    def test_malformed_config_exits_2(self, text, reason, tmp_path, capsys):
        config = tmp_path / "exp.ini"
        config.write_text(text, encoding="utf-8")
        assert invoke("run", "--config", str(config), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed config: ") and reason in err
        assert not (tmp_path / "report.json").exists()

    def test_invalid_flag_value_exits_2(self, capsys):
        code = invoke("run", "--eta-hom", "2.0")
        assert code == 2
        assert "eta_hom" in capsys.readouterr().err

    @pytest.mark.parametrize("value, message", [
        ("2.5", "must lie in [0, 1], got 2.5"),
        ("1e-7", "eta_hom too small to compensate electronically"),
        ("0", "eta_hom too small to compensate electronically"),
        ("-0", "eta_hom too small to compensate electronically"),
        ("5e-7", "eta_hom too small to compensate electronically"),
    ], ids=["fraction", "floor", "floor-zero", "floor-negative-zero", "floor-half"])
    def test_fraction_flag_error_names_its_flag(self, value, message, capsys):
        assert invoke("run", "--eta-hom", value) == 2
        assert capsys.readouterr().err == (
            f"config error: [teleporter] eta_hom (--eta-hom): {message}\n"
        )

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["run", "--alpha", "nan"], "alpha"),
            (["run", "--alpha", "inf"], "alpha"),
            (["run", "--input-sq-db", "nan"], "input_sq_db"),
            (["run", "--scenario", "squeezed_x", "--input-antisq-db", "inf"],
             "input_antisq_db"),
            (["wigner", "--grid-pad", "nan"], "grid_pad"),
            (["wigner", "--cutoff", "nan"], "cutoff"),
        ],
    )
    def test_non_finite_flag_exits_2(self, argv, field, tmp_path, capsys):
        code = invoke(*argv, "--out", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "flag, values",
        [
            ("--target-epr-db", ["nan", "-5.5"]),
            ("--target-epr-db", ["-5.6", "inf"]),
            ("--source-sq-db", ["nan", "-6"]),
        ],
    )
    def test_non_finite_calibrate_flag_exits_2(self, flag, values, tmp_path, capsys):
        code = invoke("calibrate", flag, *values, "--out", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"({flag}): must be finite" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["wigner", "--samples", "1000000000", "--grid-points", "3"], "--samples"),
            (["run", "--method", "mc", "--shots", "1000000000"], "--shots"),
        ],
    )
    def test_oversized_sample_count_exits_2(self, argv, flag, tmp_path, capsys):
        code = invoke(*argv, "--out", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"({flag}): must be <=" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--seed", "-1"], "[run] seed (--seed): must be >= 0"),
            (["cascade", "--stages", "0"], "[cascade] stages (--stages): must be >= 1"),
            (["cascade", "--stages", "abc"], "[cascade] stages (--stages): invalid literal"),
            (["cascade", "--stages", str(MAX_STAGES + 1)],
             f"[cascade] stages (--stages): must be <= {MAX_STAGES}"),
            (["wigner", "--grid-pad", "-1"], "[tomography] grid_pad (--grid-pad): must be positive"),
            (["wigner", "--cutoff", "0"], "[tomography] cutoff (--cutoff): must be positive"),
            (["wigner", "--cutoff", "-1"], "[tomography] cutoff (--cutoff): must be positive"),
            (["trace", "--n-points", str(MAX_TRACE_POINTS + 1)],
             f"[trace] n_points (--n-points): must be <= {MAX_TRACE_POINTS}"),
            (["trace", "--sampled", "--averages", str(MAX_SAMPLES + 1)],
             f"[trace] averages (--averages): must be <= {MAX_SAMPLES}"),
            (["trace", "--sampled", "--averages", "1" + "0" * 400],
             f"[trace] averages (--averages): must be <= {MAX_SAMPLES}"),
            (["wigner", "--grid-points", str(MAX_GRID_POINTS + 1)],
             f"[tomography] grid_points (--grid-points): must be <= {MAX_GRID_POINTS}"),
            # the quadrature bin count overflows a float, or int() of it
            (["wigner", "--cutoff", "1e308"],
             "filter cutoff 1e+308 over a window half-width 7.18 needs inf quadrature bins"),
            (["wigner", "--grid-pad", "1e308"],
             "filter cutoff 11.1 over a window half-width 9.1e+307 needs inf quadrature bins"),
            # the window's width overflows a float
            (["wigner", "--grid-pad", "1.7e308"],
             "grid_pad: pad 1.7e+308 overflows a float window at the state's spread"),
        ],
        ids=["seed-negative", "stages-zero", "stages-not-a-number", "stages-too-many",
             "grid-pad-negative", "cutoff-zero", "cutoff-negative", "n-points-too-many",
             "averages-too-many", "averages-huge", "grid-points-too-many", "cutoff-huge",
             "grid-pad-huge", "grid-pad-overflow"],
    )
    def test_out_of_range_count_flag_exits_2(self, argv, message, tmp_path, capsys):
        code = invoke(*argv, "--out", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "argv, code, text",
        [
            (["run", "--alpha", "-1e-3"], 0, "alpha = -0.001\n"),
            (["run", "--epr-sq-db", "-1e-1", "-6"], 0, "epr_sq_db = -0.1 -6.0\n"),
            (["run", "--alpha", "-inf"], 2, "[run] alpha (--alpha): must be finite"),
            (["calibrate", "--target-epr-db", "-5.6", "-inf"], 2,
             "[calibrate] target_epr_db (--target-epr-db): must be finite"),
        ],
        ids=["alpha-exponent", "pair-exponent", "alpha-minus-inf", "calibrate-minus-inf"],
    )
    def test_negative_number_is_a_flag_value(self, argv, code, text, tmp_path, capsys):
        assert invoke(*argv, "--out", str(tmp_path)) == code
        if code == 0:
            payload = json.loads((tmp_path / "report.json").read_text())
            assert text in payload["config_text"]
        else:
            assert capsys.readouterr().err.startswith(f"config error: {text}")

    def test_overflowing_anti_squeezing_exits_2(self, tmp_path, capsys):
        code = invoke("run", "--epr-antisq-db", "4000", "4000", "--out", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: [teleporter] epr_antisq_db (--epr-antisq-db): squeezer 1 noise "
            "pair (-6, +4e+03) dB is not a valid squeezed/anti-squeezed combination\n"
        )
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [["run"], ["run", "--method", "mc"], ["trace"], ["wigner"]])
    def test_non_finite_result_exits_3_before_printing(self, argv, tmp_path, capsys):
        code = invoke(*argv, "--g-x", "1e200", "--out", str(tmp_path))
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("physics error: teleporter output covariance is not finite")
        assert not any(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["trace", "--alpha", "1e200"], "trace power is not finite at 240 of 240 phases"),
            (["trace", "--sampled", "--alpha", "1e160"], "trace power is not finite at "),
            (["wigner", "--alpha", "1e200"],
             "a 4.5-sd window cannot be resolved at the state's mean (1e+200, 0)"),
        ],
        ids=["trace-exact", "trace-sampled", "wigner-window"],
    )
    def test_huge_amplitude_exits_3_before_printing(self, argv, message, tmp_path, capsys):
        outdir = tmp_path / "new"
        code = invoke(*argv, "--out", str(outdir))
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"physics error: {message}")
        assert not outdir.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["trace", "--alpha", "1e200"], 3),
            (["wigner", "--alpha", "1e200"], 3),
            (["wigner", "--cutoff", "1e308"], 2),
            (["run", "--g-x", "1e200"], 3),
            (["cascade", "--epr-antisq-db", "4000", "4000"], 2),
        ],
        ids=["trace-power", "wigner-window", "wigner-cutoff", "run-gain", "cascade-noise-pair"],
    )
    def test_failed_run_makes_no_directory(self, argv, code, tmp_path, capsys):
        outdir = tmp_path / "a" / "b"
        assert invoke(*argv, "--out", str(outdir)) == code
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("verb", ["run", "trace", "cascade", "calibrate", "paper-repro"])
    def test_unwritable_output_prints_nothing(self, verb, tmp_path, capsys):
        # --out names a file, so the output directory cannot be made
        path = tmp_path / "a-file"
        path.write_text("", encoding="utf-8")
        assert invoke(verb, "--out", str(path)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("i/o error: [Errno 17] File exists")

    def test_failed_write_keeps_the_previous_run(self, tmp_path, monkeypatch, capsys):
        assert invoke("trace", "--sampled", "--seed", "1", "--out", str(tmp_path)) == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert sorted(before) == ["report.json", "trace.csv"]
        capsys.readouterr()
        write_text = Path.write_text
        calls = []

        def full_on_second_call(self, *args, **kwargs):
            calls.append(self)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", full_on_second_call)
        assert invoke("trace", "--sampled", "--seed", "2", "--out", str(tmp_path)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("i/o error: [Errno 28]")
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_first_write_makes_the_directory(self, tmp_path):
        outdir = tmp_path / "a" / "b"
        assert invoke("trace", "--out", str(outdir)) == 0
        assert sorted(p.name for p in outdir.iterdir()) == ["report.json", "trace.csv"]

    def test_unfactorable_mc_read_out_exits_3(self, tmp_path, capsys):
        # 200 dB anti-squeezing leaves the read-out covariance numerically singular
        code = invoke("run", "--method", "mc", "--epr-antisq-db", "200", "200",
                      "--out", str(tmp_path))
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "physics error: Monte Carlo read-out covariance"
        )
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("argv, shots", [
        (["run", "--method", "mc", "--epr-sq-db", "-40", "-40", "--seed", "0"], 100_000),
        (["run", "--method", "mc", "--shots", "2", "--seed", "2"], 2),
        (["trace", "--method", "mc", "--shots", "2", "--seed", "2"], 2),
        (["wigner", "--method", "mc", "--shots", "2", "--seed", "3"], 2),
    ], ids=["run-40dB", "run-2-shots", "trace-2-shots", "wigner-2-shots"])
    def test_mc_estimate_that_is_not_a_state_exits_3(self, argv, shots, tmp_path, capsys):
        # these wrote a fidelity of 1.0005 (-40 dB), and 1.9157 or 1.2893 with
        # "(entangled)" (2 shots), each with exit 0
        assert invoke(*argv, "--out", str(tmp_path)) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"physics error: Monte Carlo output covariance of {shots} shots "
                              "is not a state's: C_xx = ")
        assert list(tmp_path.iterdir()) == []

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        code = invoke("run", "--config", str(tmp_path / "nope.ini"))
        assert code == 1
        assert "i/o error" in capsys.readouterr().err

    def test_repro_failure_exits_4(self, monkeypatch, capsys):
        rows = [ReproRow(1, "threshold_db", "-4.771 +/- 1e-9", -3.0, False)]
        monkeypatch.setattr(cli, "paper_repro", lambda: rows)
        code = invoke("paper-repro")
        assert code == 4
        assert "FAIL" in capsys.readouterr().out


class TestPaperReproVerb:
    def test_passes_and_writes_table(self, tmp_path, capsys):
        code = invoke("paper-repro", "--out", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "rows pass" in out and "FAIL" not in out
        payload = json.loads((tmp_path / "report.json").read_text())
        assert all(row["passed"] for row in payload["reference_comparison"])


def test_cli_import_loads_nothing_beyond_the_standard_library():
    """Every verb runs in a fresh process that pays for these imports."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cvteleport.cli\n"
        "added = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(*sorted(added - set(sys.stdlib_module_names)))\n"
    )
    assert fresh_python(code).split() == ["cvteleport"]


# Runs each argv in turn in one fresh process and prints, per argv, its exit
# code and whether numpy was loaded by then.
_VERB_PROBE = """
import contextlib, io, json, sys
from cvteleport.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, "numpy" in sys.modules])
print(json.dumps(results))
"""


def test_analytic_and_error_verbs_finish_without_numpy(tmp_path):
    """The analytic verbs and the config and physics errors, as the benchmark's
    verb mix runs them, load no numpy; the verbs that draw or reconstruct,
    run after them in the same process, import it where they need it."""
    (tmp_path / "run.ini").write_text(
        "[run]\nscenario = squeezed_x\nalpha = 2.5\nseed = 7\n[teleporter]\n"
        "epr_sq_db = -5.1 -4.2\ng_x = 0.9\ng_p = 1.1\neta_source = 0.9 0.95\n"
        "eta_hom = 0.9\n", encoding="utf-8")
    (tmp_path / "bad.ini").write_text("[run]\nscenario = coherent\nbogus_key = 1\n",
                                      encoding="utf-8")
    scenario = ["--scenario", "coherent", "--seed", "3", "--alpha", "1.5",
                "--epr-sq-db", "-4", "-5", "--eta-prop", "0.9", "0.95", "--eta-hom", "0.9"]
    without_numpy = [
        (["run", *scenario], 0),
        (["run", "--config", "run.ini"], 0),
        (["cascade", "--stages", "8", "--alpha", "2", "--epr-sq-db", "-4", "-5"], 0),
        (["calibrate", "--target-epr-db", "-3", "-4"], 0),
        (["run", "--alpha", "nan"], 2),
        (["run", "--config", "bad.ini"], 2),
        (["calibrate", "--target-epr-db", "-9", "-8"], 3),
    ]
    with_numpy = [["run", "--method", "mc", *scenario], ["trace", "--sampled", *scenario],
                  ["wigner", "--samples", "100000", *scenario]]
    argvs = [[*argv, "--out", f"out{k}"] if argv[0] != "calibrate" else argv
             for k, argv in enumerate([argv for argv, _ in without_numpy] + with_numpy)]
    results = json.loads(fresh_python(_VERB_PROBE, json.dumps(argvs), cwd=tmp_path))
    expected = [[code, False] for _, code in without_numpy] + [[0, True]] * len(with_numpy)
    assert results == expected
