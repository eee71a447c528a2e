"""Command-line front end.

Verbs: run, trace, wigner, cascade, calibrate, paper-repro.  The scenario
verbs (run, trace, wigner, cascade) take a flag for every [run] and
[teleporter] config key; trace adds the [trace] keys and wigner the
[tomography] keys.  A flag is its config key with "_" turned into "-"; pair
keys take two values.  These flags, calibrate's pair flags and cascade's
--stages are built from the harness's field tables and parsed and checked
exactly like config text, so a non-finite or out-of-range number is a config
error; a value that reads as a number, such as -1e-3 or -inf, is never taken
for an option.  Precedence is built-in defaults < config file < flags.  The
output directory resolves as --out, then [output] dir, then the
CVTELEPORT_OUTDIR environment variable, then the working directory.

Exit codes: 0 success, 1 I/O failure, 2 config error (argparse uses the same
code for bad flags), 3 physics-invariant violation, 4 reference-comparison
failure in paper-repro.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from ._version import __version__
from .gaussian import PhysicsError
from .harness import (
    OUTDIR_ENV_VAR,
    BENCHMARK_SOURCE_SQ_DB,
    BENCHMARK_TARGET_EPR_DB,
    CALIBRATION_FIELDS,
    CASCADE_FIELDS,
    CONFIG_FIELDS,
    ConfigError,
    ExperimentConfig,
    calibrate_losses,
    format_repro_table,
    paper_repro,
    parse_config,
    run,
    write_json,
    write_report_json,
    write_trace_csv,
    write_wigner_csv,
)
from .teleporter import cascade


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes every number as a value, never as an
    option, so ``--alpha -1e-3`` and ``--alpha -inf`` reach the config checks.
    No cvteleport option looks like a number.  Subparsers share the class."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _add_field_flags(parser: argparse.ArgumentParser, fields) -> None:
    """A flag for every field of ``fields``."""
    for field in fields:
        parser.add_argument(field.flag, help=field.help, **field.kind.flag_options)


def _add_scenario_flags(parser: argparse.ArgumentParser, section: str | None = None) -> None:
    """--config, --out, and a flag for every [run], [teleporter] and
    ``section`` config key."""
    parser.add_argument("--config", metavar="FILE", help="config file to load")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    sections = ("run", "teleporter", section)
    _add_field_flags(parser, [field for field in CONFIG_FIELDS if field.section in sections])


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cvteleport",
        description="Broadband continuous-variable teleportation simulator.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="verb", required=True)

    p_run = subparsers.add_parser("run", help="teleport one scenario, write report.json")
    _add_scenario_flags(p_run)

    p_trace = subparsers.add_parser("trace", help="also write a phase-scan trace.csv")
    _add_scenario_flags(p_trace, "trace")

    p_wigner = subparsers.add_parser(
        "wigner", help="reconstruct the output Wigner function, write wigner.csv"
    )
    _add_scenario_flags(p_wigner, "tomography")

    p_cascade = subparsers.add_parser("cascade", help="teleport through repeated stages")
    _add_scenario_flags(p_cascade)
    _add_field_flags(p_cascade, CASCADE_FIELDS)

    p_cal = subparsers.add_parser(
        "calibrate", help="fit source efficiencies to measured correlations"
    )
    p_cal.add_argument("--out", metavar="DIR", help="output directory")
    _add_field_flags(p_cal, CALIBRATION_FIELDS)

    p_repro = subparsers.add_parser(
        "paper-repro", help="recompute the reference table; exit 4 on failure"
    )
    p_repro.add_argument("--out", metavar="DIR", help="output directory")
    return parser


def _flag_values(args: argparse.Namespace, fields) -> dict:
    """The given flags of ``fields``, parsed like config text, by attribute."""
    values = {}
    for field in fields:
        value = getattr(args, field.key, None)
        if value is None:
            continue
        if isinstance(value, list):  # the two values of a pair flag
            value = " ".join(value)
        try:
            values[field.attr] = (
                value if isinstance(value, bool) else field.kind.parse(value)
            )
        except ValueError as exc:
            raise ConfigError(f"[{field.section}] {field.key} ({field.flag}): {exc}") from exc
    return values


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config is not None:
        text = Path(args.config).read_text(encoding="utf-8")
    else:
        text = ""
    config = parse_config(text)
    overrides = _flag_values(args, CONFIG_FIELDS)
    if overrides:
        try:
            config = replace(config, **overrides)
        except (PhysicsError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
    return config


def _output_dir(args: argparse.Namespace, config: ExperimentConfig | None) -> Path:
    if getattr(args, "out", None):
        directory = args.out
    elif config is not None and config.output_dir:
        directory = config.output_dir
    else:
        directory = os.environ.get(OUTDIR_ENV_VAR, ".")
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _print_report(result) -> None:
    report = result.report
    print(f"scenario: {result.config.scenario} ({report.method})")
    print(f"Vx: {report.vx:.6g} ({report.vx_db:+.3f} dB)  "
          f"Vp: {report.vp:.6g} ({report.vp_db:+.3f} dB)")
    if report.fidelity_coherent is not None:
        print(f"fidelity: {report.fidelity_coherent:.5f}")
    print(f"delta_sq_out: {report.delta_sq_out:.5f} "
          f"({'entangled' if report.delta_sq_out < 1 else 'not entangled'})")


def _cmd_scenario(args: argparse.Namespace, verb: str) -> int:
    config = _load_config(args)
    outdir = _output_dir(args, config)
    result = run(
        config, include_trace=(verb == "trace"), include_wigner=(verb == "wigner")
    )
    _print_report(result)
    report_path = outdir / "report.json"
    write_report_json(result, report_path)
    written = [report_path]
    if result.trace is not None:
        trace_path = outdir / "trace.csv"
        write_trace_csv(result.trace, trace_path)
        written.append(trace_path)
    if result.wigner is not None:
        wigner_path = outdir / "wigner.csv"
        write_wigner_csv(result.wigner, wigner_path)
        written.append(wigner_path)
    for path in written:
        print(f"wrote {path}")
    return 0


def _write_report(payload: dict, outdir: Path) -> None:
    """Write ``payload``, stamped with the package version, to
    ``outdir/report.json`` and say so; ``write_json`` encodes its results."""
    path = outdir / "report.json"
    write_json({**payload, "version": __version__}, path)
    print(f"wrote {path}")


def _cmd_cascade(args: argparse.Namespace) -> int:
    config = _load_config(args)
    outdir = _output_dir(args, config)
    n_stages = _flag_values(args, CASCADE_FIELDS).get("stages", 4)
    stages = cascade(config.teleporter_params(), n_stages)
    print("stage  fidelity  Vx        Vp")
    for stage in stages:
        print(f"{stage.stage:>5}  {stage.fidelity:.6f}  "
              f"{stage.vx:.6f}  {stage.vp:.6f}")
    _write_report({"cascade": stages, "seed": config.seed}, outdir)
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    inputs = _flag_values(args, CALIBRATION_FIELDS)
    result = calibrate_losses(
        inputs.get("target_epr_db", BENCHMARK_TARGET_EPR_DB),
        inputs.get("source_sq_db", BENCHMARK_SOURCE_SQ_DB),
    )
    print(f"eta_source: {result.eta_source[0]:.6f} (p path), "
          f"{result.eta_source[1]:.6f} (x path)")
    print(f"achieved: {result.achieved_x_db:.4f} dB (x), "
          f"{result.achieved_p_db:.4f} dB (p)")
    print(f"residuals: {result.residual_x_db:.2e} dB (x), "
          f"{result.residual_p_db:.2e} dB (p)")
    if args.out:
        _write_report({"calibration": result}, _output_dir(args, None))
    return 0


def _cmd_paper_repro(args: argparse.Namespace) -> int:
    rows = paper_repro()
    print(format_repro_table(rows))
    if args.out:
        _write_report({"reference_comparison": rows}, _output_dir(args, None))
    return 0 if all(row.passed for row in rows) else 4


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb in ("run", "trace", "wigner"):
            return _cmd_scenario(args, args.verb)
        if args.verb == "cascade":
            return _cmd_cascade(args)
        if args.verb == "calibrate":
            return _cmd_calibrate(args)
        return _cmd_paper_repro(args)
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
