"""Command-line front end.

Verbs: run, trace, wigner, cascade, calibrate, paper-repro.  The scenario
verbs (run, trace, wigner, cascade) take a flag for every [run] and
[teleporter] config key; trace adds the [trace] keys and wigner the
[tomography] keys.  A flag is its config key with "_" turned into "-"; pair
keys take two values.  These flags, calibrate's pair flags and cascade's
--stages are built from the harness's field tables.  A flag's value is read
from its text and checked by its kind's one rule, as config text and
ExperimentConfig values are, so a non-finite or out-of-range number is a
config error; a value that reads as a number, such as -1e-3 or -inf, is
never taken for an option.  Precedence is built-in defaults < config file <
flags, laid over the file's checked keys before the config is built once: a
rule that spans keys judges the merged values, and its error names the flag
if a flag set the key, otherwise the line.  The output directory resolves as
--out, then [output] dir, then the CVTELEPORT_OUTDIR environment variable,
then the working directory.  Each verb computes, builds its files in memory,
writes them with ``harness.write_files`` and only then prints, so a failed run
makes no directory and a failed write prints nothing and leaves old files as
they were.

Exit codes: 0 success, 1 I/O failure, 2 config error (argparse uses the same
code for bad flags), 3 physics-invariant violation, 4 reference-comparison
failure in paper-repro.
"""

from __future__ import annotations

import argparse
import os
import sys
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
    ExperimentConfig,
    calibrate_losses,
    format_repro_table,
    paper_repro,
    report_json,
    run,
    scenario_files,
    write_files,
    _build_config,
    _flag_error,
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
    """The given flags of ``fields``, read and checked like config text, by attribute."""
    values = {}
    for field in fields:
        value = getattr(args, field.key, None)
        if value is None:
            continue
        if isinstance(value, list):  # the two values of a pair flag
            value = " ".join(value)
        try:  # a BooleanOptionalAction flag is already a bool
            values[field.attr] = field.kind.check(
                value if isinstance(value, bool) else field.kind.read(value)
            )
        except ValueError as exc:
            raise _flag_error(field, exc) from exc
    return values


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    text = "" if args.config is None else Path(args.config).read_text(encoding="utf-8")
    return _build_config(text, lambda: _flag_values(args, CONFIG_FIELDS))


def _output_dir(args: argparse.Namespace, config: ExperimentConfig | None) -> Path:
    if args.out:
        directory = args.out
    elif config is not None and config.output_dir:
        directory = config.output_dir
    else:
        directory = os.environ.get(OUTDIR_ENV_VAR, ".")
    return Path(directory)


def _write_then_print(outdir: Path, files: dict[str, str], summary: str) -> None:
    """Write ``files`` to ``outdir`` (nothing when there are none), then
    print ``summary`` and a line per file written."""
    written = write_files(outdir, files) if files else []
    print(summary)
    for path in written:
        print(f"wrote {path}")


def _report_file(payload: dict) -> dict[str, str]:
    """``payload``, stamped with the package version, as a report.json."""
    return {"report.json": report_json({**payload, "version": __version__})}


def _cmd_scenario(args: argparse.Namespace, verb: str) -> int:
    config = _load_config(args)
    result = run(
        config, include_trace=(verb == "trace"), include_wigner=(verb == "wigner")
    )
    report = result.report
    summary = [
        f"scenario: {config.scenario} ({report.method})",
        f"Vx: {report.vx:.6g} ({report.vx_db:+.3f} dB)  "
        f"Vp: {report.vp:.6g} ({report.vp_db:+.3f} dB)",
    ]
    if report.fidelity_coherent is not None:
        summary.append(f"fidelity: {report.fidelity_coherent:.5f}")
    summary.append(f"delta_sq_out: {report.delta_sq_out:.5f} "
                   f"({'entangled' if report.delta_sq_out < 1 else 'not entangled'})")
    _write_then_print(_output_dir(args, config), scenario_files(result), "\n".join(summary))
    return 0


def _cmd_cascade(args: argparse.Namespace) -> int:
    config = _load_config(args)
    n_stages = _flag_values(args, CASCADE_FIELDS).get("stages", 4)
    stages = cascade(config.teleporter_params(), n_stages)
    table = ["stage  fidelity  Vx        Vp"]
    for stage in stages:
        table.append(f"{stage.stage:>5}  {stage.fidelity:.6f}  "
                     f"{stage.vx:.6f}  {stage.vp:.6f}")
    files = _report_file({"cascade": stages, "seed": config.seed})
    _write_then_print(_output_dir(args, config), files, "\n".join(table))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    inputs = _flag_values(args, CALIBRATION_FIELDS)
    result = calibrate_losses(
        inputs.get("target_epr_db", BENCHMARK_TARGET_EPR_DB),
        inputs.get("source_sq_db", BENCHMARK_SOURCE_SQ_DB),
    )
    fit = (f"eta_source: {result.eta_source[0]:.6f} (p path), "
           f"{result.eta_source[1]:.6f} (x path)\n"
           f"achieved: {result.achieved_x_db:.4f} dB (x), "
           f"{result.achieved_p_db:.4f} dB (p)\n"
           f"residuals: {result.residual_x_db:.2e} dB (x), "
           f"{result.residual_p_db:.2e} dB (p)")
    files = _report_file({"calibration": result}) if args.out else {}
    _write_then_print(_output_dir(args, None), files, fit)
    return 0


def _cmd_paper_repro(args: argparse.Namespace) -> int:
    rows = paper_repro()
    files = _report_file({"reference_comparison": rows}) if args.out else {}
    _write_then_print(_output_dir(args, None), files, format_repro_table(rows))
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
