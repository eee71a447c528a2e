"""Experiment orchestration: configs, scenario runs, loss calibration, and the
reference-reproduction table.

Config grammar (INI-style, read line by line, names in any case; ``#`` or
``;`` at a line's start or after whitespace starts a comment; a section or
key that is unknown, ``[DEFAULT]`` among them, or repeated, a key before
any header, an indented line and ``key: value`` are refused at their line):

    [run]
    scenario = coherent            # coherent | squeezed_x | squeezed_p | vacuum
    alpha = 3.5                    # coherent amplitude, mean (alpha, 0)
    input_sq_db = -6.2             # squeezed input level
    input_antisq_db = 12.0
    method = analytic              # analytic | mc
    shots = 100000                 # mc only; at most 20000000
    seed = 0                       # non-negative

    [teleporter]
    epr_sq_db = -6.0 -6.0          # one value applies to both squeezers
    epr_antisq_db = 6.0 6.0        # omit for pure partners
    g_x = 1.0
    g_p = 1.0
    eta_source = 1.0 1.0           # efficiencies: each in [0, 1]
    eta_prop = 1.0 1.0
    eta_hom = 1.0

    [trace]
    n_points = 240                 # at most 1000000
    averages = 30                  # at most 20000000
    sampled = false                # true emulates finite averaging

    [tomography]
    samples = 100000               # at most 20000000
    grid_points = 81               # at most 2000
    grid_pad = 4.5
    cutoff = auto                  # or a positive frequency

    [output]
    dir = .

Input keys not used by the selected scenario are accepted and ignored, so a
config stays valid when only the scenario changes.  Numbers must be finite.
A rule that spans two keys, a squeezer's noise pair, is reported at the line
of the first of them that the text sets.
They take Python's literal grammar, ``_`` separators included, so
``shots = 1_000`` is 1000.  A float or pair key given an integer beyond
float range, as text or as a Python int, reads it as an infinity.

Every key but ``[output] dir`` (``--out``) is also a command-line flag: the
key with ``_`` turned into ``-``, pair keys taking two values.  Config text
and flags are read (syntax only), and every value, also one passed to
ExperimentConfig, is checked by its kind's one rule, all from the config
table ``CONFIG_FIELDS``, which declares the fields of ExperimentConfig with
their defaults.

Randomness: the single config seed feeds numpy's SeedSequence; children are
spawned in a fixed order (0: Monte Carlo teleportation, 1: trace sampling,
2: tomography record), so each artifact is individually reproducible.  Only
the branches that draw spawn them, and only the trace, Wigner and reference
paths import `tomography`, so an analytic run, a calibration and a config
or physics error load no numpy.

Records: a record whose constructor enforces a rule (ExperimentConfig) is a
slotted `gaussian._Record`; the others (RunResult, CalibrationResult,
ReproRow) are named tuples.  Either derives a changed record by
``_replace(...)``, through ExperimentConfig's checks for it.

Reports: ``report_json``'s one encoder ``_plain`` turns states, records (by
their ``_asdict()``) and arrays into JSON objects and lists, so each field of
a result is a key of its report.  Every output is built in memory, and only
``write_files`` writes it, staged so that a failed write changes no file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import re
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from ._defaults import DEFAULT_GRID_PAD_SIGMAS, DEFAULT_GRID_POINTS
from ._defaults import DEFAULT_TRACE_AVERAGES, DEFAULT_TRACE_POINTS
from ._version import __version__
from .gaussian import (
    GaussianState,
    PhysicsError,
    _Record,
    _as_float,
    _as_pair,
    _lists,
    check_count,
    check_fraction,
    coherent_state,
    impure_squeezed_vacuum,
    quarter_turn,
    vacuum,
)
from .sideband import delta_sq, is_entangled, sidebands_from_single_mode
from .teleporter import (
    TeleporterParams,
    TeleportReport,
    _correlations,
    _source_map,
    cascade,
    coherent_fidelity,
    output_variances_pure,
    squeezing_threshold_db,
    teleport_analytic,
    teleport_mc,
)

if TYPE_CHECKING:
    import numpy as np

    from .tomography import PhaseScanTrace, WignerGrid

SCENARIOS = ("coherent", "squeezed_x", "squeezed_p", "vacuum")
METHODS = ("analytic", "mc")
OUTDIR_ENV_VAR = "CVTELEPORT_OUTDIR"

# Calibration defaults: squeezer levels as measured on the input state and
# entanglement-correlation targets as measured on the beam pair.
BENCHMARK_SOURCE_SQ_DB = (-6.2, -6.2)
BENCHMARK_SOURCE_ANTISQ_DB = (12.0, 12.0)
BENCHMARK_TARGET_EPR_DB = (-5.6, -5.5)
CALIBRATION_TOL_DB = 0.05

# Upper bounds on counts, checked before anything is allocated; peaks are of
# a whole CLI run on a 2-vCPU, 8 GB host.  [tomography] samples: about 18
# bytes per sample (56 MB at 1M, 108 MB at 4M), about 390 MB at the bound.
# [run] shots and [trace] averages share it only to keep the config domain:
# the Monte Carlo sampler draws the shots' sample moments, not the shots, and
# a sampled trace draws one number per point whatever its averages, so their
# time and memory do not grow with the count.
MAX_SAMPLES = 20_000_000
# [trace] n_points: about 330 bytes per point, mostly the report's JSON
# (354 MB, 3.6 s at the bound).
MAX_TRACE_POINTS = 1_000_000
# [tomography] grid_points: about 170 bytes per cell (712 MB, 9.7 s at 2000^2).
MAX_GRID_POINTS = 2_000

# Upper bound on cascade --stages.  The noise of a stage is computed once and
# each stage adds it (about 5 us per stage on a 2-vCPU host), so the bound
# now limits the report's size, about 1.4 MB at 10,000 stages.
MAX_STAGES = 10_000


class ConfigError(ValueError):
    """Invalid configuration text or values; maps to exit code 2."""


def _numeric(value) -> float:
    """``value`` read as a float by the library's number rule (`gaussian._as_float`)."""
    try:
        return _as_float(value, "value")
    except ValueError:
        raise ValueError(f"must be numeric, got {value!r}") from None


def _finite(value) -> float:
    value = _numeric(value)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _positive(value) -> float:
    value = _finite(value)
    if value <= 0:
        raise ValueError("must be positive")
    return value


def _fraction(value) -> float:
    """A finite number that is a fraction by the library's rule (`gaussian.check_fraction`)."""
    value = _finite(value)
    try:
        return check_fraction(value, "value")
    except ValueError:
        raise ValueError(f"must lie in [0, 1], got {value!r}") from None


def _read_bool(text: str) -> bool:
    try:
        return {"1": True, "yes": True, "true": True, "on": True,
                "0": False, "no": False, "false": False, "off": False}[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


def _check_bool(value) -> bool:
    np = sys.modules.get("numpy")  # a numpy bool exists only once numpy is imported
    if not (isinstance(value, bool) or np is not None and isinstance(value, np.bool_)):
        raise ValueError("must be a boolean")
    return bool(value)


def _read_pair(text: str) -> tuple[float, float]:
    values = tuple(map(float, text.replace(",", " ").split()))
    if len(values) == 1:  # one value applies to both
        return values * 2
    if len(values) != 2:
        raise ValueError(f"expected one or two numbers, got {text!r}")
    return values


class _Kind(NamedTuple):
    """How one kind of config value is read, checked and written.

    ``read`` turns config text or a flag value into a Python value (syntax
    only); ``check`` is the kind's one rule, which every value meets whatever
    its source (config text, a flag or ExperimentConfig) and which returns it
    normalized; ``emit`` writes its canonical text, None leaving the key out.
    ``flag_options`` holds the argparse options of the matching command-line flag.
    """

    read: Callable[[str], Any]
    check: Callable[[Any], Any]
    emit: Callable[[Any], str | None]
    flag_options: dict = {}


def _choice(options: tuple[str, ...]) -> _Kind:
    def check(value) -> str:
        text = str(value).strip().lower()
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {value!r}")
        return text

    return _Kind(str, check, str, {"choices": options})


def _pair(unit: str, element: Callable[[Any], float] = _finite, optional: bool = False) -> _Kind:
    """A kind of two numbers, each checked by ``element``."""

    def check(value):
        if optional and value is None:
            return None
        if isinstance(value, (str, bytes)):  # text, which would unpack into characters
            raise ValueError(f"must be numeric, got {value!r}")
        try:
            first, second = value
        except (TypeError, ValueError):  # a scalar, or a length other than 2
            raise ValueError(f"must hold exactly two values, got {value!r}") from None
        return (element(first), element(second))

    def emit(value):
        return None if value is None else f"{value[0]!r} {value[1]!r}"

    return _Kind(_read_pair, check, emit, {"nargs": 2, "metavar": (f"{unit}1", f"{unit}2")})


def _count(minimum: int, maximum: int | None = None) -> _Kind:
    """An integer kind bounded below and, optionally, above."""

    def check(value) -> int:
        if type(value) is not int:
            _numeric(value)  # refuses a non-number, such as "12", before int() reads it
        count = int(value)  # the value itself, not its float, meets the bounds
        if count < minimum:
            raise ValueError(f"must be >= {minimum}")
        if maximum is not None and count > maximum:
            raise ValueError(f"must be <= {maximum}")
        try:  # the bounds passed, so only an integer's type can fail here
            check_count(value, "value")
        except ValueError:
            raise ValueError("must be an integer") from None
        return count

    return _Kind(int, check, str)


_COMMENT = re.compile(r"(^|\s)[#;].*")  # from a '#' or ';' at the start or after whitespace


def _config_text(value) -> str | None:
    """A text value that config text holds as it is: `_read_config` ends a
    value at its line, strips its ends and cuts a comment from a ``#`` or
    ``;`` that starts it or follows whitespace."""
    if value is None:
        return None
    text = str(value)
    if "\r" in text or "\n" in text:
        raise ValueError(f"must be one line, got {text!r}")
    if text != text.strip():
        raise ValueError(f"must not begin or end with whitespace, got {text!r}")
    if _COMMENT.search(text):
        raise ValueError(f"must not have '#' or ';' at its start or after whitespace, got {text!r}")
    return text


_FLOAT = _Kind(float, _finite, repr)
_POSITIVE = _Kind(float, _positive, repr)
_FRACTION = _Kind(float, _fraction, repr)
_BOOL = _Kind(
    _read_bool, _check_bool, lambda value: "true" if value else "false",
    {"action": argparse.BooleanOptionalAction},
)
_CUTOFF = _Kind(
    lambda text: None if text.strip().lower() == "auto" else float(text),
    lambda value: None if value is None else _positive(value),
    lambda value: "auto" if value is None else repr(value),
)
_STR = _Kind(str, _config_text, lambda value: value)


class ConfigField(NamedTuple):
    """One config key: its section, its kind, its default and the
    ExperimentConfig attribute it sets (``name``, when that differs from the
    key)."""

    section: str
    key: str
    kind: _Kind
    default: Any = None
    name: str | None = None
    help: str | None = None

    @property
    def attr(self) -> str:
        return self.name or self.key

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


# TeleporterParams' defaults, as its constructor declares them
_TELEPORTER = dict(zip(TeleporterParams._fields[1:], TeleporterParams.__init__.__defaults__))

# The config grammar, in emitted order: one row per ExperimentConfig field.
CONFIG_FIELDS = (
    ConfigField("run", "scenario", _choice(SCENARIOS), "coherent"),
    ConfigField("run", "alpha", _FLOAT, 3.5, help="coherent amplitude"),
    ConfigField("run", "input_sq_db", _FLOAT, -6.2),
    ConfigField("run", "input_antisq_db", _FLOAT, 12.0),
    ConfigField("run", "method", _choice(METHODS), "analytic"),
    ConfigField("run", "shots", _count(2, MAX_SAMPLES), 100_000),
    # seeds the trace and tomography streams too, so not a teleporter default
    ConfigField("run", "seed", _count(0), 0),
    ConfigField("teleporter", "epr_sq_db", _pair("DB"), _TELEPORTER["epr_sq_db"]),
    ConfigField("teleporter", "epr_antisq_db", _pair("DB", optional=True),
                _TELEPORTER["epr_antisq_db"]),
    ConfigField("teleporter", "g_x", _FLOAT, _TELEPORTER["g_x"]),
    ConfigField("teleporter", "g_p", _FLOAT, _TELEPORTER["g_p"]),
    ConfigField("teleporter", "eta_source", _pair("ETA", _fraction), _TELEPORTER["eta_source"]),
    ConfigField("teleporter", "eta_prop", _pair("ETA", _fraction), _TELEPORTER["eta_prop"]),
    ConfigField("teleporter", "eta_hom", _FRACTION, _TELEPORTER["eta_hom"]),
    ConfigField("trace", "n_points", _count(2, MAX_TRACE_POINTS), DEFAULT_TRACE_POINTS,
                "trace_points"),
    ConfigField("trace", "averages", _count(1, MAX_SAMPLES), DEFAULT_TRACE_AVERAGES,
                "trace_averages"),
    ConfigField("trace", "sampled", _BOOL, False, "trace_sampled",
                "emulate finite trace averaging"),
    ConfigField("tomography", "samples", _count(1, MAX_SAMPLES), 100_000, "tomo_samples"),
    ConfigField("tomography", "grid_points", _count(2, MAX_GRID_POINTS), DEFAULT_GRID_POINTS),
    ConfigField("tomography", "grid_pad", _POSITIVE, DEFAULT_GRID_PAD_SIGMAS),
    ConfigField("tomography", "cutoff", _CUTOFF, None, help="ramp filter cutoff, or 'auto'"),
    ConfigField("output", "dir", _STR, None, "output_dir"),
)


class ExperimentConfig(_Record):
    """Validated scenario description; builds the TeleporterParams it names.

    Its fields are the rows of the config table ``CONFIG_FIELDS``, in order,
    from which ExperimentConfig takes its defaults and checks its fields,
    parse_config reads, emit_config writes and the CLI builds its flags.
    The fields are given by keyword.  The teleporter, trace and tomography
    defaults are those of TeleporterParams and `tomography`.
    """

    __slots__ = tuple(field.attr for field in CONFIG_FIELDS)

    def __init__(self, **values) -> None:
        unknown = values.keys() - _FIELDS_BY_ATTR.keys()
        if unknown:
            raise TypeError(f"ExperimentConfig got unexpected fields {sorted(unknown)}")
        for field in CONFIG_FIELDS:
            try:
                value = field.kind.check(values.get(field.attr, field.default))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{field.attr}: {exc}") from exc
            object.__setattr__(self, field.attr, value)
        # Surface physics violations (bad dB pairs, efficiencies, gains) now.
        self.teleporter_params()

    def input_state(self) -> GaussianState:
        if self.scenario == "coherent":
            return coherent_state(complex(self.alpha))
        if self.scenario == "vacuum":
            return vacuum(1)
        with _noise_pair("input_sq_db", "input_antisq_db"):
            state = impure_squeezed_vacuum(self.input_sq_db, self.input_antisq_db)
        return state if self.scenario == "squeezed_x" else quarter_turn(state)

    def teleporter_params(self) -> TeleporterParams:
        state = self.input_state()
        with _noise_pair("epr_sq_db", "epr_antisq_db"):  # TeleporterParams' one PhysicsError
            return TeleporterParams(
                input_state=state,
                seed=self.seed,
                **{f.attr: getattr(self, f.attr) for f in CONFIG_FIELDS
                   if f.section == "teleporter"},
            )


@contextlib.contextmanager
def _noise_pair(*attrs: str):
    """Tags a noise-pair PhysicsError raised inside, whose message names no
    key, with the two fields the rule spans, ``attrs``: a config reader
    reports it at the first of them that is set (`_build_config`)."""
    try:
        yield
    except PhysicsError as exc:
        exc.config_fields = attrs
        raise


# The calibrate and cascade verbs' own inputs: not config keys, but flags
# read and checked like the config's keys.
CALIBRATION_FIELDS = (
    ConfigField("calibrate", "target_epr_db", _pair("DB"),
                help="measured x and p correlations of the beam pair"),
    ConfigField("calibrate", "source_sq_db", _pair("DB"), help="squeezed level of each squeezer"),
)
CASCADE_FIELDS = (
    ConfigField("cascade", "stages", _count(1, MAX_STAGES), help="number of stages"),
)
_FIELDS_BY_KEY = {(field.section, field.key): field for field in CONFIG_FIELDS}
_FIELDS_BY_ATTR = {field.attr: field for field in CONFIG_FIELDS}
_SECTIONS = {field.section for field in CONFIG_FIELDS}


def _read_config(text: str) -> dict[tuple[str, str], tuple[str, int]]:
    """The raw value and line number of each ``(section, key)`` that config
    text sets, read by the grammar of the module docstring; a line that
    breaks it is refused at its number."""
    entries, seen, section = {}, set(), None
    for number, line in enumerate(text.split("\n"), start=1):
        line = _COMMENT.sub("", line).rstrip()
        if not line:
            continue
        if line[0].isspace():
            raise _config_error(number, section, None, "indented (continuation) line")
        if line[0] == "[" and line[-1] == "]":
            section = line[1:-1].strip().lower()
            if section in seen or section not in _SECTIONS:
                raise _config_error(number, section, None,
                                    "repeated section" if section in seen else "unknown section")
            seen.add(section)
            continue
        key, equals, value = line.partition("=")
        key = key.strip().lower()
        if not (equals and key):
            raise _config_error(number, section, None, f"expected 'key = value', got {line!r}")
        if section is None:
            raise _config_error(number, None, key, "key before any section header")
        if (section, key) in entries or (section, key) not in _FIELDS_BY_KEY:
            raise _config_error(number, section, key,
                                "repeated key" if (section, key) in entries else "unknown key")
        entries[section, key] = (value.strip(), number)
    return entries


def _config_error(line: int, section: str | None, key: str | None, message: str) -> ConfigError:
    parts = (section is not None and f"[{section}]", key, f"(line {line})")
    return ConfigError(f"{' '.join(filter(None, parts))}: {message}")


def _flag_error(field: ConfigField, exc: ValueError) -> ConfigError:
    return ConfigError(f"[{field.section}] {field.key} ({field.flag}): {exc}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text; raises ConfigError with location info."""
    return _build_config(text, dict)


def _build_config(text: str, flags: Callable[[], dict]) -> ExperimentConfig:
    """The config of ``text``'s keys, each checked at its line, with
    ``flags()`` (checked values by attribute, read after them, so a bad file
    key is reported first) laid over them, built once; a rule that spans keys
    is reported at the first it spans that is set, at its flag if
    ``flags()`` set it, else at its line."""
    entries = _read_config(text)
    kwargs = {}
    for (section, key), (raw, line) in entries.items():
        field = _FIELDS_BY_KEY[section, key]
        try:
            kwargs[field.attr] = field.kind.check(field.kind.read(raw))
        except ValueError as exc:
            raise _config_error(line, section, key, str(exc)) from exc
    given = flags()
    kwargs.update(given)
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        # Each value was checked above, so only a rule that spans keys fails
        # here.  Each such rule names its keys (`config_fields`), and fails
        # only at a value set here, since the defaults meet every rule.
        field = next(_FIELDS_BY_ATTR[attr] for attr in exc.config_fields if attr in kwargs)
        if field.attr in given:
            raise _flag_error(field, exc) from exc
        line = entries[field.section, field.key][1]
        raise _config_error(line, field.section, field.key, str(exc)) from exc


def emit_config(config: ExperimentConfig) -> str:
    """Canonical config text; parse_config(emit_config(c)) == c."""
    sections: dict[str, list[str]] = {}
    for field in CONFIG_FIELDS:
        value = field.kind.emit(getattr(config, field.attr))
        if value is not None:
            sections.setdefault(field.section, [f"[{field.section}]"]).append(
                f"{field.key} = {value}"
            )
    return "\n\n".join("\n".join(lines) for lines in sections.values()) + "\n"


class RunResult(NamedTuple):
    """One scenario execution: report plus optional measurement artifacts."""

    config: ExperimentConfig
    report: TeleportReport
    trace: PhaseScanTrace | None
    wigner: WignerGrid | None
    provenance: dict


def run(
    config: ExperimentConfig,
    include_trace: bool = False,
    include_wigner: bool = False,
) -> RunResult:
    """Execute one scenario; deterministic for a fixed config."""
    params = config.teleporter_params()
    if config.method == "mc":
        report = teleport_mc(params, config.shots, _child_rng(config.seed, 0))
    else:
        report = teleport_analytic(params)
    if include_trace or include_wigner:
        from .tomography import GridSpec, inverse_radon, sample_record, spectrum_trace
    trace = None
    if include_trace:
        trace_rng = _child_rng(config.seed, 1) if config.trace_sampled else None
        trace = spectrum_trace(
            report.output_state, n_points=config.trace_points,
            averages=config.trace_averages, rng=trace_rng,
        )
    wigner = None
    if include_wigner:
        try:
            spec = GridSpec.from_state(
                report.output_state, n=config.grid_points, pad=config.grid_pad
            )
        except PhysicsError:
            raise
        except ValueError as exc:  # grid_points is a checked count: the pad overflowed
            raise ValueError(f"grid_pad: {exc}") from None
        record = sample_record(report.output_state, config.tomo_samples, _child_rng(config.seed, 2))
        wigner = inverse_radon(record, spec, filter_cutoff=config.cutoff)
    provenance = {
        "config_sha256": hashlib.sha256(emit_config(config).encode()).hexdigest(),
        "seed": config.seed,
        "version": __version__,
    }
    return RunResult(config, report, trace, wigner, provenance)


def _child_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of child ``index`` of the seed's SeedSequence (module
    docstring), built by the branches that draw only."""
    import numpy as np
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[index])


# --- serialization ---------------------------------------------------------

def _plain(value):
    """``value`` as JSON data: a GaussianState becomes its mean and cov, a
    record (a `_Record` or a named tuple) its ``_asdict()``, an array, list
    or tuple a list; dicts recurse and anything else is kept."""
    if isinstance(value, GaussianState):  # copies of its floats: no array is built
        mean, cov = _lists(value)
        return {"mean": mean, "cov": cov}
    if isinstance(value, _Record) or isinstance(value, tuple) and hasattr(value, "_asdict"):
        return _plain(value._asdict())
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    np = sys.modules.get("numpy")  # an array exists only once numpy is imported
    if np is not None and isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def report_json(payload: dict) -> str:
    """``payload``, encoded by ``_plain``, as the sorted, indented JSON text of
    a ``report.json``.  A non-finite number is a PhysicsError: JSON has no
    NaN."""
    try:
        text = json.dumps(_plain(payload), sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise PhysicsError(f"not writing report.json: {exc}") from exc
    return text + "\n"


def scenario_files(result: RunResult) -> dict[str, str]:
    """The text of a scenario run's files, by name: ``report.json`` (config
    text, report and provenance, and the trace and the Wigner grid's spec
    fields and values when present), then ``trace.csv`` or ``wigner.csv``."""
    trace, grid = result.trace, result.wigner
    payload = {
        "config_text": emit_config(result.config),
        "report": result.report,
        "provenance": result.provenance,
    }
    if trace is not None:
        payload["trace"] = trace
    if grid is not None:
        payload["wigner"] = {**grid.spec._asdict(), "values": grid.values}
    files = {"report.json": report_json(payload)}
    if trace is not None:
        lines = ["theta_rad,power_db"]
        for theta, power in zip(trace.thetas, trace.power_db):
            lines.append(f"{float(theta)!r},{float(power)!r}")
        files["trace.csv"] = "\n".join(lines) + "\n"
    if grid is not None:
        spec = grid.spec
        lines = [
            "x0,x1,nx,p0,p1,np",
            f"{spec.x_min!r},{spec.x_max!r},{spec.n_x},"
            f"{spec.p_min!r},{spec.p_max!r},{spec.n_p}",
        ]
        lines += [",".join(repr(float(v)) for v in row) for row in grid.values]
        files["wigner.csv"] = "\n".join(lines) + "\n"
    return files


def write_files(outdir: Path, files: dict[str, str]) -> list[Path]:
    """Write each text of ``files`` to ``outdir``/its name and return the
    paths in order; the one function that writes output files.  Each text is
    written (UTF-8, "\\n" endings) to a hidden temp file beside its target,
    and only when all are complete is each renamed into place.  On an OSError
    the temp files are deleted and the error re-raised, so a failed write
    leaves a previous run's files as they were."""
    outdir.mkdir(parents=True, exist_ok=True)
    staged = []
    try:
        for name, text in files.items():
            staged.append(outdir / f".{name}.{os.getpid()}.tmp")
            staged[-1].write_text(text, encoding="utf-8", newline="\n")
        for temp, name in zip(staged, files):
            os.replace(temp, outdir / name)
    except OSError:
        for temp in staged:
            temp.unlink(missing_ok=True)
        raise
    return [outdir / name for name in files]


# --- loss calibration ------------------------------------------------------

class CalibrationResult(NamedTuple):
    """Fitted source efficiencies, ordered as TeleporterParams.eta_source
    (first the p-correlation path, then the x-correlation path)."""

    eta_source: tuple[float, float]
    achieved_x_db: float
    achieved_p_db: float
    residual_x_db: float
    residual_p_db: float


def calibrate_losses(
    target_db: tuple[float, float],
    source_sq_db: tuple[float, float] = BENCHMARK_SOURCE_SQ_DB,
) -> CalibrationResult:
    """Fit per-path source efficiencies to measured beam-pair correlations.

    target_db is the measured (x_diff, p_sum) correlation pair in dB relative
    to the two-mode vacuum level.  The x correlation depends only on the
    second squeezer's efficiency and the p correlation only on the first's.
    With lossless beams (eta_prop = 1) the anti-squeezed quadratures weigh
    zero in both correlations (the `teleporter` module's source map), so a
    path whose squeezer sits at s dB correlates to
    10^(t/10) = 1 - eta (1 - 10^(s/10)) and each efficiency is, in closed
    form,

        eta = (1 - 10^(t/10)) / (1 - 10^(s/10)).

    s is the correlation of the lossless source (eta = 1) and the lowest
    reachable target.  The achieved correlations are the source map's at the
    fitted efficiencies, those teleport_analytic reports.  Raises PhysicsError
    for a squeezer level that TeleporterParams rejects with its pure partner
    (above 0 dB, non-finite, or a partner variance that overflows); when a
    target is unreachable: below s, from an unsqueezed source (s = 0), or
    at/above vacuum (an efficiency below 1e-9); when an achieved correlation
    is not finite; and when the fitted efficiencies miss either target by
    more than CALIBRATION_TOL_DB, as they do for most targets below about
    -140 dB, though reachable: there the achieved correlation, a difference
    of two numbers near 1, rounds by more than the tolerance.
    """
    target_x, target_p = _as_pair(target_db, "target_db")
    base = TeleporterParams(input_state=vacuum(1), epr_sq_db=_as_pair(source_sq_db, "source_sq_db"))

    def solve(target: float, limit: float) -> float:
        # an unsqueezed source correlates at vacuum whatever its efficiency
        if target < limit or target == limit == 0.0:
            raise PhysicsError(
                f"target {target} dB is below the {limit:.3f} dB "
                "limit set by the source squeezing"
            )
        reach = 1.0 - 10.0 ** (limit / 10.0)
        # no depth at or above vacuum; 10^(t/10) would overflow for a large t
        depth = 1.0 - 10.0 ** (target / 10.0) if target < 0.0 else 0.0
        if reach <= 0.0 or depth < 1e-9 * reach:
            raise PhysicsError(
                f"target {target} dB is not below the vacuum correlation level"
            )
        return float(depth / reach)

    eta_x = solve(target_x, base.epr_sq_db[1])
    eta_p = solve(target_p, base.epr_sq_db[0])
    *_, var_x_diff, var_p_sum = _source_map(
        base.epr_sq_db, base.epr_antisq_db, base.g_x, base.g_p,
        (eta_p, eta_x), base.eta_prop, base.eta_hom)
    if not (math.isfinite(var_x_diff) and math.isfinite(var_p_sum)):
        raise PhysicsError(f"EPR correlations ({var_x_diff}, {var_p_sum}) are not finite")
    achieved = _correlations(var_x_diff, var_p_sum)
    achieved_x, achieved_p = achieved.x_diff_db, achieved.p_sum_db
    residual_x, residual_p = achieved_x - target_x, achieved_p - target_p
    if max(abs(residual_x), abs(residual_p)) > CALIBRATION_TOL_DB:
        raise PhysicsError(
            f"calibration residuals ({residual_x:.3g}, {residual_p:.3g}) dB "
            f"exceed {CALIBRATION_TOL_DB} dB"
        )
    return CalibrationResult(
        (eta_p, eta_x), achieved_x, achieved_p, residual_x, residual_p
    )


def benchmark_config(scenario: str = "coherent") -> ExperimentConfig:
    """Scenario config with losses calibrated to the measured correlations."""
    return ExperimentConfig(
        scenario=scenario,
        epr_sq_db=BENCHMARK_SOURCE_SQ_DB,
        epr_antisq_db=BENCHMARK_SOURCE_ANTISQ_DB,
        eta_source=calibrate_losses(BENCHMARK_TARGET_EPR_DB).eta_source,
    )


# --- reference reproduction -------------------------------------------------

class ReproRow(NamedTuple):
    criterion: int
    quantity: str
    reference: str
    simulated: float
    passed: bool


def _row_window(criterion, quantity, lo, hi, value) -> ReproRow:
    return ReproRow(
        criterion, quantity, f"[{lo:g}, {hi:g}]", float(value),
        bool(lo <= value <= hi),
    )


def _row_tol(criterion, quantity, target, tol, value) -> ReproRow:
    return ReproRow(
        criterion, quantity, f"{target:g} +/- {tol:g}", float(value),
        bool(abs(value - target) <= tol),
    )


def _mc_max_sigma(params: TeleporterParams, shots: int, seed: int) -> float:
    """Largest |deviation| / standard-error over moments of one MC run;
    infinite when any score is not finite, so NaN moments fail a sigma gate."""
    import numpy as np
    analytic = teleport_analytic(params)
    empirical = teleport_mc(params, shots, np.random.default_rng(seed))
    a_cov = analytic.output_state.cov
    e_cov = empirical.output_state.cov
    e_mean = empirical.output_state.mean
    a_mean = analytic.output_state.mean
    n = shots
    scores = [
        abs(e_mean[0] - a_mean[0]) / np.sqrt(a_cov[0, 0] / n),
        abs(e_mean[1] - a_mean[1]) / np.sqrt(a_cov[1, 1] / n),
        abs(e_cov[0, 0] - a_cov[0, 0]) / (a_cov[0, 0] * np.sqrt(2.0 / (n - 1))),
        abs(e_cov[1, 1] - a_cov[1, 1]) / (a_cov[1, 1] * np.sqrt(2.0 / (n - 1))),
        abs(e_cov[0, 1] - a_cov[0, 1])
        / np.sqrt((a_cov[0, 0] * a_cov[1, 1] + a_cov[0, 1] ** 2) / n),
    ]
    return float(max(scores)) if all(map(math.isfinite, scores)) else math.inf


def _db_from_r(r: float) -> float:
    return 10.0 * math.log10(math.exp(-2.0 * r))


def paper_repro() -> list[ReproRow]:
    """Recompute every reference quantity and compare against its window.

    Deterministic: stochastic rows use fixed internal seeds.
    """
    import numpy as np
    from .tomography import GridSpec, inverse_radon, sample_record, spectrum_trace, wigner_moments

    rows: list[ReproRow] = []

    # 1: squeezing threshold and exact vacuum crossing
    rows.append(
        _row_tol(1, "threshold_db", -4.771212547196624, 1e-9, squeezing_threshold_db())
    )
    r_third = 0.5 * math.log(3.0)
    vx_third, _ = output_variances_pure(r_third)
    rows.append(_row_tol(1, "vx_at_threshold", 0.25, 1e-10, vx_third))

    # 2: classical limit at r = 0
    classical = teleport_analytic(
        TeleporterParams(input_state=coherent_state(3.5 + 0j), epr_sq_db=(0.0, 0.0))
    )
    rows.append(_row_tol(2, "classical_fidelity", 0.5, 1e-10, classical.fidelity_coherent))
    rows.append(_row_tol(2, "classical_vx", 0.75, 1e-10, classical.vx))
    rows.append(_row_tol(2, "classical_vp", 0.75, 1e-10, classical.vp))

    # 3: ideal -6 dB resource fidelity
    ideal = teleport_analytic(TeleporterParams(input_state=coherent_state(3.5 + 0j)))
    rows.append(
        _row_tol(3, "ideal_6db_fidelity", 1.0 / (1.0 + 10.0**-0.6), 0.0005,
                 ideal.fidelity_coherent)
    )

    # 4: fidelity formula at the measured output variances
    measured_f = coherent_fidelity(0.25 * 10.0**0.20, 0.25 * 10.0**0.23)
    rows.append(_row_tol(4, "measured_fidelity_formula", 0.757, 0.005, measured_f))

    # 5: calibrated coherent scenario
    coherent_run = teleport_analytic(benchmark_config("coherent").teleporter_params())
    rows.append(_row_window(5, "coherent_vx_db", 1.8, 2.4, coherent_run.vx_db))
    rows.append(_row_window(5, "coherent_vp_db", 1.8, 2.4, coherent_run.vp_db))
    rows.append(
        _row_window(5, "coherent_fidelity", 0.74, 0.79, coherent_run.fidelity_coherent)
    )

    # 6: calibrated squeezed scenario
    squeezed_config = benchmark_config("squeezed_x")
    squeezed_run = teleport_analytic(squeezed_config.teleporter_params())
    rows.append(_row_window(6, "squeezed_vx_db", -1.2, -0.6, squeezed_run.vx_db))
    rows.append(_row_window(6, "squeezed_vp_db", 11.9, 12.7, squeezed_run.vp_db))
    rows.append(_row_window(6, "delta_sq_out", 0.76, 0.88, squeezed_run.delta_sq_out))
    delta_in = delta_sq(sidebands_from_single_mode(squeezed_config.input_state()))
    rows.append(_row_tol(6, "delta_sq_in", 0.240, 0.005, delta_in))
    verdict = is_entangled(
        sidebands_from_single_mode(squeezed_run.output_state)
    )
    rows.append(
        ReproRow(6, "output_entangled", "true", float(verdict.entangled),
                 verdict.entangled)
    )

    # 7: coherent signal calibration on the phase scan
    trace = spectrum_trace(coherent_state(3.5 + 0j))
    rows.append(_row_tol(7, "trace_peak_db", 17.0, 0.1, float(trace.power_db.max())))

    # 8: Monte Carlo vs analytic across the standard sweep
    start = time.perf_counter()
    worst = 0.0
    seed = 814
    for r in (0.0, 0.35, 0.69):
        for gain in (0.5, 1.0):
            for eta in (0.9, 1.0):
                params = TeleporterParams(
                    input_state=coherent_state(3.5 + 0j),
                    epr_sq_db=(_db_from_r(r), _db_from_r(r)),
                    g_x=gain,
                    g_p=gain,
                    eta_prop=(eta, eta),
                )
                worst = max(worst, _mc_max_sigma(params, 100_000, seed))
                seed += 1
    elapsed = time.perf_counter() - start
    rows.append(_row_window(8, "mc_max_sigma", 0.0, 5.0, worst))
    rows.append(_row_window(8, "mc_sweep_seconds", 0.0, 60.0, elapsed))

    # 9: tomography closure on the teleported squeezed state
    state = squeezed_run.output_state
    record = sample_record(state, 100_000, np.random.default_rng(901))
    grid = inverse_radon(record, GridSpec.from_state(state))
    moments = wigner_moments(grid)
    var_err = max(
        abs(moments.cov[0, 0] - squeezed_run.vx) / squeezed_run.vx,
        abs(moments.cov[1, 1] - squeezed_run.vp) / squeezed_run.vp,
    )
    rows.append(_row_window(9, "tomography_var_rel_err", 0.0, 0.05, var_err))
    rows.append(
        _row_window(9, "tomography_mean_abs_err", 0.0, 0.05,
                    float(np.abs(moments.mean).max()))
    )

    # 10: entanglement iff squeezing across the r sweep
    consistent = 0
    r_values = (0.0, 0.2, 0.4, 0.55, 0.7, 0.9)
    for r in r_values:
        report = teleport_analytic(
            TeleporterParams(
                input_state=impure_squeezed_vacuum(-6.2, 12.0),
                epr_sq_db=(_db_from_r(r), _db_from_r(r)),
            )
        )
        entangled = is_entangled(
            sidebands_from_single_mode(report.output_state)
        ).entangled
        if entangled == (report.vx < 0.25):
            consistent += 1
    rows.append(
        ReproRow(10, "entangled_iff_squeezed", f"{len(r_values)}/{len(r_values)}",
                 float(consistent), consistent == len(r_values))
    )

    # 11: cascaded stages at pure -6 dB
    stages = cascade(
        TeleporterParams(input_state=coherent_state(3.5 + 0j)), 4
    )
    for stage, target in zip(stages, (0.799, 0.666, 0.570, 0.499)):
        rows.append(
            _row_tol(11, f"cascade_f{stage.stage}", target, 0.002, stage.fidelity)
        )
    return rows


def format_repro_table(rows: list[ReproRow]) -> str:
    header = ("crit", "quantity", "reference", "simulated", "status")
    cells = [header]
    for row in rows:
        cells.append(
            (
                str(row.criterion),
                row.quantity,
                row.reference,
                f"{row.simulated:.6g}",
                "pass" if row.passed else "FAIL",
            )
        )
    widths = [max(len(line[i]) for line in cells) for i in range(len(header))]
    lines = []
    for index, line in enumerate(cells):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    failed = sum(1 for row in rows if not row.passed)
    lines.append("")
    lines.append(
        f"{len(rows) - failed}/{len(rows)} rows pass"
        + (f" ({failed} FAILED)" if failed else "")
    )
    return "\n".join(lines)
