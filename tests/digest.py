"""Bit-identity digest of the package's results: one sha256 per number class.

Runs the benchmark's fixed operation pools (``cvbench/workloads.py``'s
``make_inputs``, ``prepare`` and ``run_op``, imported read-only) and a set
of extreme parameter points on the live package, and hashes the exact bytes
of every result, class by class:

* ``reports``, ``sideband_verdicts``, ``cascades``, ``calibrations``: the
  ``sweep`` pools (each point's teleport_analytic report and its sideband
  verdict, the 16-stage cascade and the loss calibration);
* ``mc_moments``: the ``mc`` pools' teleport_mc reports;
* ``tomo_states``, ``records``, ``sinograms``, ``grids``, ``moments``: the
  ``tomo`` pools' prepared states, quadrature records, sinogram counts,
  reconstructed grids and wigner_moments;
* ``extreme_results`` and ``extreme_errors``: random points with gains up to
  1e200, levels up to 60 dB and ``eta_hom`` down to 1e-6 through
  teleport_analytic with its sideband verdict, a 16-stage unity-gain cascade
  and calibrate_losses, with warnings as errors; a call that raises adds its
  exception type and message to ``extreme_errors``;
* ``config_values`` and ``config_errors``: every key of the config, calibrate
  and cascade field tables read from each text of ``CONFIG_TEXTS`` (by
  parse_config, or by the CLI's flag reader for the verb-only keys), and
  every ExperimentConfig field given each value of ``CONFIG_VALUES``; a case
  feeds the value it sets, or its exception type and message.

Floats are hashed as their IEEE bytes, so a one-ulp move changes the class
it belongs to and no other.  ``tests/golden/digest.json`` holds the full
digest and a subset (one seed per pool, fewer tomo operations and extreme
points) that tier-1 recomputes.  It does not depend on numpy's SIMD
dispatch (``tests/test_simd_dispatch.py`` recomputes it at numpy's baseline).
The one host dependence left is that of the byte-compared goldens: the
matrix products (``beamsplitter``'s among them) go through the BLAS numpy is
built with, and a BLAS kernel without fused multiply-adds rounds them
differently: with OpenBLAS's SandyBridge kernels (``OPENBLAS_CORETYPE``)
``reports``, ``sideband_verdicts``, ``mc_moments``, ``tomo_states`` and
``records`` move, with its Haswell and SkylakeX kernels nothing does.  From
the repository root:

    PYTHONPATH=src python tests/digest.py            # compare with the golden
    PYTHONPATH=src python tests/digest.py --write    # after a stated output change
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import decimal
import fractions
import hashlib
import json
import struct
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "digest.json"
sys.path.insert(0, str(ROOT / "cvbench"))

import workloads  # noqa: E402

import cvteleport  # noqa: E402
from cvteleport import cli, harness, tomography  # noqa: E402

CLASSES = (
    "reports", "sideband_verdicts", "cascades", "calibrations", "mc_moments",
    "tomo_states", "records", "sinograms", "grids", "moments",
    "extreme_results", "extreme_errors", "config_values", "config_errors",
)
# (sweep, mc and tomo seeds, tomo operations per pool, extreme points)
FULL = {"sweep": [2601, 2901, 2902], "mc": [2991, 2992, 2993], "tomo": [2991, 2992, 2993],
        "tomo_ops": workloads.POOL_SIZE["tomo"], "extreme_points": 2000, "extreme_seed": 30}
SUBSET = {"sweep": [2601], "mc": [2991], "tomo": [2991], "tomo_ops": 3,
          "extreme_points": 200, "extreme_seed": 30}
EXTREME_STAGES = 16
# Raw texts of a config key or flag, and Python values of an ExperimentConfig
# field: numbers in and out of range and of float range, pairs, words and
# types that no kind takes.
CONFIG_TEXTS = (
    "1", "0", "-1", "2.5", " 7 ", "1_000", "-1e-3", "1e5", "20000001", "abc", "nan", "inf",
    "-inf", "1e400", "1" + "0" * 399, "-" + "1" * 400, "1 2", "1,2", "-5 -6", "1 2 3",
    "inf 2 3", "nan 1", "1 abc", "auto", "AUTO", "yes", "Off", "true", "maybe", "mc",
    "Squeezed_X", "",
)
CONFIG_VALUES = (
    True, False, np.bool_(True), "1", b"1", None, 1, 0, -1, 2.5, -0.5, float("nan"),
    float("inf"), 1e30, 10**400, -(10**400), np.float32(0.5), np.int64(5), 1 + 2j,
    fractions.Fraction(3, 1), decimal.Decimal("0.5"), (1, 2, 3), (1, 2), (0.5, 0.25),
    [0.5, 1], (float("nan"), 1.0), (1, "2"), (10**400, 1), np.array([0.5, 0.5]), "auto",
    "coherent", "MC",
)


class Digest:
    """One running sha256 per class, fed values of any result type."""

    def __init__(self):
        self.hashes = {name: hashlib.sha256() for name in CLASSES}

    def feed(self, name, value):
        _encode(self.hashes[name], value)

    def hexdigests(self):
        return {name: h.hexdigest() for name, h in self.hashes.items()}


def _encode(h, value):
    """Feed ``value``'s exact bytes, tagged by type, into ``h``."""
    if isinstance(value, cvteleport.GaussianState):
        _encode(h, (value.mean, value.cov))
    elif isinstance(value, np.ndarray):
        h.update(f"a{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (bool, np.bool_, type(None), str)):
        h.update(f"v{value!r}\0".encode())
    elif isinstance(value, (int, np.integer)):
        h.update(f"i{int(value)}\0".encode())
    elif isinstance(value, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(value)))
    elif dataclasses.is_dataclass(value):
        _encode(h, [getattr(value, f.name) for f in dataclasses.fields(value)])
    elif isinstance(value, (tuple, list)):
        h.update(f"[{len(value)}".encode())
        for item in value:
            _encode(h, item)
    else:
        raise TypeError(f"no digest encoding for {type(value).__name__}")


class _Spy:
    """The package as ``run_op`` sees it, with sample_record and
    inverse_radon handing their results to the digest."""

    def __init__(self, digest):
        self._digest = digest

    def __getattr__(self, name):
        return getattr(cvteleport, name)

    def sample_record(self, *args):
        record = cvteleport.sample_record(*args)
        self._digest.feed("records", (record.thetas, record.values))
        return record

    def inverse_radon(self, *args):
        grid = cvteleport.inverse_radon(*args)
        self._digest.feed("grids", (grid.spec, grid.values))
        return grid


@contextlib.contextmanager
def _sinograms_to(digest):
    real = tomography._sinogram

    def spy(q, bounds, q_edges):
        sinogram = real(q, bounds, q_edges)
        digest.feed("sinograms", (q_edges, sinogram))
        return sinogram

    with mock.patch.object(tomography, "_sinogram", spy):
        yield


def _pools(digest, plan):
    for seed in plan["sweep"]:
        pool = workloads.make_inputs("sweep", seed)
        for op in workloads.prepare(cvteleport, "sweep", pool):
            points, stages, calibration = workloads.run_op(cvteleport, "sweep", op)
            for report, verdict in points:
                digest.feed("reports", report)
                digest.feed("sideband_verdicts", verdict)
            digest.feed("cascades", stages)
            digest.feed("calibrations", calibration)
    for seed in plan["mc"]:
        pool = workloads.make_inputs("mc", seed)
        for op in workloads.prepare(cvteleport, "mc", pool):
            digest.feed("mc_moments", workloads.run_op(cvteleport, "mc", op))
    spy = _Spy(digest)
    with _sinograms_to(digest):
        for seed in plan["tomo"]:
            pool = workloads.make_inputs("tomo", seed)[:plan["tomo_ops"]]
            for op in workloads.prepare(cvteleport, "tomo", pool):
                digest.feed("tomo_states", op["state"])
                digest.feed("moments", workloads.run_op(spy, "tomo", op))


def _extreme_point(rng):
    """Keyword arguments of TeleporterParams, the same at unity gain with a
    coherent input, and a calibration target and source: signed gains from
    1e-2 to 1e200, squeezer levels from 0 to -60 dB with anti-squeezing up to
    60 dB more, eta_hom from 1e-6.  Each power is taken on a Python float,
    by libm, not by numpy's power, whose SIMD loops round differently."""
    kind = ("coherent", "squeezed", "vacuum")[int(rng.integers(3))]
    real, imag = (10.0 ** float(e) for e in rng.uniform(-3, 6, 2))
    coherent = cvteleport.coherent_state(complex(real, imag))
    if kind == "coherent":
        state = coherent
    elif kind == "squeezed":
        sq = float(rng.uniform(-60, 0))
        state = cvteleport.impure_squeezed_vacuum(sq, -sq + float(rng.uniform(0, 60)))
    else:
        state = cvteleport.vacuum(1)
    sq = [float(v) for v in rng.uniform(-60, 0, 2)]
    gains = [float(s) * 10.0 ** float(e) for s, e in zip(rng.choice([-1.0, 1.0], 2),
                                                         rng.uniform(-2, 200, 2))]
    params = {
        "input_state": state,
        "epr_sq_db": tuple(sq),
        "epr_antisq_db": tuple(-s + float(rng.uniform(0, 60)) for s in sq),
        "g_x": gains[0] if rng.random() < 0.8 else 1.0,
        "g_p": gains[1] if rng.random() < 0.8 else 1.0,
        "eta_source": tuple(float(v) for v in rng.uniform(0, 1, 2)),
        "eta_prop": tuple(float(v) for v in rng.uniform(0, 1, 2)),
        "eta_hom": 10.0 ** float(rng.uniform(-6, 0)),
    }
    target = tuple(float(v) for v in rng.uniform(-30, 1, 2))
    return params, dict(params, input_state=coherent, g_x=1.0, g_p=1.0), target, tuple(sq)


def _attempt(digest, call):
    """``call()``'s result for ``extreme_results``, or its error for ``extreme_errors``."""
    try:
        result = call()
    except (ValueError, ArithmeticError, Warning) as exc:
        digest.feed("extreme_errors", f"{type(exc).__name__}: {exc}")
        return
    digest.feed("extreme_results", result)


def _extremes(digest, plan):
    rng = np.random.default_rng(plan["extreme_seed"])
    for _ in range(plan["extreme_points"]):
        fields, unity, target, source = _extreme_point(rng)

        def analytic():
            report = cvteleport.teleport_analytic(cvteleport.TeleporterParams(**fields))
            pair = cvteleport.sidebands_from_single_mode(report.output_state)
            return report, cvteleport.is_entangled(pair)

        _attempt(digest, analytic)
        _attempt(digest, lambda: cvteleport.cascade(cvteleport.TeleporterParams(**unity),
                                                    EXTREME_STAGES))
        _attempt(digest, lambda: cvteleport.calibrate_losses(target, source))


def _config_case(digest, case, call):
    """``case`` and ``call()``'s value for ``config_values``, or ``case`` and
    its error for ``config_errors``."""
    try:
        value = call()
    except (ValueError, TypeError, ArithmeticError) as exc:
        digest.feed("config_errors", (case, f"{type(exc).__name__}: {exc}"))
        return
    digest.feed("config_values", (case, value))


def _configs(digest):
    for field in harness.CONFIG_FIELDS:
        for text in CONFIG_TEXTS:
            config_text = f"[{field.section}]\n{field.key} = {text}\n"
            _config_case(digest, (field.key, text),
                         lambda: getattr(harness.parse_config(config_text), field.attr))
        for value in CONFIG_VALUES:
            _config_case(digest, (field.attr, repr(value)),
                         lambda: getattr(harness.ExperimentConfig(**{field.attr: value}), field.attr))
    for field in harness.CALIBRATION_FIELDS + harness.CASCADE_FIELDS:
        for text in CONFIG_TEXTS:
            args = argparse.Namespace(**{field.key: text})
            _config_case(digest, (field.key, text),
                         lambda: cli._flag_values(args, [field])[field.attr])


def compute(plan):
    """The digest of ``plan`` (FULL or SUBSET): {class: sha256 hex}."""
    digest = Digest()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _pools(digest, plan)
        _extremes(digest, plan)
        _configs(digest)
    return digest.hexdigests()


def golden():
    return json.loads(GOLDEN.read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite tests/golden/digest.json instead of comparing")
    args = parser.parse_args(argv)
    plans = {"full": FULL, "subset": SUBSET}
    found = {part: {"plan": plan, "classes": compute(plan)} for part, plan in plans.items()}
    if args.write:
        GOLDEN.write_text(json.dumps(found, indent=1) + "\n")
        print(f"wrote {GOLDEN.relative_to(ROOT)}")
        return 0
    expected, moved = golden(), []
    for part in plans:
        for name, hexdigest in found[part]["classes"].items():
            same = expected[part]["classes"].get(name) == hexdigest
            moved += [] if same else [f"{part}.{name}"]
            print(f"{part:6} {name:18} {hexdigest}{'' if same else '  MOVED'}")
    print("moved: " + (", ".join(moved) if moved else "none"))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
