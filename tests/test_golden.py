"""Byte-for-byte regression of the files the CLI verbs write.

Each case runs the CLI in-process and compares every file it writes with a
fixture under ``tests/golden/<case>/``.  The fixtures pin the exact bytes of
``report.json``, ``trace.csv`` and ``wigner.csv`` of the scenario verbs and
the ``report.json`` of ``cascade``, ``calibrate`` and ``paper-repro``, so a
refactor of the config, flag or report plumbing that changes any output shows
up here.  The ``mc_sweep_seconds`` row of ``paper-repro`` is wall-clock time,
not a result: its value is masked to ``null`` in the produced bytes and in the
fixture alike.

The bytes depend neither on numpy's SIMD dispatch nor on the BLAS kernel
(``test_simd_dispatch.py`` re-runs these cases at numpy's baseline dispatch
and under OpenBLAS's SandyBridge and Haswell kernels): the gates and the
Monte Carlo read-out compute their small products on Python floats in a
fixed order, not through the BLAS.

To regenerate the fixtures after a deliberate output change (all cases, or
only the named ones):

    PYTHONPATH=src python tests/test_golden.py [case ...]
"""

import re
from pathlib import Path

import pytest

import cvteleport.cli as cli

GOLDEN = Path(__file__).parent / "golden"

# A config that sets every key of the grammar, with non-default values.
FULL_CONFIG = """\
[run]
scenario = squeezed_p
alpha = 1.25
input_sq_db = -5.5
input_antisq_db = 9.25
method = mc
shots = 5000
seed = 11

[teleporter]
epr_sq_db = -6.2 -6.1
epr_antisq_db = 12.0 11.5
g_x = 0.97
g_p = 1.02
eta_source = 0.953 0.945
eta_prop = 0.99 0.98
eta_hom = 0.97

[trace]
n_points = 64
averages = 12
sampled = true

[tomography]
samples = 20000
grid_points = 31
grid_pad = 5.0
cutoff = 14.5

[output]
dir = golden_out
"""

# case -> (argv, files in the config's output directory or None for --out)
CASES = {
    "run_flags": (
        [
            "run", "--scenario", "coherent", "--alpha", "2.5", "--seed", "4",
            "--epr-sq-db", "-6.2", "-6.1", "--g-x", "0.95", "--g-p", "1.05",
            "--eta-source", "0.97", "0.96", "--eta-prop", "0.99", "0.98",
            "--eta-hom", "0.98",
        ],
        ("report.json",),
    ),
    "wigner_full_config": (
        ["wigner", "--config", "exp.ini"],
        ("report.json", "wigner.csv"),
    ),
    # The default tomography: a multi-block default sweep and the automatic cutoff.
    "wigner_default_sweep": (
        ["wigner", "--scenario", "squeezed_x", "--samples", "100000", "--seed", "3"],
        ("report.json", "wigner.csv"),
    ),
    "trace_mc_sampled": (
        ["trace", "--method", "mc", "--sampled", "--seed", "6"],
        ("report.json", "trace.csv"),
    ),
    "cascade_lossy": (
        ["cascade", "--stages", "5", "--epr-sq-db", "-5", "-4", "--eta-prop", "0.9", "0.95"],
        ("report.json",),
    ),
    "calibrate_targets": (
        ["calibrate", "--target-epr-db", "-5.6", "-5.5"],
        ("report.json",),
    ),
    "paper_repro": (["paper-repro"], ("report.json",)),
}

# The value of the mc_sweep_seconds row in paper-repro's report.json.
_CLOCK_VALUE = re.compile(
    rb'("quantity": "mc_sweep_seconds",\n\s*"reference": "[^"]*",\n\s*"simulated": )[^\n]*'
)


def _mask_clock(data: bytes) -> bytes:
    """``data`` with the mc_sweep_seconds value replaced by null; every other
    byte is kept as written."""
    masked, count = _CLOCK_VALUE.subn(rb"\1null", data)
    if count != 1:
        raise RuntimeError(f"expected one mc_sweep_seconds value, found {count}")
    return masked


def produce(case: str, workdir: Path) -> dict[str, bytes]:
    """Run one case inside ``workdir``; return the bytes of its output files."""
    argv, names = CASES[case]
    (workdir / "exp.ini").write_text(FULL_CONFIG, encoding="utf-8")
    if "--config" in argv:
        outdir = workdir / "golden_out"  # from the config's [output] dir
    else:
        outdir = workdir / "out"
        argv = [*argv, "--out", str(outdir)]
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{case}: exit {code}")
    produced = {name: (outdir / name).read_bytes() for name in names}
    if case == "paper_repro":
        produced["report.json"] = _mask_clock(produced["report.json"])
    return produced


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_bytes(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CVTELEPORT_OUTDIR", raising=False)
    produced = produce(case, tmp_path)
    for name, data in produced.items():
        assert data == (GOLDEN / case / name).read_bytes(), f"{case}/{name} changed"


if __name__ == "__main__":
    import os
    import sys
    import tempfile

    for case in sys.argv[1:] or sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                produced = produce(case, Path(tmp))
            finally:
                os.chdir(cwd)
        (GOLDEN / case).mkdir(parents=True, exist_ok=True)
        for name, data in produced.items():
            (GOLDEN / case / name).write_bytes(data)
            print(f"wrote {GOLDEN / case / name}")
