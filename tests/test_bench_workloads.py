"""The benchmark's in-process operations run on the live package and pass the
benchmark's own output checks, so an API change that breaks what
``cvbench/workloads.py`` calls fails here, not only in a benchmark run.

Each workload's first operation of its seed-0 pool is run once; ``sweep``
is checked against the frozen reference package ``cvbench/cvteleport_ref``.
"""

import sys
from pathlib import Path

import pytest

import cvteleport

BENCH = Path(__file__).resolve().parents[1] / "cvbench"
sys.path.insert(0, str(BENCH))

import cvteleport_ref  # noqa: E402
import workloads  # noqa: E402


def first_op(pkg, workload):
    """The first operation of the seed-0 pool, as ``pkg``'s side prepares it."""
    return workloads.prepare(pkg, workload, workloads.make_inputs(workload, 0))[0]


@pytest.mark.parametrize("workload", ["sweep", "mc", "tomo"])
def test_first_op_passes_the_benchmark_check(workload):
    live = workloads.run_op(cvteleport, workload, first_op(cvteleport, workload))
    ref_op = first_op(cvteleport_ref, workload)
    if workload == "sweep":
        verdict = workloads.check_sweep(live, workloads.run_op(cvteleport_ref, workload, ref_op))
    elif workload == "mc":
        ref_params = workloads.build_params(cvteleport_ref, ref_op["point"])
        verdict = workloads.check_mc(live, cvteleport_ref.teleport_analytic(ref_params))
    else:
        verdict = workloads.check_tomo(live, ref_op["state"])
    assert verdict is None
