"""Checks of the benchmark's frozen reference package and of its tracer.

Run with ``python3 -m pytest cvbench``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

_LOADS_NO_LIVE_MODULE = """
import sys
import cvteleport_ref, cvteleport_ref.cli, workloads
for workload in ("sweep", "mc", "tomo"):
    pool = workloads.prepare(cvteleport_ref, workload, workloads.make_inputs(workload, 0))
    workloads.run_op(cvteleport_ref, workload, pool[0])
live = sorted(m for m in sys.modules if m == "cvteleport" or m.startswith("cvteleport."))
assert not live, live
"""


def test_reference_hash_is_pinned_in_benchmark_json():
    command = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["command"]
    assert command[command.index("--ref-sha256") + 1] == run.reference_sha256()


def test_reference_loads_no_live_module():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(BENCH)
    subprocess.run([sys.executable, "-c", _LOADS_NO_LIVE_MODULE], env=env, cwd=BENCH,
                   check=True, timeout=120)


def test_tracer_sees_calls_through_every_namespace():
    import cvteleport_ref as ref

    params = ref.TeleporterParams(input_state=ref.coherent_state(1.0))
    tracer = tracing.Tracer("cvteleport_ref")
    tracer.install()
    try:
        ref.teleport_analytic(params)
    finally:
        tracer.uninstall()
    functions = tracing.summarize([tracer.dump()])["functions"]
    # One make_epr inside _sender_mixed and one inside _report.
    assert functions["teleporter.make_epr"][0] == 2
    assert functions["teleporter.teleport_analytic"][0] == 1
    assert not hasattr(ref.teleporter.make_epr, "__wrapped__")  # uninstalled
