"""The byte goldens and the digest hold whichever SIMD loops numpy picks and
whichever OpenBLAS kernel runs.

numpy dispatches some float64 ufuncs (log10, exp, power among them) to SIMD
loops chosen for the host CPU, and their results differ from its baseline
loops' in the last bit for some inputs.  OpenBLAS likewise picks a kernel for
the host CPU, and a kernel with fused multiply-adds (Haswell) rounds a matrix
product differently from one without (SandyBridge).  The package's rule is
that no number a verb writes depends on either choice, so ``test_golden.py``
and ``test_digest.py`` must pass with numpy limited to its baseline dispatch
and under each of those OpenBLAS kernels.  These tests re-run them so, in a
subprocess: with NPY_DISABLE_CPU_FEATURES set to every non-baseline target
numpy is using on this host (skipped where numpy uses none, or has no
``numpy.lib.introspect``), and with OPENBLAS_CORETYPE set to each kernel
(skipped where numpy's build names no OpenBLAS).  The three re-runs start
together, so the legs cost about the wall time of one.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvteleport

TESTS = Path(__file__).resolve().parent
CORETYPES = ("SandyBridge", "Haswell")


def _dispatched_targets() -> list[str] | str:
    """The SIMD targets numpy's ufuncs run on here beyond its baseline, or why
    that leg is skipped."""
    try:
        from numpy.lib import introspect
    except ImportError:
        return "numpy has no numpy.lib.introspect"
    current = {signature["current"] for signatures in introspect.opt_func_info().values()
               for signature in signatures.values()}
    targets = sorted(target for target in current if not target.startswith("baseline"))
    return targets or "numpy runs only its baseline loops on this host"


def _uses_openblas() -> bool:
    """Whether numpy's build names OpenBLAS as its BLAS or LAPACK."""
    try:
        dependencies = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # a numpy whose show_config has no dicts mode
        return False
    return any("openblas" in str(dependencies.get(name, {}).get("name", "")).lower()
               for name in ("blas", "lapack"))


def _legs() -> dict[str, dict[str, str] | str]:
    """Each leg's environment variables, or the reason it is skipped."""
    targets = _dispatched_targets()
    legs = {"baseline": targets if isinstance(targets, str)
            else {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}}
    for coretype in CORETYPES:
        legs[coretype] = ({"OPENBLAS_CORETYPE": coretype} if _uses_openblas()
                          else "numpy's build names no OpenBLAS")
    return legs


@pytest.fixture(scope="module")
def reruns(tmp_path_factory):
    """Every leg's re-run of test_golden.py and test_digest.py, all started at
    once in subprocesses: {leg: (its variables, its process, its output
    file)}, or the reason the leg is skipped.  A process still running at
    the end of the module is killed."""
    src = str(Path(cvteleport.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    started = {}
    for leg, variables in _legs().items():
        if isinstance(variables, str):
            started[leg] = variables
            continue
        work = tmp_path_factory.mktemp(leg)
        output = work / "output.txt"
        with output.open("w") as sink:
            process = subprocess.Popen(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "--basetemp", str(work / "inner"), "test_golden.py", "test_digest.py"],
                cwd=TESTS, env={**os.environ, **variables, "PYTHONPATH": path},
                stdout=sink, stderr=subprocess.STDOUT, text=True,
            )
        started[leg] = (variables, process, output)
    yield started
    for leg in started.values():
        if not isinstance(leg, str) and leg[1].poll() is None:
            leg[1].kill()
            leg[1].wait()


def _assert_leg_passes(reruns, leg: str) -> None:
    if isinstance(reruns[leg], str):
        pytest.skip(reruns[leg])
    variables, process, output = reruns[leg]
    returncode = process.wait(timeout=300)
    setting = " ".join(f"{name}={value}" for name, value in variables.items())
    assert returncode == 0, f"with {setting}:\n{output.read_text()[-3000:]}"


def test_goldens_and_digest_hold_at_numpy_baseline_dispatch(reruns):
    _assert_leg_passes(reruns, "baseline")


@pytest.mark.parametrize("coretype", CORETYPES)
def test_goldens_and_digest_hold_under_each_openblas_kernel(coretype, reruns):
    _assert_leg_passes(reruns, coretype)
