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
(skipped where numpy's build names no OpenBLAS).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvteleport

TESTS = Path(__file__).resolve().parent


def _dispatched_targets() -> list[str]:
    """The SIMD targets numpy's ufuncs run on here beyond its baseline."""
    introspect = pytest.importorskip("numpy.lib.introspect")
    current = {signature["current"] for signatures in introspect.opt_func_info().values()
               for signature in signatures.values()}
    return sorted(target for target in current if not target.startswith("baseline"))


def _uses_openblas() -> bool:
    """Whether numpy's build names OpenBLAS as its BLAS or LAPACK."""
    try:
        dependencies = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # a numpy whose show_config has no dicts mode
        return False
    return any("openblas" in str(dependencies.get(name, {}).get("name", "")).lower()
               for name in ("blas", "lapack"))


def _rerun_goldens_and_digest(tmp_path, **env) -> subprocess.CompletedProcess:
    src = str(Path(cvteleport.__file__).resolve().parents[1])
    env = {
        **os.environ,
        **env,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--basetemp", str(tmp_path / "inner"), "test_golden.py", "test_digest.py"],
        cwd=TESTS, env=env, capture_output=True, text=True, timeout=300,
    )


def test_goldens_and_digest_hold_at_numpy_baseline_dispatch(tmp_path):
    targets = _dispatched_targets()
    if not targets:
        pytest.skip("numpy runs only its baseline loops on this host")
    result = _rerun_goldens_and_digest(tmp_path, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    assert result.returncode == 0, f"with {' '.join(targets)} disabled:\n{result.stdout[-3000:]}"


@pytest.mark.parametrize("coretype", ["SandyBridge", "Haswell"])
def test_goldens_and_digest_hold_under_each_openblas_kernel(coretype, tmp_path):
    if not _uses_openblas():
        pytest.skip("numpy's build names no OpenBLAS")
    result = _rerun_goldens_and_digest(tmp_path, OPENBLAS_CORETYPE=coretype)
    assert result.returncode == 0, f"with OPENBLAS_CORETYPE={coretype}:\n{result.stdout[-3000:]}"
