"""The byte goldens and the digest hold whichever SIMD loops numpy picks.

numpy dispatches some float64 ufuncs (log10, exp, power among them) to SIMD
loops chosen for the host CPU, and their results differ from its baseline
loops' in the last bit for some inputs.  The package's rule is that no number
a verb writes depends on that choice, so ``test_golden.py`` and
``test_digest.py`` must pass with numpy limited to its baseline dispatch.
This test re-runs them so, in a subprocess with NPY_DISABLE_CPU_FEATURES set
to every non-baseline target numpy is using on this host.  It is skipped
where numpy uses none, or has no ``numpy.lib.introspect``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvteleport

TESTS = Path(__file__).resolve().parent


def _dispatched_targets() -> list[str]:
    """The SIMD targets numpy's ufuncs run on here beyond its baseline."""
    introspect = pytest.importorskip("numpy.lib.introspect")
    current = {signature["current"] for signatures in introspect.opt_func_info().values()
               for signature in signatures.values()}
    return sorted(target for target in current if not target.startswith("baseline"))


def test_goldens_and_digest_hold_at_numpy_baseline_dispatch(tmp_path):
    targets = _dispatched_targets()
    if not targets:
        pytest.skip("numpy runs only its baseline loops on this host")
    src = str(Path(cvteleport.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--basetemp", str(tmp_path / "inner"), "test_golden.py", "test_digest.py"],
        cwd=TESTS, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, f"with {' '.join(targets)} disabled:\n{result.stdout[-3000:]}"
