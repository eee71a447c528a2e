"""Smoke test: every demo script, and README's library tour and config
example, run to completion against the package.

Each demo runs in-process from a copy in a temporary directory, so files a
demo writes next to itself stay out of the source tree.
"""

import runpy
import shutil
from pathlib import Path

import pytest

from cvteleport import parse_config

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path, capsys):
    copy = tmp_path / demo.name
    shutil.copy(demo, copy)
    runpy.run_path(str(copy), run_name="__main__")
    assert capsys.readouterr().out


def _readme_block(language: str) -> str:
    """The body of README's one ```language fenced block."""
    return README.read_text(encoding="utf-8").split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_examples_run():
    exec(compile(_readme_block("python"), str(README), "exec"), {})
    assert parse_config(_readme_block("ini")).output_dir == "results"
