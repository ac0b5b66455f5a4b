"""Every demo script, and the README's library snippet, runs to completion
against the source tree; a demo asserts each self-check it prints, so a
failed one exits non-zero."""

import os
import subprocess
import sys
from pathlib import Path

import re

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_snippet_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"Library use mirrors the demos:\n\n```python\n(.*?)```", readme, re.S)
    assert snippet, "README has no library snippet"
    proc = run_python(["-c", snippet.group(1)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("training accuracy")
