"""Each demo script runs to completion and prints exactly its pinned output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gsg

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# each demo imports gsg from where this suite did: src/ or the installed package
ENV = dict(os.environ, PYTHONPATH=str(Path(gsg.__file__).resolve().parents[1]))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], env=ENV, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_prints_its_pinned_output(demo):
    proc = subprocess.run([sys.executable, str(demo)], env=ENV, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "data" / "demos" / f"{demo.stem}.txt").read_bytes()
