"""Smoke tests of the scripts under scripts/, run as a user runs them."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_family_grid(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_family_grid.py"), *args],
        capture_output=True, text=True, env=env, timeout=120)


def test_family_grid_subset():
    proc = run_family_grid("--families", "FB", "rDF")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("ok   ") for line in lines) == 20
    assert lines[-1].startswith("20 points, 0 failure(s)")


def test_family_grid_rejects_unknown_tag():
    proc = run_family_grid("--families", "nope")
    assert proc.returncode == 2
    assert proc.stdout == "" and "invalid choice: 'nope'" in proc.stderr
