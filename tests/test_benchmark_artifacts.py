"""A benchmark run writes only files git does not track.

Every artifact the bench modules write (rendered tables, timings, JSON
twins) goes to ``benchmarks/results/``, which ``.gitignore`` lists and
git tracks nothing in; what tier-1 compares them with lives in
``benchmarks/golden/``.  So a tier-1 run leaves ``git status`` clean.
"""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)


def test_benchmark_results_are_untracked():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    toplevel = git("rev-parse", "--show-toplevel")
    checkout = Path(toplevel.stdout.strip()).resolve()
    if toplevel.returncode or checkout != ROOT:
        pytest.skip("not a git checkout of this repository")
    ignored = (ROOT / ".gitignore").read_text(encoding="utf-8").splitlines()
    assert "benchmarks/results/" in ignored
    tracked = git("ls-files", "benchmarks/results")
    assert tracked.returncode == 0, tracked.stderr
    assert tracked.stdout == ""
