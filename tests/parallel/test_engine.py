"""One engine at every ``-j``: the same shard function, set-up and finish.

``-j 1`` runs each shard in process through
:func:`repro.parallel.worker.serve_shard`, the loop every pool worker
runs; these tests pin what that sharing promises: records carry the
exploration times at every ``-j``, and an in-process run neither
forks nor imports the pool.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.difftest.report import exploration_times, format_table2
from repro.difftest.runner import CampaignConfig, run_campaign
from repro.jit.machine.x86 import X86Backend

CONFIG = CampaignConfig(max_bytecodes=2, max_natives=1,
                        backends=(X86Backend,))
#: 1 native cell + 2 bytecodes x 3 compilers.
CELLS = 7


@pytest.fixture(scope="module")
def baseline():
    return run_campaign(CONFIG)


def cells(reports) -> list:
    return [result for report in reports for result in report.results]


def test_in_process_cells_run_through_the_shard_function(monkeypatch):
    import repro.parallel.worker as worker

    calls = []
    execute_cell = worker.execute_cell

    def counting(config, deadline, spec, compiler_class, cache):
        calls.append((spec.name, compiler_class.name))
        return execute_cell(config, deadline, spec, compiler_class, cache)

    monkeypatch.setattr(worker, "execute_cell", counting)
    run_campaign(CONFIG)
    assert len(calls) == len(set(calls)) == CELLS


@pytest.mark.parametrize("jobs", [1, 2])
def test_cell_records_keep_the_exploration_time(jobs):
    """Fig. 6 reads each cell's exploration time back from its record."""
    times = exploration_times(cells(run_campaign(CONFIG, jobs=jobs)))
    assert times["native"].values
    assert min(times["native"].values) > 0.0


def test_jobs_zero_on_one_cpu_runs_in_process(baseline, monkeypatch):
    def no_fork():
        raise AssertionError("-j 0 on a 1-CPU host must not fork")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "fork", no_fork)
    reports = run_campaign(CONFIG, jobs=0)
    assert reports.workers == 1
    assert format_table2(reports) == format_table2(baseline)


def test_in_process_run_imports_no_pool(tmp_path):
    script = (
        "import sys\n"
        "from repro.difftest.runner import CampaignConfig, run_campaign\n"
        "from repro.jit.machine.x86 import X86Backend\n"
        "run_campaign(CampaignConfig(max_bytecodes=1, max_natives=1,\n"
        "                            backends=(X86Backend,)),\n"
        "             cache_dir=sys.argv[1])\n"
        "print([m for m in ('multiprocessing', 'repro.parallel.pool')\n"
        "       if m in sys.modules])\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "cache")],
        capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.strip() == "[]"
