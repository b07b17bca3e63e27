"""Determinism suite: `-j N` is byte-identical to `-j 1`.

The acceptance contract of the parallel engine (ISSUE 3): aggregate
counts, report row ordering and per-cell verdicts must not depend on
the worker count, and crash isolation must behave identically —
an injected cell crash quarantines exactly one cell in both modes,
while a hard worker death (parallel only) is absorbed as a
``WorkerCrash`` costing exactly one cell.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.difftest.report import format_table2, format_table3
from repro.difftest.runner import (
    CampaignConfig,
    bytecode_specs,
    run_campaign,
    sequence_campaign_rows,
)
from repro.jit.machine.x86 import X86Backend
from repro.robustness.faults import FaultPlan, inject_faults
from tests.robustness.test_campaign_resilience import cell_summaries

CONFIG = CampaignConfig(max_bytecodes=2, max_natives=1,
                        backends=(X86Backend,))

TARGET_INSTRUCTION = bytecode_specs(CONFIG)[1].name
TARGET_COMPILER = "StackToRegisterCogit"


@pytest.fixture(scope="module")
def baseline():
    """The sequential run every parallel run is compared against."""
    return run_campaign(CONFIG)


class TestByteIdenticalReports:
    def test_tables_and_cells_match_sequential(self, baseline):
        parallel = run_campaign(CONFIG, jobs=4)
        assert format_table2(parallel) == format_table2(baseline)
        assert format_table3(parallel) == format_table3(baseline)
        assert cell_summaries(parallel) == cell_summaries(baseline)
        assert len(parallel.quarantine) == 0
        assert parallel.workers == 4

    def test_worker_count_does_not_matter(self, baseline):
        two = run_campaign(CONFIG, jobs=2)
        three = run_campaign(CONFIG, jobs=3)
        assert format_table2(two) == format_table2(three)
        assert format_table2(two) == format_table2(baseline)

    def test_exploration_cache_runs_once_per_instruction(self, baseline):
        parallel = run_campaign(CONFIG, jobs=2)
        # 1 native + 2 bytecodes explored (misses); the other two
        # bytecode compiler cells of each shard hit the shard cache.
        assert parallel.cache_misses == 3
        assert parallel.cache_hits == 4
        assert parallel.cache_hits == baseline.cache_hits
        assert parallel.cache_misses == baseline.cache_misses

    def test_sequence_campaign_parallel_matches_sequential(self):
        rows = sequence_campaign_rows(CONFIG)
        sequential = run_campaign(CONFIG, rows)
        parallel = run_campaign(CONFIG, rows, jobs=4)
        assert format_table2(parallel) == format_table2(sequential)
        assert cell_summaries(parallel) == cell_summaries(sequential)


class TestCrashIsolationParity:
    def test_cell_crash_quarantines_one_cell_in_both_modes(self, baseline):
        plan = FaultPlan(stage="compile", instruction=TARGET_INSTRUCTION,
                         compiler=TARGET_COMPILER)
        crashed_key = (TARGET_COMPILER, TARGET_INSTRUCTION)
        summaries = {}
        for jobs in (1, 4):
            with inject_faults(plan):
                reports = run_campaign(CONFIG, jobs=jobs)
            assert len(reports.quarantine) == 1
            entry = reports.quarantine.entries[0]
            assert entry.instruction == TARGET_INSTRUCTION
            assert entry.compiler == TARGET_COMPILER
            assert entry.error_class == "CompilerCrash"
            summaries[jobs] = cell_summaries(reports)

        # The quarantined cell and every healthy cell are identical
        # across modes, and healthy cells match the fault-free run.
        assert summaries[1] == summaries[4]
        healthy = dict(summaries[4])
        del healthy[crashed_key]
        expected = dict(cell_summaries(baseline))
        del expected[crashed_key]
        assert healthy == expected

    def test_worker_death_costs_exactly_one_cell(self, baseline):
        """A hard process death (os._exit, standing in for a segfault)
        is quarantined as a WorkerCrash; the rest of the dead worker's
        shard is re-run and matches the baseline."""
        plan = FaultPlan(stage="compile", kind="die",
                         instruction=TARGET_INSTRUCTION,
                         compiler=TARGET_COMPILER)
        with inject_faults(plan):
            reports = run_campaign(CONFIG, jobs=2)

        assert len(reports.quarantine) == 1
        entry = reports.quarantine.entries[0]
        assert entry.error_class == "WorkerCrash"
        assert entry.stage == "worker"
        assert entry.instruction == TARGET_INSTRUCTION
        assert entry.compiler == TARGET_COMPILER
        assert entry.attempts == 1

        faulted = cell_summaries(reports)
        crashed_key = (TARGET_COMPILER, TARGET_INSTRUCTION)
        assert faulted[crashed_key][3] == [
            ("x86", "crashed", "WorkerCrash")
        ]
        expected = dict(cell_summaries(baseline))
        del faulted[crashed_key]
        del expected[crashed_key]
        assert faulted == expected

    def test_fail_fast_propagates_from_worker(self):
        from repro.robustness.errors import CompilerCrash

        config = replace(CONFIG, fail_fast=True)
        plan = FaultPlan(stage="compile", instruction=TARGET_INSTRUCTION,
                         compiler=TARGET_COMPILER)
        with inject_faults(plan):
            with pytest.raises(CompilerCrash):
                run_campaign(config, jobs=2)


class TestCacheInterplay:
    """The persistent result store composes with work stealing: a warm
    parallel run stays byte-identical to the sequential baseline, and
    crash containment never poisons the store."""

    def test_warm_cache_identical_across_worker_counts(self, baseline,
                                                       tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_campaign(CONFIG, cache_dir=cache_dir)  # populate
        for jobs in (2, 3):
            warm = run_campaign(CONFIG, jobs=jobs, cache_dir=cache_dir)
            assert warm.cached_cells == 7
            assert format_table2(warm) == format_table2(baseline)
            assert format_table3(warm) == format_table3(baseline)
            assert cell_summaries(warm) == cell_summaries(baseline)

    def test_worker_death_does_not_poison_the_store(self, baseline,
                                                    tmp_path):
        """Workers append each completed cell before reporting it, so a
        dead worker leaves only finished records behind.  The crashed
        cell is never stored; the warm re-run hits the six healthy
        cells, re-runs the seventh live and converges on the fault-free
        baseline."""
        cache_dir = str(tmp_path / "cache")
        plan = FaultPlan(stage="compile", kind="die",
                         instruction=TARGET_INSTRUCTION,
                         compiler=TARGET_COMPILER)
        with inject_faults(plan):
            faulted = run_campaign(CONFIG, jobs=2, cache_dir=cache_dir)
        assert len(faulted.quarantine) == 1

        warm = run_campaign(CONFIG, cache_dir=cache_dir)
        assert warm.cache.hits == 6
        assert warm.cache.misses == 1
        assert len(warm.quarantine) == 0
        assert cell_summaries(warm) == cell_summaries(baseline)
