"""Acceptance tests: the campaign survives injected faults.

The resilience engine is validated end to end with fault injection
(repro.robustness.faults): crashes at pipeline stages must quarantine
exactly the affected cell, every other cell must be identical to a
fault-free run, and an interrupted campaign must resume from its
journal with identical aggregate counts.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.difftest.report import table2
from repro.difftest.runner import (
    CampaignConfig,
    bytecode_specs,
    run_campaign,
)
from repro.jit.machine.x86 import X86Backend
from repro.robustness.faults import FaultPlan, inject_faults

CONFIG = CampaignConfig(max_bytecodes=2, max_natives=1,
                        backends=(X86Backend,))

#: A deterministic mid-campaign cell to target with faults.
TARGET_INSTRUCTION = bytecode_specs(CONFIG)[1].name
TARGET_COMPILER = "StackToRegisterCogit"


def cell_summaries(reports):
    """(compiler row, instruction) -> comparable per-cell verdicts."""
    cells = {}
    for report in reports:
        for result in report.results:
            cells[(report.compiler, result.instruction)] = (
                result.interpreter_paths,
                result.curated_paths,
                result.differing_paths,
                [(c.backend, c.status.value, c.difference_kind)
                 for c in result.comparisons],
            )
    return cells


@pytest.fixture(scope="module")
def baseline():
    """The fault-free run every scenario is compared against."""
    return run_campaign(CONFIG)


class TestCrashIsolation:
    def test_compile_crash_quarantines_cell_and_campaign_continues(
        self, baseline
    ):
        plan = FaultPlan(stage="compile", instruction=TARGET_INSTRUCTION,
                         compiler=TARGET_COMPILER)
        with inject_faults(plan):
            reports = run_campaign(CONFIG)

        assert len(reports.quarantine) == 1
        entry = reports.quarantine.entries[0]
        assert entry.instruction == TARGET_INSTRUCTION
        assert entry.compiler == TARGET_COMPILER
        assert entry.error_class == "CompilerCrash"
        assert entry.attempts == 2

        # The crashed cell is visible as a CRASHED comparison, not a
        # difference.
        crashed_key = (TARGET_COMPILER, TARGET_INSTRUCTION)
        faulted_cells = cell_summaries(reports)
        comparisons = faulted_cells[crashed_key][3]
        assert comparisons == [("x86", "crashed", "CompilerCrash")]
        assert faulted_cells[crashed_key][2] == 0  # no differing paths

        # Every *other* cell is identical to the fault-free run.
        baseline_cells = cell_summaries(baseline)
        del faulted_cells[crashed_key]
        del baseline_cells[crashed_key]
        assert faulted_cells == baseline_cells

    def test_transient_crash_is_retried_not_quarantined(self, baseline):
        """One crash, then success: the reduced-budget retry absorbs it."""
        plan = FaultPlan(stage="compile", instruction=TARGET_INSTRUCTION,
                         compiler=TARGET_COMPILER, times=1)
        with inject_faults(plan):
            reports = run_campaign(CONFIG)
        assert len(reports.quarantine) == 0
        assert table2(reports) == table2(baseline)

    def test_retried_cell_surfaces_in_the_report(self, baseline, tmp_path):
        """A retried-but-recovered cell is not invisible: the retry
        section names it, the count survives the journal, and the
        fault-free baseline prints no section at all."""
        from repro.difftest.report import format_retries

        journal = tmp_path / "run.jsonl"
        plan = FaultPlan(stage="compile", instruction=TARGET_INSTRUCTION,
                         compiler=TARGET_COMPILER, times=1)
        with inject_faults(plan):
            reports = run_campaign(CONFIG, journal_path=journal)

        text = format_retries(reports)
        assert "Retried cells: 1 (1 reduced-budget retries)" in text
        assert f"{TARGET_INSTRUCTION} [{TARGET_COMPILER}] retries=1" in text
        assert format_retries(baseline) == ""

        resumed = run_campaign(CONFIG, journal_path=journal, resume=True)
        assert format_retries(resumed) == text

    def test_hang_without_deadline_is_cell_budget_quarantine(self):
        """A simulated hang is bounded by the budget layer and lands in
        quarantine as a BudgetExhausted cell, not a stuck campaign."""
        plan = FaultPlan(stage="simulate", kind="hang",
                         instruction=TARGET_INSTRUCTION,
                         compiler=TARGET_COMPILER)
        with inject_faults(plan):
            reports = run_campaign(CONFIG)
        assert len(reports.quarantine) == 1
        entry = reports.quarantine.entries[0]
        assert entry.error_class == "BudgetExhausted"
        assert entry.stage == "budget"
        assert not reports.budget_exhausted  # cell-scoped, campaign ran on

    def test_solver_crash_keeps_innermost_classification(self):
        """A solver crash surfacing through the explorer guard is still
        reported as a SolverCrash at the solver stage."""
        plan = FaultPlan(stage="solve", kind="memory", times=2)
        with inject_faults(plan):
            reports = run_campaign(CONFIG)
        assert len(reports.quarantine) == 1
        entry = reports.quarantine.entries[0]
        assert entry.error_class == "SolverCrash"
        assert entry.stage == "solver"

    def test_fail_fast_reraises_instead_of_quarantining(self):
        from repro.robustness.errors import CompilerCrash

        config = replace(CONFIG, fail_fast=True)
        plan = FaultPlan(stage="compile", instruction=TARGET_INSTRUCTION,
                         compiler=TARGET_COMPILER)
        with inject_faults(plan):
            with pytest.raises(CompilerCrash) as excinfo:
                run_campaign(config)
        # The cell's own exception, not one rebuilt from its class name.
        assert excinfo.value.original is not None


class TestCheckpointResume:
    def test_interrupt_then_resume_matches_uninterrupted(
        self, baseline, tmp_path
    ):
        """^C mid-campaign, then --resume: identical aggregate counts."""
        journal = tmp_path / "campaign.jsonl"
        plan = FaultPlan(stage="compile", kind="interrupt",
                         instruction=TARGET_INSTRUCTION,
                         compiler=TARGET_COMPILER, times=1)
        with inject_faults(plan):
            with pytest.raises(KeyboardInterrupt):
                run_campaign(CONFIG, journal_path=journal)

        completed_before = len(journal.read_text().splitlines())
        assert completed_before > 0  # cells before the ^C were journaled

        resumed = run_campaign(CONFIG, journal_path=journal, resume=True)
        assert resumed.resumed_cells == completed_before
        assert table2(resumed) == table2(baseline)
        assert cell_summaries(resumed) == cell_summaries(baseline)
        assert len(resumed.quarantine) == 0

    def test_expired_deadline_stops_cleanly_and_resumes(
        self, baseline, tmp_path
    ):
        journal = tmp_path / "deadline.jsonl"
        exhausted = run_campaign(replace(CONFIG, deadline_seconds=0.0),
                                 journal_path=journal)
        assert exhausted.budget_exhausted
        assert sum(row.tested_instructions for row in exhausted) == 0

        resumed = run_campaign(CONFIG, journal_path=journal, resume=True)
        assert not resumed.budget_exhausted
        assert table2(resumed) == table2(baseline)

    def test_quarantined_cells_are_journaled_and_replayed(self, tmp_path):
        """Resuming must not silently retry a quarantined cell: the
        quarantine entry itself round-trips through the journal."""
        journal = tmp_path / "quarantine.jsonl"
        plan = FaultPlan(stage="compile", instruction=TARGET_INSTRUCTION,
                         compiler=TARGET_COMPILER)
        with inject_faults(plan):
            first = run_campaign(CONFIG, journal_path=journal)
        assert len(first.quarantine) == 1

        # No fault armed now: a re-run would succeed, but the resumed
        # campaign replays the journaled crash instead of re-running.
        resumed = run_campaign(CONFIG, journal_path=journal, resume=True)
        assert len(resumed.quarantine) == 1
        assert resumed.quarantine.entries[0].instruction == TARGET_INSTRUCTION
        assert cell_summaries(resumed) == cell_summaries(first)
