"""Mutant ids survive every re-execution path (ISSUE satellite 2).

A quarantine retry runs the cell again under ``config.reduced()``; a
parallel campaign triages in the *parent* process over records the
workers produced.  Both must see the same mutated semantics as the
original execution, or a retry would "fix" a seeded defect by
accident and triage would report every mutant-seeded cause as
vanished.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.difftest.runner import CampaignConfig, run_campaign
from repro.mutation.recall import campaign_fingerprint
from repro.triage import TriageConfig
from repro.triage.lab import TriageLab


class TestConfigThreading:
    def test_reduced_preserves_mutants(self):
        config = CampaignConfig(mutants=("R10", "R11", "C1"))
        reduced = config.reduced()
        assert reduced.mutants == ("R10", "R11", "C1")
        # ...while the budgets did shrink, which is reduced()'s job.
        assert (reduced.max_paths_per_instruction
                < config.max_paths_per_instruction)

    def test_triage_lab_preserves_mutants(self):
        config = CampaignConfig(mutants=("I1",))
        lab = TriageLab(config)
        assert lab.config.mutants == ("I1",)


class TestRetrySemantics:
    def test_reduced_config_reproduces_mutated_semantics(self):
        # The exact config a quarantine retry would run: reduced
        # budgets, same mutants.  It must still differ from a clean
        # reduced run — i.e. the retry re-seeds the defect.
        config = CampaignConfig(
            only=("primitiveFloatTruncated",),
            max_paths_per_instruction=8,
            mutants=("R10",),
        ).reduced()
        mutated = campaign_fingerprint(run_campaign(config))
        clean = campaign_fingerprint(
            run_campaign(replace(config, mutants=()))
        )
        assert mutated != clean


class TestParallelTriage:
    @pytest.fixture(scope="class")
    def parallel_triaged(self):
        return run_campaign(
            CampaignConfig(
                only=("primitiveFloatTruncated",),
                max_paths_per_instruction=16,
                mutants=("R10",),
            ),
            jobs=2,
            triage=TriageConfig(confirm_runs=2, repro_dir=None,
                                shrink=False, self_verify=False),
        )

    def test_parent_triage_confirms_mutant_defects(self, parallel_triaged):
        # Workers ran mutated; triage runs in the parent.  Before the
        # engine activated config.mutants itself, every confirmation
        # replayed *unmutated* semantics and the causes vanished.
        triage = parallel_triaged.triage
        causes = list(triage.causes) + list(triage.crash_causes)
        assert causes
        assert all(c.confirmation != "vanished" for c in causes)
        assert any(c.confirmation == "deterministic" for c in causes)
