"""The stitched campaign end to end: engines, resume, recall.

The acceptance criteria of the stitching tentpole: the stitched
campaign is byte-identical across ``-j1`` / ``-jN`` / ``--resume``
(same canonical-plan machinery as the main and sequence campaigns),
triage can resolve stitched cells from their serialized names, and
the C3 dropped-spill mutant — invisible to single-instruction tests —
is caught through the stitched corpus (docs/STITCHING.md).
"""

from __future__ import annotations

import pytest

from repro.difftest.report import format_table2
from repro.difftest.runner import (
    CampaignConfig,
    run_campaign,
    stitched_campaign_rows,
)
from repro.mutation.recall import campaign_fingerprint, run_recall

#: Small but real: enough corpus for the C3-catching stitches to be
#: emitted (the jump-carrying prefixes score highest), small enough
#: for test-suite latency.
CONFIG = CampaignConfig(
    stitch_fragments=12, stitch_max_methods=8,
    stitch_depth=2, stitch_paths_per_fragment=4,
)


def stitched_campaign(config, **kwargs):
    return run_campaign(config, stitched_campaign_rows(config), **kwargs)


@pytest.fixture(scope="module")
def sequential():
    return stitched_campaign(CONFIG)


class TestStitchedCampaign:
    def test_rows_cover_all_bytecode_compilers(self, sequential):
        assert [report.compiler for report in sequential] == [
            "SimpleStackBasedCogit (stitched)",
            "StackToRegisterCogit (stitched)",
            "RegisterAllocatingCogit (stitched)",
        ]
        for report in sequential:
            assert report.tested_instructions > 0
            assert report.curated_paths > 0

    def test_cells_carry_the_stitched_kind(self, sequential):
        for report in sequential:
            for cell in report.results:
                assert cell.instruction.startswith("stitch:")

    def test_byte_identical_across_jobs(self, sequential):
        parallel = stitched_campaign(CONFIG, jobs=2)
        assert campaign_fingerprint(parallel) == campaign_fingerprint(
            sequential
        )
        assert format_table2(parallel) == format_table2(sequential)

    def test_byte_identical_across_resume(self, sequential, tmp_path):
        journal = str(tmp_path / "stitched.jsonl")
        first = stitched_campaign(CONFIG, journal_path=journal)
        resumed = stitched_campaign(
            CONFIG, journal_path=journal, resume=True
        )
        assert resumed.resumed_cells > 0
        assert campaign_fingerprint(first) == campaign_fingerprint(
            sequential
        )
        assert campaign_fingerprint(resumed) == campaign_fingerprint(
            sequential
        )


class TestTriageResolution:
    def test_spec_for_resolves_stitched_cells(self, sequential):
        from repro.difftest.runner import spec_named

        cell = sequential[0].results[0]
        spec = spec_named(cell.instruction)
        assert spec.name == cell.instruction
        assert spec.kind == "stitched"


class TestC3Recall:
    def test_dropped_spill_caught_through_stitched_corpus(self):
        # The headline: C3 drops the spill count at gen_flush, which
        # only fires with deferred entries pending at a jump boundary —
        # a state single-instruction tests never reach.  The stitched
        # sweep must catch it (as a parse-time stack underflow compile
        # error, a clean fingerprint delta).
        report = run_recall(CONFIG, ("C3",), (4,))
        outcome = report.outcome("C3")
        assert outcome.corpus == "stitched"
        assert outcome.status == "caught"
        index, label = outcome.first_detection[4]
        assert label.startswith("stitch:")
        # Per-corpus baselines: the stitched baseline was measured,
        # the main baseline was never run (no main-corpus mutant).
        assert report.stitched_baseline_records
        assert not report.baseline_records
