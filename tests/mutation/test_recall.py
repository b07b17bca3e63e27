"""The detection-recall sweep: detection, convergence, determinism.

`run_recall` is the tentpole's measurement half: baseline vs mutated
campaign fingerprints per budget, plan-order first-detection indices,
and triage convergence at the top budget, counted from each campaign's
own records with the buckets `campaign --triage` makes.  The sweep's
stdout surface (and its timing-free JSON) must be byte-identical
across ``-j1`` / ``-jN`` / ``--resume`` — asserted here end to end.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.difftest.runner import CampaignConfig, run_campaign
from repro.mutation.recall import (
    campaign_fingerprint,
    first_divergence,
    format_recall,
    run_recall,
)
from repro.triage import TriageConfig
from tests.mutation.test_fidelity import json_lines


def _line(instruction="bytecodePrimAdd", compiler="simple", backend="x86",
          status="SAME"):
    """A verdict tuple as :func:`campaign_fingerprint` builds it."""
    return (instruction, compiler, backend, status, None, "", None, None,
            "unknown", ())


class TestFirstDivergence:
    def test_identical_reports(self):
        lines = (_line(), _line(compiler="s2r"))
        assert first_divergence(lines, lines) is None

    def test_first_deviating_index_and_label(self):
        baseline = (_line(), _line(compiler="s2r"))
        mutated = (_line(), _line(compiler="s2r", status="DIFFERENT"))
        assert first_divergence(baseline, mutated) == (
            1, "bytecodePrimAdd[s2r/x86]#1",
        )

    def test_length_mismatch_is_a_divergence(self):
        baseline = (_line(),)
        mutated = (_line(), _line(compiler="s2r"))
        index, label = first_divergence(baseline, mutated)
        assert index == 1
        assert label.startswith("bytecodePrimAdd[s2r")


SWEEP_CONFIG = CampaignConfig(
    only=("primitiveFloatTruncated", "bytecodePrimLessThan"),
)


def _json_divergence(baseline: list, mutated: list):
    """The reference: ``first_divergence`` over sorted-key JSON lines,
    labelled from the decoded record."""
    for index, (base, mut) in enumerate(zip(baseline, mutated)):
        if base != mut:
            record = json.loads(mut)
            return index, (f"{record['instruction']}[{record['compiler']}/"
                           f"{record['backend']}]#{index}")
    assert len(baseline) == len(mutated)
    return None


class TestVerdictTuples:
    """Detection on verdict tuples finds what sorted-key JSON found."""

    def test_same_divergence_as_json_lines(self):
        scoped = replace(SWEEP_CONFIG, max_paths_per_instruction=4)
        baseline = run_campaign(scoped)
        mutated = run_campaign(replace(scoped, mutants=("C1",)))
        tuples = (campaign_fingerprint(baseline),
                  campaign_fingerprint(mutated))
        lines = (json_lines(baseline), json_lines(mutated))
        assert len(tuples[0]) == len(lines[0]) > 0
        assert len(tuples[1]) == len(lines[1])
        # Each verdict equals its baseline verdict exactly when its
        # JSON line does, so the first deviation is the same one.
        assert [a == b for a, b in zip(*tuples)] == [
            a == b for a, b in zip(*lines)]
        divergence = first_divergence(*tuples)
        assert divergence is not None
        assert divergence == _json_divergence(*lines)


def _counts(report) -> dict:
    return {
        "baseline": report.baseline_cause_buckets,
        "mutants": {
            o.mutant_id: (o.new_cause_buckets, o.total_cause_buckets,
                          o.new_cause_explanations)
            for o in report.outcomes
        },
    }


@pytest.fixture(scope="module")
def sweep():
    """One real sweep: two catchable mutants, one budget."""
    return run_recall(SWEEP_CONFIG, ("R10", "C1"), (4,))


class TestSweep:
    def test_both_mutants_caught(self, sweep):
        assert [o.status for o in sweep.outcomes] == ["caught", "caught"]
        assert sweep.recall == 1.0

    def test_first_detection_recorded(self, sweep):
        for outcome in sweep.outcomes:
            index, label = outcome.first_detection[4]
            assert index >= 0
            assert "[" in label and "#" in label

    def test_convergence_measured_at_top_budget(self, sweep):
        assert sweep.convergence_budget == 4
        assert sweep.baseline_cause_buckets is not None
        for outcome in sweep.outcomes:
            assert outcome.new_cause_buckets >= 1
            assert 1 <= outcome.new_cause_explanations
            assert outcome.new_cause_explanations <= outcome.new_cause_buckets

    def test_seeded_defect_collapses_to_few_explanations(self, sweep):
        # The convergence target: one seeded defect, ideally one
        # explanation (the CI gate allows two).
        for outcome in sweep.outcomes:
            assert outcome.new_cause_explanations <= 2

    def test_to_dict_shape(self, sweep):
        payload = sweep.to_dict()
        assert payload["recall"] == {"caught": 2, "expected": 2, "rate": 1.0}
        assert payload["budgets"] == [4]
        r10 = payload["mutants"]["R10"]
        assert r10["status"] == "caught"
        assert r10["detected"] == {"4": True}
        assert "seconds" not in r10  # timing only when asked for
        assert "seconds" in sweep.to_dict(include_timing=True)["mutants"]["R10"]

    def test_format_recall_renders(self, sweep):
        text = format_recall(sweep)
        assert "Mutation recall (repro mutate)" in text
        assert "R10" in text and "C1" in text
        assert "Recall over the expected-caught subset: 2/2 (100.0%)" in text


class TestCauseCount:
    """The convergence count reads the campaigns' records: it runs no
    triage, and it counts what `campaign --triage` would bucket."""

    #: Triage without re-execution: confirmation, shrinking and
    #: reproducers off, so only the buckets are computed.
    TRIAGE = TriageConfig(confirm_runs=0, shrink=False, repro_dir=None,
                          self_verify=False)

    def test_sweep_runs_no_triage(self, sweep, monkeypatch):
        from repro.triage import lab

        def refuse(*args, **kwargs):
            raise AssertionError("the recall sweep ran a triage lab")

        monkeypatch.setattr(lab.TriageLab, "__init__", refuse)
        report = run_recall(SWEEP_CONFIG, ("R10", "C1"), (4,))
        assert _counts(report) == _counts(sweep)

    def _triaged(self, config) -> int:
        result = run_campaign(config, triage=self.TRIAGE)
        return len(result.triage.causes) + len(result.triage.crash_causes)

    def test_counts_match_campaign_triage(self, sweep):
        scoped = replace(SWEEP_CONFIG, max_paths_per_instruction=4)
        assert sweep.baseline_cause_buckets == self._triaged(scoped)
        assert sweep.outcome("C1").total_cause_buckets == self._triaged(
            replace(scoped, mutants=("C1",)))

    def test_crash_buckets_are_counted(self):
        from repro.robustness.faults import FaultPlan, inject_faults

        plan = FaultPlan(stage="compile", instruction="bytecodePrimLessThan",
                         compiler="SimpleStackBasedCogit")
        with inject_faults(plan):
            report = run_recall(SWEEP_CONFIG, ("R10",), (4,))
            scoped = replace(SWEEP_CONFIG, max_paths_per_instruction=4)
            result = run_campaign(scoped, triage=self.TRIAGE)
            mutated = self._triaged(replace(scoped, mutants=("R10",)))
        assert result.quarantine and result.triage.crash_causes
        assert report.baseline_cause_buckets == (
            len(result.triage.causes) + len(result.triage.crash_causes))
        assert report.outcome("R10").total_cause_buckets == mutated


class TestDeterminism:
    def test_byte_identical_across_jobs_and_resume(self, tmp_path):
        config = CampaignConfig(only=("primitiveFloatTruncated",))
        kwargs = dict(budgets=(4,))
        sequential = run_recall(
            config, ("R10",), jobs=1,
            journal_dir=tmp_path / "seq", **kwargs,
        )
        parallel = run_recall(
            config, ("R10",), jobs=2,
            journal_dir=tmp_path / "par", **kwargs,
        )
        resumed = run_recall(
            config, ("R10",), jobs=1,
            journal_dir=tmp_path / "seq", resume=True, **kwargs,
        )
        reference = sequential.to_dict(include_timing=False)
        assert parallel.to_dict(include_timing=False) == reference
        assert resumed.to_dict(include_timing=False) == reference
        assert (format_recall(sequential) == format_recall(parallel)
                == format_recall(resumed))


class TestBaselineUndisturbed:
    def test_unmutated_fingerprint_stable_across_a_sweep(self, sweep):
        # The acceptance criterion from the other side: after a whole
        # recall sweep (many apply/revert cycles), a fresh unmutated
        # campaign still fingerprints identically to a fresh one.
        config = CampaignConfig(
            only=("bytecodePrimLessThan",), max_paths_per_instruction=4,
        )
        first = campaign_fingerprint(run_campaign(config))
        second = campaign_fingerprint(run_campaign(config))
        assert first == second


class TestCacheEconomics:
    """`repro mutate` with a result store: byte-identical sweeps, and
    the mutant phase re-runs only the cells its patch invalidates."""

    CONFIG = CampaignConfig(only=("pushTrue", "bytecodePrimLessThan"))

    def test_cached_sweep_is_byte_identical(self, tmp_path):
        kwargs = dict(budgets=(4,))
        plain = run_recall(self.CONFIG, ("C1",), **kwargs)
        cache_dir = str(tmp_path / "cache")
        cold = run_recall(self.CONFIG, ("C1",), cache_dir=cache_dir,
                          **kwargs)
        warm = run_recall(self.CONFIG, ("C1",), cache_dir=cache_dir,
                          **kwargs)
        reference = plain.to_dict(include_timing=False)
        assert cold.to_dict(include_timing=False) == reference
        assert warm.to_dict(include_timing=False) == reference
        assert (format_recall(plain) == format_recall(cold)
                == format_recall(warm))

    def test_mutant_phase_reuses_baseline_cells(self, tmp_path):
        """C1 patches gen_bytecodePrimLessThan only, so after the
        baseline phase the mutated campaign stores exactly the three
        bytecodePrimLessThan cells — the pushTrue cells are served from
        the baseline's records."""
        from repro.incremental import ResultStore

        cache_dir = str(tmp_path / "cache")
        run_recall(self.CONFIG, ("C1",), budgets=(4,), cache_dir=cache_dir)
        store = ResultStore(cache_dir)
        store.load()
        # 6 baseline cells (2 bytecodes x 3 compilers) + 3 invalidated.
        assert store.stats.entries == 9
