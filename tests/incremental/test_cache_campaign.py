"""Warm-cache campaigns are byte-identical to cold runs.

The result cache's whole contract: its only observable effect is
wall-clock.  Tables, per-cell verdicts, quarantine and triage output
must match a cold ``-j1`` run whatever mix of cache state, worker
count and resume the run uses — and a mutated run must re-execute
exactly its invalidated cells while reusing the baseline's.
"""

from __future__ import annotations

import json
import tracemalloc
from dataclasses import replace

import pytest

from repro.cli import main as cli_main
from repro.difftest.report import format_table2, format_table3
from repro.difftest.runner import (
    CampaignConfig,
    run_campaign,
    sequence_campaign_rows,
    stitched_campaign_rows,
)
from repro.incremental import ResultStore
from repro.jit.machine.x86 import X86Backend
from tests.robustness.test_campaign_resilience import cell_summaries

CONFIG = CampaignConfig(max_bytecodes=2, max_natives=1,
                        backends=(X86Backend,))
#: Cells in the CONFIG plan: (1 native x 1 compiler) + (2 bytecodes x 3).
CELLS = 7


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


class TestWarmEqualsCold:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_run_counts_every_stored_cell(self, cache_dir, jobs):
        """At -j 2 the workers store the cells through store handles of
        their own; their counts still reach the parent's stats."""
        cold = run_campaign(CONFIG, jobs=jobs, cache_dir=cache_dir)
        assert cold.cache.misses == CELLS
        assert cold.cache.stored == CELLS
        assert run_campaign(CONFIG, cache_dir=cache_dir).cache.hits == CELLS

    def test_sequential_warm_is_byte_identical(self, cache_dir):
        cold = run_campaign(CONFIG, cache_dir=cache_dir)
        assert cold.cache.misses == CELLS
        assert cold.cache.stored == CELLS
        warm = run_campaign(CONFIG, cache_dir=cache_dir)
        assert warm.cache.hits == CELLS
        assert warm.cache.misses == 0
        assert warm.cached_cells == CELLS
        assert format_table2(warm) == format_table2(cold)
        assert format_table3(warm) == format_table3(cold)
        assert cell_summaries(warm) == cell_summaries(cold)

    def test_parallel_warm_is_byte_identical_to_cold_j1(self, cache_dir):
        cold = run_campaign(CONFIG)  # no cache at all
        run_campaign(CONFIG, cache_dir=cache_dir)  # populate
        for jobs in (2, 4):
            warm = run_campaign(CONFIG, jobs=jobs, cache_dir=cache_dir)
            assert warm.cached_cells == CELLS
            assert format_table2(warm) == format_table2(cold)
            assert cell_summaries(warm) == cell_summaries(cold)

    def test_parallel_cold_populates_for_sequential_warm(self, cache_dir):
        """Workers append to the store themselves; a later sequential
        run hits on every cell."""
        cold = run_campaign(CONFIG, jobs=3, cache_dir=cache_dir)
        warm = run_campaign(CONFIG, cache_dir=cache_dir)
        assert warm.cache.hits == CELLS
        assert format_table2(warm) == format_table2(cold)

    def test_cache_off_by_default_in_the_library(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        result = run_campaign(CONFIG)
        assert result.cache is None
        assert not (tmp_path / "default").exists()

    def test_sequence_and_stitched_campaigns_cache_too(self, cache_dir):
        small = replace(CONFIG, stitch_fragments=6, stitch_max_methods=4)
        for plan in (sequence_campaign_rows, stitched_campaign_rows):
            rows = plan(small)
            cold = run_campaign(small, rows, cache_dir=cache_dir)
            assert cold.cache.misses > 0
            warm = run_campaign(small, rows, cache_dir=cache_dir)
            assert warm.cache.misses == 0
            assert warm.cache.hits == cold.cache.misses
            assert format_table2(warm) == format_table2(cold)
            assert cell_summaries(warm) == cell_summaries(cold)


class TestReadOnce:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_later_campaigns_decode_only_new_lines(self, cache_dir, jobs):
        """The process keeps its store between campaigns: each decodes
        only the lines the campaigns before it appended."""
        config = replace(CONFIG, profile=True)

        def lines_read(result) -> int:
            return result.perf["counters"].get("cache.lines_read", 0)

        cold = run_campaign(config, jobs=jobs, cache_dir=cache_dir)
        assert (lines_read(cold), cold.cache.stored) == (0, CELLS)
        warm = run_campaign(config, jobs=jobs, cache_dir=cache_dir)
        assert (lines_read(warm), warm.cache.hits) == (CELLS, CELLS)
        again = run_campaign(config, jobs=jobs, cache_dir=cache_dir)
        assert (lines_read(again), again.cache.hits) == (0, CELLS)
        assert format_table2(again) == format_table2(cold)


class TestHeldEncoded:
    """A loaded store holds its records encoded and decodes one per
    hit: ``repro mutate`` keeps the store between campaigns and forks
    every campaign's workers from the process holding it."""

    def test_loaded_store_retains_about_its_file_size(self, cache_dir):
        run_campaign(CONFIG, cache_dir=cache_dir)
        store = ResultStore(cache_dir)
        size = store.path.stat().st_size
        tracemalloc.start()
        try:
            store.load()
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert store.stats.entries == CELLS
        # Measured on this plan: decoded dicts retain 4.1 times the
        # file's size, marshal-encoded records 1.05 times.
        assert retained < 1.5 * size

    def test_gc_writes_each_kept_line_byte_for_byte(self, cache_dir):
        run_campaign(CONFIG, cache_dir=cache_dir)
        writer = ResultStore(cache_dir)
        first = json.loads(writer.path.read_bytes().splitlines()[0])
        writer.put(first["fingerprint"],
                   dict(first["cell"], explore_seconds=1.5))
        kept = {}
        for line in writer.path.read_bytes().splitlines(keepends=True):
            kept[json.loads(line)["fingerprint"]] = line
        assert cli_main(["cache", "--cache-dir", cache_dir, "--gc"]) == 0
        assert writer.path.read_bytes() == b"".join(
            kept[fingerprint] for fingerprint in sorted(kept))


class TestInvalidationInFlight:
    def test_budget_change_is_stale_not_hit(self, cache_dir):
        run_campaign(CONFIG, cache_dir=cache_dir)
        bigger = replace(CONFIG, max_paths_per_instruction=8)
        rerun = run_campaign(bigger, cache_dir=cache_dir)
        assert rerun.cache.hits == 0
        assert rerun.cache.stale == CELLS
        # Both variants now coexist; each gets its own warm hits.
        assert run_campaign(CONFIG, cache_dir=cache_dir).cache.hits == CELLS
        assert run_campaign(bigger, cache_dir=cache_dir).cache.hits == CELLS

    def test_mutant_reuses_baseline_except_invalidated_cells(self, cache_dir):
        """The `repro mutate` economics: after a baseline pass, a mutant
        campaign re-runs only the cells its patch touches — and its
        records never leak back into the baseline.

        C1 patches one back-end generator (gen_bytecodePrimLessThan),
        so only the bytecodePrimLessThan cells move; pushTrue stays
        warm.  (Interpreter-side mutants like I2 reach *every* cell
        through the symbolic memory layer — no partial reuse there.)
        """
        config = CampaignConfig(backends=(X86Backend,), max_natives=0,
                                only=("pushTrue", "bytecodePrimLessThan"))
        cells = 6  # 2 bytecodes x 3 compilers
        run_campaign(config, cache_dir=cache_dir)
        mutated_config = replace(config, mutants=("C1",))
        mutated = run_campaign(mutated_config, cache_dir=cache_dir)
        assert mutated.cache.hits == 3      # pushTrue x 3 compilers
        assert mutated.cache.misses == mutated.cache.stale == 3
        # The mutated run matches a cache-less mutated run exactly.
        fresh = run_campaign(mutated_config)
        assert format_table2(mutated) == format_table2(fresh)
        assert cell_summaries(mutated) == cell_summaries(fresh)
        # Baseline still fully warm: no leak in either direction.
        baseline = run_campaign(config, cache_dir=cache_dir)
        assert baseline.cache.hits == cells
        assert cell_summaries(baseline) == cell_summaries(
            run_campaign(config))

    def test_quarantined_cells_are_not_stored(self, cache_dir):
        from repro.robustness.faults import FaultPlan, inject_faults

        plan = FaultPlan(stage="compile", compiler="SimpleStackBasedCogit")
        with inject_faults(plan):
            faulted = run_campaign(CONFIG, cache_dir=cache_dir)
        assert len(faulted.quarantine) > 0
        assert faulted.cache.stored == CELLS - len(faulted.quarantine)
        # The healthy cells hit; the previously-crashing cells re-run
        # (now fault-free) and produce a clean report.
        clean = run_campaign(CONFIG, cache_dir=cache_dir)
        assert clean.cache.hits == CELLS - len(faulted.quarantine)
        assert len(clean.quarantine) == 0
        assert cell_summaries(clean) == cell_summaries(run_campaign(CONFIG))


class TestResumeInterplay:
    def test_journal_resume_wins_over_cache(self, cache_dir, tmp_path):
        """A journaled cell is replayed from the journal; only cells in
        neither the journal nor the store run live."""
        journal = tmp_path / "run.jsonl"
        cold = run_campaign(CONFIG, cache_dir=cache_dir,
                            journal_path=str(journal))
        resumed = run_campaign(CONFIG, cache_dir=cache_dir,
                               journal_path=str(journal), resume=True)
        assert resumed.resumed_cells == CELLS
        assert resumed.cached_cells == 0
        assert format_table2(resumed) == format_table2(cold)

    def test_warm_cache_with_fresh_journal(self, cache_dir, tmp_path):
        run_campaign(CONFIG, cache_dir=cache_dir)
        journal = tmp_path / "fresh.jsonl"
        warm = run_campaign(CONFIG, cache_dir=cache_dir,
                            journal_path=str(journal))
        assert warm.cached_cells == CELLS
        # Cache hits are not journaled: the journal records live work.
        from repro.robustness.checkpoint import CampaignJournal

        assert CampaignJournal(journal).load() == {}


class TestTriageInterplay:
    def test_triage_runs_identically_on_cached_cells(self, cache_dir):
        from repro.triage import TriageConfig

        # `only` filters after `max_*` slicing, so lift the CONFIG caps
        # or primitiveMod never makes the plan.
        config = replace(CONFIG, max_bytecodes=0, max_natives=None,
                         only=("primitiveMod",), mutants=("R10", "R11"))
        triage = TriageConfig(confirm_runs=1, repro_dir=None, shrink=False,
                              self_verify=False)
        cold = run_campaign(config, cache_dir=cache_dir, triage=triage)
        warm = run_campaign(config, cache_dir=cache_dir, triage=triage)
        assert warm.cache.hits > 0
        assert len(cold.triage.causes) + len(cold.triage.crash_causes) > 0
        assert {c.signature.digest for c in cold.triage.causes} == \
            {c.signature.digest for c in warm.triage.causes}
