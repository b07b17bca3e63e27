"""The benchmark's own arithmetic: tail percentiles, span self time and
report checking.  Fast, and runs no repro process."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import layers
import run
from layers import Span
from sampling import Sample
from summary import percentile, summarize, tail_percentile
from workloads import (
    MAIN_CELLS,
    STITCHED_CELLS,
    WARMUP,
    CampaignWorkload,
    RecallWorkload,
)

HERE = Path(__file__).resolve().parent


# ----------------------------------------------------------------------
# tail percentile: the highest with at least ten samples beyond it


@pytest.mark.parametrize("n, expected", [
    (0, None), (1, None), (19, None),
    (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_summary_reports_no_tail_below_twenty_samples():
    summary = summarize(range(19))
    assert summary == {"median": 9, "tail_pct": None, "tail": None, "n": 19}


def test_summary_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 41)]  # 40 samples -> p75
    summary = summarize(values)
    assert summary["tail_pct"] == 75.0
    assert summary["tail"] == pytest.approx(30.25)
    assert sum(1 for v in values if v > summary["tail"]) == 10
    assert summary["median"] == pytest.approx(20.5)


def test_percentile_interpolates_between_ranks():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([1.0, 2.0], 25) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        percentile([], 50)


# ----------------------------------------------------------------------
# spans: self time, busy time and caller attribution


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "outer", 0.0, 10.0, None, None),
        # Overlapping children (e.g. two processes) count once; a child
        # sticking out of its parent counts only inside it.
        Span(2, "a", 1.0, 3.0, 1, None),
        Span(3, "b", 2.0, 5.0, 1, None),
        Span(4, "c", 8.0, 12.0, 1, None),
        # A grandchild is covered by its own parent, not charged again.
        Span(5, "d", 2.5, 4.5, 3, None),
    ]
    selfs = layers.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[3] == pytest.approx(3.0 - 2.0)
    assert selfs[4] == pytest.approx(4.0)


def test_nested_same_name_spans_count_once_in_busy_time():
    spans = [
        Span(1, "x", 0.0, 4.0, None, None),
        Span(2, "x", 1.0, 2.0, 1, None),
        Span(3, "y", 2.0, 3.0, 1, None),
    ]
    index = layers.SpanIndex(spans)
    assert index.busy["x"] == pytest.approx(4.0)
    assert index.calls["x"] == 2
    assert index.self["x"] == pytest.approx((4.0 - 2.0) + 1.0)


def test_shared_functions_are_charged_to_their_calling_layer():
    spans = [
        Span(1, "concolic.explore", 0.0, 4.0, None, None),
        Span(2, "materialize", 1.0, 2.0, 1, None),
        Span(3, "difftest.run_path", 5.0, 9.0, None, None),
        Span(4, "spec.execute", 6.0, 8.0, 3, None),
        Span(5, "materialize", 8.0, 8.5, 3, None),
    ]
    index = layers.SpanIndex(spans)
    assert index.busy["concolic.materialize"] == pytest.approx(1.0)
    assert index.busy["difftest.materialize"] == pytest.approx(0.5)
    assert index.busy["difftest.spec.execute"] == pytest.approx(2.0)
    assert index.self["difftest.run_path"] == pytest.approx(1.5)


def test_unattributed_time_is_what_no_span_covers():
    spans = [Span(1, "a", 1.0, 3.0, None, None),
             Span(2, "b", 2.0, 4.0, None, None)]
    assert layers.unattributed(spans, 0.0, 5.0) == pytest.approx(2.0)


def test_cell_durations_are_summarized_per_kind():
    spans = [
        Span(i, "runner.execute_cell", 0.0, 0.001 * (i + 1), None,
             f"{'native' if i % 2 else 'bytecode'}:x{i}/C")
        for i in range(60)
    ]
    native = layers.SpanIndex(spans).cell_ms("native")
    assert native["n"] == 30
    assert native["tail_pct"] == 50.0
    assert native["median"] == pytest.approx(31.0)


# ----------------------------------------------------------------------
# report checks: a tampered report counts as wrong


def _campaign_sample(stdout: str, *, served: int = 0) -> Sample:
    facts = {"driver_entered": 0.5, "campaigns": [{
        "cells": MAIN_CELLS, "served": served, "resumed": 0,
        "quarantined": 0, "stored": MAIN_CELLS - served, "profile": None,
    }]}
    return Sample(workdir=Path("."), traced=False, launched=0.0, ended=2.0,
                  exit_code=0, cpu_s=1.5, peak_rss_mb=40.0, stdout=stdout,
                  facts=facts)


def test_tampered_campaign_report_counts_as_wrong():
    workload = CampaignWorkload()
    stats = ("\nresult cache: 0 hits / 685 misses (0 stale) -- hit rate "
             "0.0%\n")
    good = _campaign_sample(workload.tables + stats)
    tampered = _campaign_sample(
        workload.tables.replace("409", "410", 1) + stats)
    for sample in (good, tampered):
        sample.problems = workload.check(sample)
    assert good.problems == []
    assert tampered.problems == ["Table 2/3 differ from the reference"]
    assert run.ratios([good, tampered])["wrong_report_ratio"] == 0.5
    record = {"workload": "cold_full", "problems": tampered.problems,
              "attempted": 2, "failed": 0,
              "e2e": {name: {"median": 1.0} for name, _u in run.END_TO_END}}
    assert run.result_line([record], trace=False)["correct"] is False


def test_setup_s_is_the_median_over_probes_and_samples():
    sample = _campaign_sample("")  # set up in 0.5 s, verdict in 2.0 s
    summary = run.end_to_end([sample], setups=[0.1, 0.2, 0.3, 0.4])
    assert summary["setup_s"]["n"] == 5
    assert summary["setup_s"]["median"] == pytest.approx(0.3)
    assert summary["verdict_s"] == {"median": 2.0, "tail_pct": None,
                                    "tail": None, "n": 1}


def test_cold_report_must_show_no_cell_served():
    workload = CampaignWorkload()
    warm_stats = ("\nresult cache: 685 hits / 0 misses (0 stale) -- hit "
                  "rate 100.0%\n")
    sample = _campaign_sample(workload.tables + warm_stats,
                              served=MAIN_CELLS)
    assert workload.check(sample) == [
        "result-cache line is not 'result cache: 0 hits / 685 misses "
        "(0 stale) -- hit rate 0.0%'",
        "wrong cell accounting: 685 cells, 685 served",
    ]


def test_recall_runs_every_reference_mutant():
    workload = RecallWorkload()
    assert workload.mutants == ("C1", "C2", "C3", "I1", "I2", "I3",
                                "R10", "R11")
    # Baselines on both corpora, C3 on the stitched one, the rest main.
    assert workload.campaigns == 10
    assert workload.cells == 8 * MAIN_CELLS + 2 * STITCHED_CELLS


def test_tampered_recall_report_counts_as_wrong(tmp_path):
    workload = RecallWorkload()
    facts = {"driver_entered": 0.5, "campaigns": [
        {"cells": cells, "served": 0, "resumed": 0, "quarantined": 0,
         "stored": 0, "profile": None}
        for cells in [MAIN_CELLS] * 8 + [STITCHED_CELLS] * 2
    ]}
    sample = Sample(workdir=tmp_path, traced=False, launched=0.0,
                    ended=2.0, exit_code=0, cpu_s=1.5, peak_rss_mb=60.0,
                    stdout="", facts=facts)
    report = json.loads(json.dumps(workload.reference))
    (tmp_path / "recall.json").write_text(json.dumps(report))
    assert workload.check(sample) == []
    report["mutants"]["I2"]["first_detection"]["16"]["index"] += 1
    (tmp_path / "recall.json").write_text(json.dumps(report))
    assert workload.check(sample) == [
        "recall report differs from the reference"
    ]


def test_warmups_are_small(tmp_path):
    recall = RecallWorkload()
    argv = recall.argv(tmp_path, WARMUP)
    assert argv[argv.index("--mutant") + 1] == "C3"
    assert recall.argv(tmp_path, 0)[argv.index("--mutant") + 1] == \
        ",".join(recall.mutants)
    cold = CampaignWorkload()
    assert "--max-bytecodes" in cold.argv(tmp_path, WARMUP)
    assert "--max-bytecodes" not in cold.argv(tmp_path, 0)


def test_closed_loop_spreads_probes_and_does_not_time_them(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run.time, "monotonic", lambda: clock[0])
    events = []

    def take(workload, launcher, *, traced, deadline, label, index):
        events.append(f"sample{index}")
        clock[0] += 1.0
        return Sample(workdir=Path("."), traced=False, launched=0.0,
                      ended=1.0, exit_code=0, cpu_s=1.0, peak_rss_mb=1.0,
                      stdout="", facts={"driver_entered": 0.1,
                                        "campaigns": []})

    class Probes:
        def take(self, count):
            events.append(f"probe x{count}")
            clock[0] += 5.0

    monkeypatch.setattr(run, "take", take)
    samples = run.closed_loop(None, None, seconds=2.5, traced=False,
                              deadline=1000.0, min_samples=2,
                              probes=Probes())
    # Probe time is not measuring time: three 1 s samples reach 2.5 s.
    assert len(samples) == 3
    assert events == ["probe x2", "sample0", "probe x2", "sample1",
                      "probe x2", "sample2"]


# ----------------------------------------------------------------------
# BENCHMARK.json names what the runner prints


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, unit in run.END_TO_END if name in run.GATED
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(name, unit, better)
            for name, unit, better, _moves in layers.METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
