"""Per-layer metrics of a traced sample: busy time, self time and counts.

A span is ``(sid, name, start, end, parent, cell)``; ids are unique
across the processes of one sample.  A layer's busy time is the summed
duration of its spans, leaving out any span nested inside another of
the same name; its self time is that minus the part of each span's
interval its child spans cover.  ``materialize`` and ``spec.execute``
are split by the nearest enclosing ``concolic.explore`` or
``difftest.run_path`` span, so the same function counts under the
layer that called it.

``METRICS`` is the per-layer metric table: name, unit, which way is
better, and the end-to-end metrics a change to the layer should move.
BENCHMARK.json lists the same names in the same order.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict, namedtuple
from pathlib import Path

from summary import summarize

Span = namedtuple("Span", "sid name start end parent cell")

#: Spans that decide which layer a shared function is charged to.
CALLER_LAYERS = {
    "concolic.explore": "concolic",
    "difftest.run_path": "difftest",
}

_TIME = "verdict_s, cells_per_s"
_CELLS = "cells_per_s, failed_cell_ratio"
#: (name, unit, better, end-to-end metrics it should move)
METRICS = (
    ("concolic.setup_s", "s", "lower", _TIME),
    ("concolic.explore_s", "s", "lower", _TIME),
    ("concolic.solve_s", "s", "lower", _TIME),
    ("concolic.solve_calls", "count", "lower", _TIME),
    ("concolic.execute_s", "s", "lower", _TIME),
    ("concolic.materialize_s", "s", "lower", _TIME),
    ("concolic.path_yield", "ratio", "higher", _TIME),
    ("concolic.memo_hit_rate", "ratio", "higher", _TIME),
    ("concolic.warm_hit_rate", "ratio", "higher", _TIME),
    ("concolic.witness_nodes", "count", "lower", _TIME),
    ("concolic.memo_size", "count", "lower", "peak_rss_mb"),
    ("concolic.intern_table_size", "count", "lower", "peak_rss_mb"),
    ("difftest.setup_s", "s", "lower", _TIME),
    ("difftest.run_path_s", "s", "lower", _TIME),
    ("difftest.compare_s", "s", "lower", _TIME),
    ("difftest.interpret_s", "s", "lower", _TIME),
    ("difftest.materialize_s", "s", "lower", _TIME),
    ("difftest.comparisons", "count", "higher", _TIME),
    ("difftest.curate_s", "s", "lower", _TIME),
    ("difftest.curated_ratio", "ratio", "higher", _TIME),
    ("jit.compile_s", "s", "lower", _TIME),
    ("jit.compiles", "count", "lower", _TIME),
    ("jit.simulate_s", "s", "lower", _TIME),
    ("jit.sim_steps", "count", "lower", _TIME),
    ("incremental.store_put_s", "s", "lower", "verdict_s"),
    ("incremental.puts", "count", "lower", "verdict_s"),
    ("incremental.fingerprint_s", "s", "lower", _TIME),
    ("incremental.store_load_s", "s", "lower", _TIME),
    ("incremental.store_get_s", "s", "lower", _TIME),
    ("incremental.hit_rate", "ratio", "higher", _TIME),
    ("cli.import_s", "s", "lower", "setup_s, verdict_s"),
    ("runner.cells_executed", "count", "lower", _CELLS),
    ("runner.cells_served", "count", "higher", _CELLS),
    ("runner.self_s", "s", "lower", "cells_per_s"),
    ("runner.cell_ms.native.p50", "ms", "lower", "cells_per_s"),
    ("runner.cell_ms.native.tail", "ms", "lower", "cells_per_s"),
    ("runner.cell_ms.native.tail_pct", "%", "higher", "cells_per_s"),
    ("runner.cell_ms.native.n", "count", "higher", "cells_per_s"),
    ("runner.cell_ms.bytecode.p50", "ms", "lower", "cells_per_s"),
    ("runner.cell_ms.bytecode.tail", "ms", "lower", "cells_per_s"),
    ("runner.cell_ms.bytecode.tail_pct", "%", "higher", "cells_per_s"),
    ("runner.cell_ms.bytecode.n", "count", "higher", "cells_per_s"),
    ("robustness.journal_append_s", "s", "lower", "verdict_s"),
    ("robustness.journal_appends", "count", "lower", "verdict_s"),
    ("robustness.journal_load_s", "s", "lower", "verdict_s"),
    ("parallel.rows_s", "s", "lower", "verdict_s"),
    ("parallel.worker_s", "s", "lower", "verdict_s"),
    ("parallel.workers_spawned", "count", "lower", "verdict_s"),
    ("parallel.utilization", "ratio", "higher", "verdict_s"),
    ("triage.run_s", "s", "lower", "verdict_s"),
    ("triage.self_s", "s", "lower", "verdict_s"),
    ("mutation.recall_s", "s", "lower", "verdict_s"),
    ("mutation.campaigns", "count", "lower", "verdict_s"),
    ("stitch.corpus_s", "s", "lower", "verdict_s"),
    ("trace.overhead_ratio", "ratio", "lower", "-"),
    ("trace.unattributed_s", "s", "lower", "-"),
)

UNITS = {name: unit for name, unit, _better, _moves in METRICS}


def covered(intervals, low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of *intervals*."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict:
    """sid -> span duration minus the part its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: (span.end - span.start)
        - covered(children[span.sid], span.start, span.end)
        for span in spans
    }


def load_spans(directory) -> tuple:
    """``(spans, counts)`` from the per-process files of one sample."""
    spans: list = []
    counts: Counter = Counter()
    for path in sorted(Path(directory).glob("spans-*.json")):
        data = json.loads(path.read_text())
        pid = data["pid"]
        for sid, name, start, end, parent, cell in data["spans"]:
            spans.append(Span((pid, sid), name, start, end,
                              None if parent is None else (pid, parent),
                              cell))
        counts.update(data["counts"])
    return spans, counts


class SpanIndex:
    """Busy time, self time and counts by span name (and caller)."""

    def __init__(self, spans) -> None:
        self.spans = list(spans)
        by_id = {span.sid: span for span in self.spans}
        selfs = self_times(self.spans)
        self.busy: Counter = Counter()
        self.self: Counter = Counter()
        self.calls: Counter = Counter()
        for span in self.spans:
            key = span.name
            caller, nested = None, False
            parent = by_id.get(span.parent)
            while parent is not None:
                if parent.name == span.name:
                    nested = True
                if caller is None:
                    caller = CALLER_LAYERS.get(parent.name)
                parent = by_id.get(parent.parent)
            if span.name in ("materialize", "spec.execute"):
                key = (caller or "other") + "." + span.name
            self.calls[key] += 1
            self.self[key] += selfs[span.sid]
            if not nested:
                self.busy[key] += span.end - span.start

    def cell_ms(self, kind: str) -> dict:
        """Duration summary (ms) of executed cells of one spec kind."""
        return summarize(
            (span.end - span.start) * 1000.0
            for span in self.spans
            if span.name == "runner.execute_cell"
            and (span.cell or "").startswith(kind + ":")
        )

    def table(self) -> list:
        """``(name, calls, busy_s, self_s)`` for every span name."""
        return [
            (name, self.calls[name], self.busy[name], self.self[name])
            for name in sorted(self.calls)
        ]


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(index: SpanIndex, counts, profile: dict, *,
                  jobs: int) -> dict:
    """Every per-layer metric but the ``trace.*`` pair, which compares
    traced with untraced samples."""
    busy, own, calls = index.busy, index.self, index.calls
    counters = profile.get("counters", {})
    gauges = profile.get("gauges", {})
    metrics = {
        "concolic.setup_s": busy["concolic.setup"],
        "concolic.explore_s": busy["concolic.explore"],
        "concolic.solve_s": busy["concolic.solve"],
        "concolic.solve_calls": calls["concolic.solve"],
        "concolic.execute_s": busy["concolic.spec.execute"],
        "concolic.materialize_s": busy["concolic.materialize"],
        "concolic.path_yield": _ratio(counters.get("explore.paths", 0),
                                      counters.get("explore.iterations", 0)),
        "concolic.memo_hit_rate": _ratio(
            counters.get("solver.memo_hits", 0),
            counters.get("solver.memo_hits", 0)
            + counters.get("solver.memo_misses", 0)),
        "concolic.warm_hit_rate": _ratio(
            counters.get("solver.warm_hits", 0),
            counters.get("solver.warm_hits", 0)
            + counters.get("solver.warm_fallbacks", 0)),
        "concolic.witness_nodes": counters.get("solver.witness_nodes", 0),
        "concolic.memo_size": gauges.get("solver.memo_size", 0),
        "concolic.intern_table_size": gauges.get("terms.intern_table_size", 0),
        "difftest.setup_s": busy["difftest.setup"],
        "difftest.run_path_s": busy["difftest.run_path"],
        "difftest.compare_s": own["difftest.run_path"],
        "difftest.interpret_s": busy["difftest.spec.execute"],
        "difftest.materialize_s": busy["difftest.materialize"],
        "difftest.comparisons": calls["difftest.run_path"],
        "difftest.curate_s": busy["difftest.curate"],
        "difftest.curated_ratio": _ratio(counts["curate.out"],
                                         counts["curate.in"]),
        "jit.compile_s": busy["jit.compile"],
        "jit.compiles": calls["jit.compile"],
        "jit.simulate_s": busy["jit.simulate"],
        "jit.sim_steps": counts["simulate.steps"],
        "incremental.store_put_s": busy["incremental.put"],
        "incremental.puts": calls["incremental.put"],
        "incremental.fingerprint_s": busy["incremental.fingerprint"],
        "incremental.store_load_s": busy["incremental.load"],
        "incremental.store_get_s": busy["incremental.get"],
        "incremental.hit_rate": _ratio(counts["store.hits"],
                                       calls["incremental.get"]),
        "cli.import_s": busy["cli.import"],
        "runner.cells_executed": calls["runner.execute_cell"],
        "runner.cells_served": counts["store.hits"],
        "runner.self_s": own["runner.rows"] + own["runner.execute_cell"],
        "robustness.journal_append_s": busy["robustness.journal_append"],
        "robustness.journal_appends": calls["robustness.journal_append"],
        "robustness.journal_load_s": busy["robustness.journal_load"],
        "parallel.rows_s": busy["parallel.rows"],
        "parallel.worker_s": busy["parallel.worker"],
        "parallel.workers_spawned": calls["parallel.worker"],
        "parallel.utilization": _ratio(busy["parallel.worker"],
                                       jobs * busy["parallel.rows"]),
        "triage.run_s": busy["triage.run"],
        "triage.self_s": own["triage.run"],
        "mutation.recall_s": busy["mutation.recall"],
        "mutation.campaigns": calls["runner.rows"],
        "stitch.corpus_s": busy["stitch.corpus"],
    }
    for kind in ("native", "bytecode"):
        summary = index.cell_ms(kind)
        metrics[f"runner.cell_ms.{kind}.p50"] = summary["median"] or 0.0
        metrics[f"runner.cell_ms.{kind}.tail"] = summary["tail"] or 0.0
        metrics[f"runner.cell_ms.{kind}.tail_pct"] = summary["tail_pct"] or 0.0
        metrics[f"runner.cell_ms.{kind}.n"] = summary["n"]
    return metrics


def merge_profiles(profiles) -> dict:
    """Fold campaign profile snapshots: counters sum, gauges take the max."""
    counters: Counter = Counter()
    gauges: dict = {}
    for profile in profiles:
        if not profile:
            continue
        counters.update(profile.get("counters", {}))
        for name, value in profile.get("gauges", {}).items():
            gauges[name] = max(value, gauges.get(name, value))
    return {"counters": dict(counters), "gauges": gauges}


def unattributed(spans, launched: float, ended: float) -> float:
    """Seconds of ``[launched, ended]`` that no span covers."""
    return (ended - launched) - covered(
        [(span.start, span.end) for span in spans], launched, ended
    )
