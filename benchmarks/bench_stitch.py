"""The stitched whole-method corpus: size, cost and C3 recall.

The stitching layer (docs/STITCHING.md) chains constraint-compatible
path templates into whole-method ``stitch:`` specs — the corpus that
exists to catch cross-fragment compiler defects.  This benchmark
measures the corpus itself (templates derived, solver compatibility
queries, methods emitted, derivation wall-clock) and then proves the
corpus earns its keep: the ``C3`` dropped-spill mutant, invisible to
every single-instruction test, must be caught at every path budget.
The corpus and recall listing must equal their golden; the derivation
time goes to ``BENCH_stitch_recall.json`` next to the other artifacts.

Gates (the same ones the ``stitch-smoke`` CI job enforces):

* the corpus is non-empty (a silently empty corpus would make the
  stitched campaign family pass vacuously);
* ``C3`` recall over the stitched corpus is 100%, within its
  registered triage-convergence bound.
"""

from __future__ import annotations

import time
from dataclasses import asdict

from benchmarks.conftest import check_golden, write_json_artifact
from repro.difftest.runner import CampaignConfig
from repro.mutation.recall import format_recall, run_recall
from repro.stitch import (
    StitchBudget,
    build_stitched_corpus,
    clear_corpus_memo,
    format_stitch_report,
)

BUDGETS = (4, 16, 64)


def test_stitch_benchmark():
    config = CampaignConfig()  # the default --stitch-* budgets
    budget = StitchBudget.from_config(config)

    # Corpus derivation cost, measured cold: the campaign memoizes per
    # budget, so clear first or we time a dictionary lookup.
    clear_corpus_memo()
    started = time.monotonic()
    specs, corpus_report = build_stitched_corpus(budget)
    derivation_seconds = time.monotonic() - started

    recall_report = run_recall(config, ("C3",), BUDGETS)

    check_golden("stitch_recall.txt", "\n".join([
        format_stitch_report(corpus_report),
        "",
        format_recall(recall_report),
    ]))
    write_json_artifact("stitch_recall", {
        "corpus": asdict(corpus_report),
        "derivation_seconds": derivation_seconds,
        "recall": recall_report.to_dict(include_timing=True),
    })

    # Gate 1: the corpus is non-empty and every emitted spec is a
    # stitched method (vacuity guard for the stitched campaign family).
    assert specs, "stitched corpus is empty"
    assert corpus_report.emitted == tuple(spec.name for spec in specs)
    assert all(spec.name.startswith("stitch:") for spec in specs)

    # Gate 2: C3 is caught at every budget, through the stitched
    # corpus, within its registered convergence bound.
    from repro.mutation import get

    assert recall_report.recall == 1.0
    (outcome,) = recall_report.outcomes
    assert outcome.mutant_id == "C3"
    assert outcome.corpus == "stitched"
    assert outcome.status == "caught"
    bound = get("C3").convergence_bound
    assert outcome.new_cause_explanations is not None
    if bound is not None:
        assert outcome.new_cause_explanations <= bound, (
            f"C3: {outcome.new_cause_explanations} explanations for one "
            f"seeded defect (bound {bound})"
        )
