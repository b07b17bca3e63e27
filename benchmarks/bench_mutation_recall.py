"""Detection recall of the campaign over the seeded mutant corpus.

The mutation engine (docs/MUTATION.md) turns "does the tester work?"
into a measurable number: every registered mutant is a defect we know
exists, so the campaign's job is to catch all of them.  This benchmark
runs the full `repro mutate` sweep over the known-catchable
instruction scope, renders the recall table, and writes
``BENCH_mutation_recall.json`` (with wall-clock timing) next to the
other artifacts.

Gates (the same ones the ``mutation-smoke`` CI job enforces):

* recall over the ``expected_caught`` subset is 100%;
* triage collapses every caught mutant to at most two new defect
  explanations (one seeded defect, ideally one explanation).
"""

from __future__ import annotations

import os

from benchmarks.conftest import write_artifact, write_json_artifact
from repro.difftest.runner import CampaignConfig
from repro.mutation.recall import format_recall, run_recall

#: Instructions that exercise every operator family: the R10/R11
#: describer-gap natives (R11's fault lives in
#: primitiveFloatFractionPart's FLOAD), the inline comparison (C1),
#: the arithmetic fast path (I1/I2/C2) and the overflowing primitive
#: (I3).  C3 ignores this scope: its sweep runs through the stitched
#: whole-method corpus (docs/STITCHING.md), derived from the
#: ``stitch_*`` knobs of the same config.
SCOPE = (
    "primitiveFloatTruncated",
    "primitiveFloatFractionPart",
    "primitiveMod",
    "primitiveConstantFill",
    "bytecodePrimLessThan",
    "bytecodePrimAdd",
    "primitiveAdd",
)


def recall_budgets() -> tuple:
    if os.environ.get("REPRO_BENCH_SCALE") == "small":
        return (4, 16)
    return (4, 16, 64)


def test_mutation_recall_benchmark():
    report = run_recall(
        CampaignConfig(only=SCOPE),
        None,  # the whole registry
        recall_budgets(),
    )

    write_artifact("mutation_recall.txt", format_recall(report))
    write_json_artifact(
        "mutation_recall", report.to_dict(include_timing=True)
    )

    # Gate 1: every expected-catchable mutant is caught at every budget.
    missed = [
        o.mutant_id for o in report.expected_subset if o.status != "caught"
    ]
    assert not missed, f"recall gate: mutants not caught: {missed}"
    assert report.recall == 1.0

    # Gate 2: triage convergence — each caught mutant's new causes
    # collapse to its registered explanation bound (default 2; C2 is
    # unbounded: a register clobber has one phenotype per generator).
    from repro.mutation import get

    for outcome in report.outcomes:
        # Counted for every mutant at the top budget.
        assert outcome.new_cause_explanations is not None, outcome.mutant_id
        if outcome.status != "caught":
            continue
        # Zero new buckets is legitimate: an interpreter mutant can
        # perturb records *inside* an existing cause bucket (detection
        # is the fingerprint delta, not the bucket delta).
        bound = get(outcome.mutant_id).convergence_bound
        if bound is not None:
            assert outcome.new_cause_explanations <= bound, (
                f"{outcome.mutant_id}: {outcome.new_cause_explanations} "
                f"explanations for one seeded defect (bound {bound})"
            )
