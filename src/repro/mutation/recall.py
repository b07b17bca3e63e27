"""The detection-recall benchmark: run the campaign under each mutant.

The campaign's job is to *notice* defects.  This module measures that
directly: for every registered mutant and every path budget it runs
the regular campaign twice — once unmutated (the baseline), once with
the mutant active — and compares the two reports verdict by verdict,
in canonical plan order.  Because the unmutated campaign already
reports legitimate interpreter/JIT differences (the paper's Tables 2
and 3), "detected" is defined as a *delta against the baseline*, never
as "any difference was reported".

Three quantities per mutant (docs/MUTATION.md):

* **recall** — ``caught`` when the mutated report differs from the
  baseline at every budget, ``missed`` when it never does, ``flaky``
  when detection depends on the budget;
* **time-to-first-detection** — the plan-order index of the first
  comparison record that deviates from the baseline.  Indices, not
  wall-clock: the whole report stays byte-identical across ``-j1`` /
  ``-jN`` / ``--resume`` (wall-clock seconds are collected too, but
  only surface in the benchmark JSON when explicitly requested);
* **triage convergence** — cause buckets the mutant's campaign holds
  *beyond* the baseline's, at the largest budget (ideally 1: one
  seeded defect, one explanation), bucketed as ``campaign --triage``
  does, from the campaign's own records: nothing is re-executed.

Every run is a plain :func:`repro.difftest.runner.run_campaign` call
with ``config.mutants`` set, so parallel sharding, journaling and
``--resume`` all work unchanged; with a ``journal_dir`` each
(phase, budget) pair checkpoints to its own JSONL file.

Mutants declare which corpus can catch them (``Mutant.corpus``): most
run through the main single-instruction campaign, but defects that
only fire inside whole methods — C3's dropped spill needs a
jump-boundary flush with deferred entries pending — are swept through
the stitched-method corpus instead
(:func:`repro.difftest.runner.stitched_campaign_rows`,
docs/STITCHING.md).  The sweep runs one baseline per corpus per
budget and compares every mutant against its own corpus's baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import perf
from repro.difftest.runner import (
    CampaignConfig,
    campaign_rows,
    run_campaign,
    stitched_campaign_rows,
)
from repro.mutation import registry
from repro.triage.candidates import (
    bucket_candidates,
    collect_crashes,
    collect_divergences,
)

#: Default path budgets (``max_paths_per_instruction``) the recall
#: sweep runs at; mirrors the paper's budget axis in Fig. 5.
DEFAULT_BUDGETS = (4, 16, 64)


# ----------------------------------------------------------------------
# detection: verdict tuples in plan order


def campaign_fingerprint(result) -> tuple:
    """The campaign's detection surface: one verdict tuple per comparison.

    One tuple per comparison, in plan order: the cell identity
    (instruction, compiler), then every field the comparison's record
    carries (:meth:`ComparisonResult.to_record` — back-end, status,
    difference kind, detail, interpreter condition, outcome kind,
    operand shape, path signature).  Every verdict of a campaign is
    read back from its record, with the enum members
    :meth:`ComparisonResult.from_record` gives, so two tuples are equal
    exactly when the two records serialize to the same JSON.
    Quarantined cells are present too: they surface as ``CRASHED``
    comparisons in the same stream.  No wall-clock fields, so
    fingerprints are identical across engines and resumes.
    """
    return tuple(
        (cell.instruction, cell.compiler, comparison.backend,
         comparison.status, comparison.difference_kind, comparison.detail,
         comparison.interpreter_condition, comparison.outcome_kind,
         comparison.operand_shape, comparison.path_signature)
        for report in result
        for cell in report.results
        for comparison in cell.comparisons
    )


def _record_label(verdict: tuple, index: int) -> str:
    instruction, compiler, backend = verdict[:3]
    return f"{instruction}[{compiler}/{backend}]#{index}"


def first_divergence(baseline: tuple, mutated: tuple):
    """``(index, label)`` of the first deviating record, else ``None``.

    The index counts comparison records in canonical plan order — the
    deterministic stand-in for "how long until the campaign noticed".
    """
    for index, (base, mut) in enumerate(zip(baseline, mutated)):
        if base != mut:
            return index, _record_label(mut, index)
    if len(baseline) != len(mutated):
        index = min(len(baseline), len(mutated))
        longer = mutated if len(mutated) > len(baseline) else baseline
        return index, _record_label(longer[index], index)
    return None


# ----------------------------------------------------------------------
# the recall report


@dataclass
class MutantOutcome:
    """Everything the recall sweep learned about one mutant."""

    mutant_id: str
    family: str
    description: str
    expected_caught: bool
    #: Which corpus swept this mutant ("main" | "stitched").
    corpus: str = "main"
    #: budget -> the mutated report deviated from the baseline.
    detected: dict = field(default_factory=dict)
    #: budget -> (record index, cell label) of the first deviation.
    first_detection: dict = field(default_factory=dict)
    #: budget -> wall-clock seconds of the mutated campaign (collected
    #: always, reported only in timing-enabled JSON).
    seconds: dict = field(default_factory=dict)
    #: Cause buckets beyond the baseline's, at the top budget.
    new_cause_buckets: int | None = None
    total_cause_buckets: int | None = None
    #: The new buckets collapsed by defect explanation — distinct
    #: (category, cause) pairs.  One seeded defect observed through
    #: three front-ends is three signature buckets (the signature keys
    #: on the compiler) but one explanation; this is the "ideally 1"
    #: convergence number and what the CI gate bounds.
    new_cause_explanations: int | None = None
    convergence_budget: int | None = None

    @property
    def status(self) -> str:
        hits = [bool(v) for v in self.detected.values()]
        if hits and all(hits):
            return "caught"
        if any(hits):
            return "flaky"
        return "missed"

    def to_dict(self, include_timing: bool = False) -> dict:
        payload = {
            "family": self.family,
            "description": self.description,
            "expected_caught": self.expected_caught,
            "corpus": self.corpus,
            "status": self.status,
            "detected": {
                str(budget): bool(hit)
                for budget, hit in sorted(self.detected.items())
            },
            "first_detection": {
                str(budget): (
                    None if entry is None
                    else {"index": entry[0], "cell": entry[1]}
                )
                for budget, entry in sorted(self.first_detection.items())
            },
            "new_cause_buckets": self.new_cause_buckets,
            "total_cause_buckets": self.total_cause_buckets,
            "new_cause_explanations": self.new_cause_explanations,
            "convergence_budget": self.convergence_budget,
        }
        if include_timing:
            payload["seconds"] = {
                str(budget): round(value, 3)
                for budget, value in sorted(self.seconds.items())
            }
        return payload


@dataclass
class RecallReport:
    """The full sweep: per-mutant outcomes plus baseline accounting."""

    budgets: tuple
    outcomes: list = field(default_factory=list)
    #: budget -> comparison-record count of the unmutated main-corpus
    #: baseline (absent when no selected mutant uses the main corpus).
    baseline_records: dict = field(default_factory=dict)
    #: Baseline cause-bucket count at the convergence budget (None
    #: when no selected mutant uses the main corpus).
    baseline_cause_buckets: int | None = None
    #: Same accounting for the stitched-method corpus, populated only
    #: when a selected mutant declares ``corpus="stitched"``.
    stitched_baseline_records: dict = field(default_factory=dict)
    stitched_baseline_cause_buckets: int | None = None
    convergence_budget: int | None = None

    def outcome(self, mutant_id: str) -> MutantOutcome:
        for outcome in self.outcomes:
            if outcome.mutant_id == mutant_id:
                return outcome
        raise KeyError(mutant_id)

    @property
    def expected_subset(self) -> list:
        return [o for o in self.outcomes if o.expected_caught]

    @property
    def recall(self) -> float:
        """Caught fraction over the ``expected_caught`` subset."""
        subset = self.expected_subset
        if not subset:
            return 1.0
        return sum(1 for o in subset if o.status == "caught") / len(subset)

    def to_dict(self, include_timing: bool = False) -> dict:
        subset = self.expected_subset
        return {
            "budgets": list(self.budgets),
            "mutants": {
                o.mutant_id: o.to_dict(include_timing=include_timing)
                for o in self.outcomes
            },
            "baseline": {
                "records": {
                    str(budget): count
                    for budget, count in sorted(self.baseline_records.items())
                },
                "cause_buckets": self.baseline_cause_buckets,
                "stitched_records": {
                    str(budget): count
                    for budget, count
                    in sorted(self.stitched_baseline_records.items())
                },
                "stitched_cause_buckets":
                    self.stitched_baseline_cause_buckets,
            },
            "convergence_budget": self.convergence_budget,
            "recall": {
                "caught": sum(1 for o in subset if o.status == "caught"),
                "expected": len(subset),
                "rate": self.recall,
            },
        }


# ----------------------------------------------------------------------
# the sweep driver


def _journal_for(journal_dir, phase: str, budget: int):
    if journal_dir is None:
        return None, False
    path = Path(journal_dir) / f"{phase}-b{budget}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    return str(path), path.exists()


def _cause_signatures(result) -> list:
    """The campaign's cause buckets as ``campaign --triage`` makes them
    (no mutant patches the bucketing): divergences, then crashes."""
    buckets = list(bucket_candidates(collect_divergences(result)).values())
    buckets += bucket_candidates(collect_crashes(result.quarantine)).values()
    return [signature for signature, _group in buckets]


#: corpus name -> journal phase of its unmutated baseline run.
_BASELINE_PHASES = {"main": "baseline", "stitched": "baseline-stitched"}


def corpus_rows(config: CampaignConfig, corpus: str) -> list:
    """The canonical plan of *corpus* ("main" | "stitched")."""
    if corpus == "stitched":
        return stitched_campaign_rows(config)
    return campaign_rows(config)


def corpus_config(config: CampaignConfig, corpus: str) -> CampaignConfig:
    """Scope ``config.only`` to the entries the corpus can resolve.

    A mixed ``--only`` list (main instruction names plus ``stitch:``
    method names) would otherwise zero out one corpus or the other;
    each corpus keeps its own entries, and a corpus whose filter comes
    up empty runs unrestricted.
    """
    stitched = tuple(n for n in config.only if n.startswith("stitch:"))
    only = stitched if corpus == "stitched" else tuple(
        n for n in config.only if not n.startswith("stitch:")
    )
    return replace(config, only=only)


def _run_one(config: CampaignConfig, *, corpus: str, jobs, journal_dir,
             resume, phase: str, budget: int, cache_dir=None):
    journal_path, exists = _journal_for(journal_dir, phase, budget)
    return run_campaign(
        config,
        corpus_rows(config, corpus),
        jobs=jobs,
        journal_path=journal_path,
        resume=bool(resume and exists),
        cache_dir=cache_dir,
    )


def run_recall(
    config: CampaignConfig | None = None,
    mutant_ids=None,
    budgets=DEFAULT_BUDGETS,
    *,
    jobs: int = 1,
    journal_dir=None,
    resume: bool = False,
    progress=None,
    cache_dir=None,
) -> RecallReport:
    """Run the full detection-recall sweep; see the module docstring.

    ``config`` scopes the corpus exactly like a campaign config
    (``only``, ``max_bytecodes``…); its ``max_paths_per_instruction``
    is overridden by each entry of ``budgets`` in turn, and its
    ``mutants`` field by each mutant.  ``progress`` is an optional
    ``callable(str)`` for CLI status lines (sent to stderr by the CLI
    so stdout stays byte-identical across runs).  ``cache_dir``
    attaches the persistent result store to every campaign of the
    sweep: semantic fingerprints let a mutant run reuse every baseline
    cell the mutant does not touch — the bulk of the sweep's work —
    while the touched cells re-run under the mutated semantics
    (docs/INCREMENTAL.md).
    """
    config = config or CampaignConfig()
    ids = tuple(mutant_ids) if mutant_ids else registry.all_ids()
    for mid in ids:
        registry.get(mid)  # fail fast on typos
    budgets = tuple(dict.fromkeys(budgets)) or DEFAULT_BUDGETS
    convergence_budget = max(budgets)

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    report = RecallReport(budgets=budgets,
                          convergence_budget=convergence_budget)
    outcomes = {
        mid: MutantOutcome(
            mutant_id=mid,
            family=registry.get(mid).family,
            description=registry.get(mid).description,
            expected_caught=registry.get(mid).expected_caught,
            corpus=registry.get(mid).corpus,
        )
        for mid in ids
    }
    report.outcomes = list(outcomes.values())
    # One baseline per corpus per budget: only the corpora the selected
    # mutants actually declare ("main" first, in registration order).
    corpora = tuple(dict.fromkeys(outcomes[mid].corpus for mid in ids))

    baseline_digests: dict = {}
    for budget in budgets:
        measure_convergence = budget == convergence_budget
        baseline_fps: dict = {}
        for corpus in corpora:
            base_config = replace(
                corpus_config(config, corpus),
                max_paths_per_instruction=budget, mutants=(),
            )
            phase = _BASELINE_PHASES[corpus]
            note(f"{phase} @ budget {budget}")
            baseline = _run_one(
                base_config, corpus=corpus, jobs=jobs,
                journal_dir=journal_dir, resume=resume, phase=phase,
                budget=budget, cache_dir=cache_dir,
            )
            baseline_fps[corpus] = campaign_fingerprint(baseline)
            records = report.baseline_records if corpus == "main" \
                else report.stitched_baseline_records
            records[budget] = len(baseline_fps[corpus])
            if measure_convergence:
                known = {s.digest for s in _cause_signatures(baseline)}
                baseline_digests[corpus] = known
                if corpus == "main":
                    report.baseline_cause_buckets = len(known)
                else:
                    report.stitched_baseline_cause_buckets = len(known)

        for mid in ids:
            outcome = outcomes[mid]
            corpus = outcome.corpus
            mutant_config = replace(
                corpus_config(config, corpus),
                max_paths_per_instruction=budget, mutants=(mid,),
            )
            note(f"mutant {mid} @ budget {budget}")
            start = time.perf_counter()
            mutated = _run_one(
                mutant_config, corpus=corpus, jobs=jobs,
                journal_dir=journal_dir, resume=resume,
                phase=f"mutant-{mid}", budget=budget, cache_dir=cache_dir,
            )
            outcome.seconds[budget] = time.perf_counter() - start
            mutated_fp = campaign_fingerprint(mutated)
            deviation = first_divergence(baseline_fps[corpus], mutated_fp)
            outcome.detected[budget] = deviation is not None
            outcome.first_detection[budget] = deviation
            perf.incr("mutation.runs")
            if deviation is not None:
                perf.incr("mutation.detections")
            if measure_convergence:
                signatures = _cause_signatures(mutated)
                known = baseline_digests[corpus]
                new = [s for s in signatures if s.digest not in known]
                outcome.new_cause_buckets = len(new)
                outcome.total_cause_buckets = len(signatures)
                outcome.new_cause_explanations = len({
                    (s.category, s.cause) for s in new
                })
                outcome.convergence_budget = budget
    return report


# ----------------------------------------------------------------------
# rendering


def format_recall(report: RecallReport) -> str:
    """Deterministic text rendering of one recall sweep."""
    budgets = report.budgets
    header = (
        f"{'Mutant':8s} {'Family':12s} {'Corpus':8s} {'Status':8s} "
        + " ".join(f"{'@' + str(b):>6s}" for b in budgets)
        + f" {'First detection':28s} {'Causes':>18s}"
    )
    lines = [
        "Mutation recall (repro mutate)",
        header,
        "-" * len(header),
    ]
    for outcome in report.outcomes:
        per_budget = " ".join(
            f"{'yes' if outcome.detected.get(b) else 'no':>6s}"
            for b in budgets
        )
        first = next(
            (
                entry for b in budgets
                if (entry := outcome.first_detection.get(b)) is not None
            ),
            None,
        )
        first_text = "-" if first is None else f"#{first[0]} {first[1]}"
        causes = (
            f"{outcome.new_cause_buckets} new "
            f"({outcome.new_cause_explanations} expl)"
            f"/{outcome.total_cause_buckets}"
        )
        lines.append(
            f"{outcome.mutant_id:8s} {outcome.family:12s} "
            f"{outcome.corpus:8s} {outcome.status:8s} "
            f"{per_budget} {first_text:28s} {causes:>18s}"
        )
    subset = report.expected_subset
    caught = sum(1 for o in subset if o.status == "caught")
    lines.append("")
    lines.append(
        f"Recall over the expected-caught subset: {caught}/{len(subset)} "
        f"({100.0 * report.recall:.1f}%)"
    )
    if report.baseline_cause_buckets is not None:
        lines.append(
            f"Baseline cause buckets at budget "
            f"{report.convergence_budget}: {report.baseline_cause_buckets}"
        )
    if report.stitched_baseline_cause_buckets is not None:
        lines.append(
            f"Stitched-corpus baseline cause buckets at budget "
            f"{report.convergence_budget}: "
            f"{report.stitched_baseline_cause_buckets}"
        )
    return "\n".join(lines)
