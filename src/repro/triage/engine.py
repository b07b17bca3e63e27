"""The triage engine: confirm → shrink → dedup → emit, with resume.

Runs in the parent process over the campaign's serialized verdicts
(see :mod:`repro.triage.candidates`), so the pipeline is identical at
every ``-j`` and for journal replays.

Persistence: each finished cause bucket is appended to the campaign
journal under ``triage::<digest>`` (same encoding, checksumming and
last-wins semantics as cell records).  A ``--resume`` run reuses those
records — confirmation counts, shrunken shapes, verification verdicts
— instead of re-confirming and re-shrinking, and re-emits reproducer
files byte-identically from the journaled data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.robustness.checkpoint import (
    CampaignJournal,
    triage_key,
    triage_records,
)
from repro.triage.candidates import (
    bucket_candidates,
    collect_crashes,
    collect_divergences,
)
from repro.triage.emit import emit_reproducer, self_verify
from repro.triage.lab import TriageLab, matches
from repro.triage.shrink import shrink_candidate
from repro.triage.signature import DefectSignature


@dataclass
class TriageConfig:
    """Operator knobs of one triage pass (``campaign --triage``)."""

    #: Fresh-world re-executions per cause bucket (``--confirm-runs``).
    confirm_runs: int = 3
    #: Directory for standalone reproducers (``--repro-dir``); None
    #: disables emission.
    repro_dir: str | None = None
    #: Delta-debug confirmed divergences down to minimal inputs.
    shrink: bool = True
    #: Re-execute each emitted reproducer once as self-verification.
    self_verify: bool = True


@dataclass
class TriageCause:
    """One deduplicated divergence bucket, fully triaged."""

    signature: DefectSignature
    #: Differing executions folded into this bucket.
    count: int
    #: Back-ends the defect was observed on (sorted).
    backends: tuple
    #: Back-end the exemplar (and reproducer) replays on.
    exemplar_backend: str
    exemplar_detail: str
    #: deterministic | flaky(k_of_n) | vanished | unconfirmed.
    confirmation: str
    confirmed_runs: int
    total_runs: int
    #: Path-condition length before shrinking (None: path not located).
    original_constraints: int | None = None
    #: Fresh executions the shrinker spent (None: shrinking skipped).
    shrink_trials: int | None = None
    #: Minimal constraint shape (None: shrinking skipped).
    shrunken_shape: str | None = None
    #: ``((term, taken), ...)`` — the (possibly shrunken) path condition.
    constraints: tuple = ()
    #: Minimal input model (``Model.to_dict``); None: no located path.
    model: dict | None = None
    #: Emitted reproducer file name (inside the repro dir).
    repro_file: str | None = None
    #: Emission-time self-check: True = asserted the divergence,
    #: False = did not, None = verification skipped or not emitted.
    verified: bool | None = None

    def to_dict(self) -> dict:
        return {
            "signature": self.signature.to_dict(),
            "count": self.count,
            "backends": list(self.backends),
            "exemplar_backend": self.exemplar_backend,
            "exemplar_detail": self.exemplar_detail,
            "confirmation": self.confirmation,
            "confirmed_runs": self.confirmed_runs,
            "total_runs": self.total_runs,
            "original_constraints": self.original_constraints,
            "shrink_trials": self.shrink_trials,
            "shrunken_shape": self.shrunken_shape,
            "constraints": [
                [term, taken] for term, taken in self.constraints
            ],
            "model": self.model,
            "repro_file": self.repro_file,
            "verified": self.verified,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TriageCause":
        return cls(
            signature=DefectSignature.from_dict(data["signature"]),
            count=data["count"],
            backends=tuple(data.get("backends", ())),
            exemplar_backend=data["exemplar_backend"],
            exemplar_detail=data.get("exemplar_detail", ""),
            confirmation=data["confirmation"],
            confirmed_runs=data.get("confirmed_runs", 0),
            total_runs=data.get("total_runs", 0),
            original_constraints=data.get("original_constraints"),
            shrink_trials=data.get("shrink_trials"),
            shrunken_shape=data.get("shrunken_shape"),
            constraints=tuple(
                (term, bool(taken))
                for term, taken in data.get("constraints", ())
            ),
            model=data.get("model"),
            repro_file=data.get("repro_file"),
            verified=data.get("verified"),
        )


@dataclass
class CrashCause:
    """One deduplicated quarantined-crash bucket."""

    signature: DefectSignature
    count: int
    stage: str
    error_class: str
    exemplar_message: str
    confirmation: str
    confirmed_runs: int
    total_runs: int

    def to_dict(self) -> dict:
        return {
            "signature": self.signature.to_dict(),
            "count": self.count,
            "stage": self.stage,
            "error_class": self.error_class,
            "exemplar_message": self.exemplar_message,
            "confirmation": self.confirmation,
            "confirmed_runs": self.confirmed_runs,
            "total_runs": self.total_runs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CrashCause":
        return cls(
            signature=DefectSignature.from_dict(data["signature"]),
            count=data["count"],
            stage=data["stage"],
            error_class=data["error_class"],
            exemplar_message=data.get("exemplar_message", ""),
            confirmation=data["confirmation"],
            confirmed_runs=data.get("confirmed_runs", 0),
            total_runs=data.get("total_runs", 0),
        )


@dataclass
class TriageReport:
    """Everything the Causes report section renders."""

    causes: list = field(default_factory=list)
    crash_causes: list = field(default_factory=list)
    #: Differing executions that entered triage.
    divergence_count: int = 0
    #: Quarantined cells that entered triage.
    crash_count: int = 0
    repro_dir: str | None = None
    #: Cause buckets replayed from the journal instead of re-triaged.
    reused_causes: int = 0


def _label(confirmed: int, total: int, *, located: bool) -> str:
    if not located or total == 0:
        return "unconfirmed"
    if confirmed == total:
        return "deterministic"
    if confirmed == 0:
        return "vanished"
    return f"flaky({confirmed}_of_{total})"


def _constraint_pairs(constraints) -> tuple:
    return tuple((str(c.term), bool(c.taken)) for c in constraints)


def _triage_divergence(lab: TriageLab, signature, group, backends,
                       triage: TriageConfig) -> TriageCause:
    """Confirm and shrink one fresh divergence bucket."""
    exemplar = group[0]
    path = lab.locate(exemplar)
    runs = max(0, triage.confirm_runs)
    confirmed = total = 0
    if path is not None:
        total = runs
        for _ in range(runs):
            trial = lab.run_trial(exemplar, path.constraints, path.model)
            if matches(exemplar, trial):
                confirmed += 1
    cause = TriageCause(
        signature=signature,
        count=len(group),
        backends=backends,
        exemplar_backend=exemplar.backend,
        exemplar_detail=exemplar.detail,
        confirmation=_label(confirmed, total, located=path is not None),
        confirmed_runs=confirmed,
        total_runs=total,
    )
    if path is None:
        return cause
    cause.original_constraints = len(path.constraints)
    if triage.shrink and confirmed > 0:
        outcome = shrink_candidate(lab, exemplar, path)
        cause.constraints = _constraint_pairs(outcome.constraints)
        cause.model = outcome.model.to_dict()
        cause.shrunken_shape = outcome.shape
        cause.shrink_trials = outcome.trials
    else:
        # No shrinking (disabled, or nothing reproduced): the original
        # located path is still the best reproducer input we have.
        cause.constraints = _constraint_pairs(path.constraints)
        cause.model = path.model.to_dict()
    return cause


def _triage_crash(lab: TriageLab, signature, group,
                  triage: TriageConfig) -> CrashCause:
    """Confirm one fresh quarantined-crash bucket."""
    exemplar = group[0]
    runs = max(0, triage.confirm_runs)
    if exemplar.error_class == "WorkerCrash":
        # The cell killed a whole worker process; re-running it in the
        # parent could take down the campaign, so it stays unconfirmed.
        confirmed = total = 0
        located = False
    else:
        confirmed, total, located = 0, runs, True
        for _ in range(runs):
            error = lab.run_cell(exemplar)
            if error is not None and error.error_class == exemplar.error_class:
                confirmed += 1
    return CrashCause(
        signature=signature,
        count=len(group),
        stage=exemplar.stage,
        error_class=exemplar.error_class,
        exemplar_message=exemplar.message,
        confirmation=_label(confirmed, total, located=located),
        confirmed_runs=confirmed,
        total_runs=total,
    )


def run_triage(result, config, triage: TriageConfig, *,
               journal_path=None, resume: bool = False) -> TriageReport:
    """Triage one finished campaign; see the package docstring.

    ``result`` is the :class:`CampaignResult`, ``config`` the
    :class:`CampaignConfig` it ran under (budgets and active mutants
    must match for confirmation to re-create the campaign's
    conditions).  The whole pass runs under
    ``config.mutants``: triage executes in the *parent* process, which
    — with ``jobs > 1`` — never ran a mutated cell itself, so without
    this activation confirmation and shrinking would replay against
    the unmutated semantics and report every seeded defect as
    ``vanished``.
    """
    from repro.mutation import activated

    journal = CampaignJournal(journal_path) if journal_path else None
    try:
        with activated(config.mutants):
            return _run_triage_activated(result, config, triage,
                                         journal=journal, resume=resume)
    finally:
        if journal is not None:
            journal.close()


def _run_triage_activated(result, config, triage: TriageConfig, *,
                          journal=None,
                          resume: bool = False) -> TriageReport:
    divergences = collect_divergences(result)
    crashes = collect_crashes(result.quarantine)
    finished = (
        triage_records(journal.load())
        if (journal is not None and resume) else {}
    )
    lab = TriageLab(config)
    report = TriageReport(
        divergence_count=len(divergences),
        crash_count=len(crashes),
        repro_dir=triage.repro_dir,
    )

    for digest, (signature, group) in bucket_candidates(divergences).items():
        record = finished.get(digest)
        backends = tuple(sorted({c.backend for c in group}))
        if record is not None and not record.get("crash"):
            cause = TriageCause.from_dict(record["cause"])
            # Counts are recomputed from the (identical) campaign data;
            # the expensive confirmation/shrink/verify state is reused.
            cause.count = len(group)
            cause.backends = backends
            report.reused_causes += 1
            fresh = False
        else:
            cause = _triage_divergence(lab, signature, group, backends,
                                       triage)
            fresh = True
        if triage.repro_dir is not None and cause.model is not None:
            path = emit_reproducer(cause, triage.repro_dir, lab.config)
            cause.repro_file = path.name
            if fresh and triage.self_verify:
                cause.verified = self_verify(path)
        if fresh and journal is not None:
            journal.append({
                "key": triage_key(digest),
                "crash": False,
                "cause": cause.to_dict(),
            })
        report.causes.append(cause)

    for digest, (signature, group) in bucket_candidates(crashes).items():
        record = finished.get(digest)
        if record is not None and record.get("crash"):
            cause = CrashCause.from_dict(record["cause"])
            cause.count = len(group)
            report.reused_causes += 1
        else:
            cause = _triage_crash(lab, signature, group, triage)
            if journal is not None:
                journal.append({
                    "key": triage_key(digest),
                    "crash": True,
                    "cause": cause.to_dict(),
                })
        report.crash_causes.append(cause)

    return report
