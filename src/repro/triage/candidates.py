"""Triage candidates: serialized facts about one failing execution.

Candidates are built from :class:`ComparisonResult` verdicts and
quarantine entries — the exact data that already travels over the
worker pipe and through the journal — never from live paths or heaps.
That is what makes triage independent of ``-j``: an in-process run,
a pool run and a ``--resume`` replay of the same campaign yield the
same candidate list in the same canonical plan order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.difftest.defects import classify
from repro.triage.signature import DefectSignature


@dataclass(frozen=True)
class DivergenceCandidate:
    """One differing comparison, reduced to its serialized facts."""

    kind: str
    instruction: str
    compiler: str
    backend: str
    category: str
    cause: str
    difference_kind: str
    exit_pair: str
    operand_shape: str
    detail: str
    #: ``((term, taken), ...)`` — enough to relocate the failing path
    #: in a deterministic re-exploration of the instruction.  ``()`` is
    #: the empty path condition; None: the record carried no signature.
    path_signature: tuple | None

    @property
    def signature(self) -> DefectSignature:
        return DefectSignature(
            kind=self.kind,
            instruction=self.instruction,
            compiler=self.compiler,
            category=self.category,
            cause=self.cause,
            exit_pair=self.exit_pair,
            difference_kind=self.difference_kind,
        )


@dataclass(frozen=True)
class CrashCandidate:
    """One quarantined (instruction, compiler) cell."""

    kind: str
    instruction: str
    compiler: str
    backend: str
    stage: str
    error_class: str
    message: str

    @property
    def signature(self) -> DefectSignature:
        return DefectSignature(
            kind=self.kind,
            instruction=self.instruction,
            compiler=self.compiler,
            category="crash",
            cause=f"{self.stage}:{self.error_class}",
            exit_pair=f"crash x {self.error_class}",
            difference_kind=self.error_class,
        )


def divergence_candidate(comparison) -> DivergenceCandidate:
    """Candidate for one differing :class:`ComparisonResult`."""
    defect = classify(comparison)
    return DivergenceCandidate(
        kind=comparison.kind,
        instruction=comparison.instruction,
        compiler=comparison.compiler,
        backend=comparison.backend,
        category=defect.category.value,
        cause=defect.cause,
        difference_kind=comparison.difference_kind or "",
        exit_pair=comparison.exit_pair,
        operand_shape=comparison.operand_shape,
        detail=comparison.detail,
        path_signature=comparison.path_signature,
    )


def collect_divergences(reports) -> list[DivergenceCandidate]:
    """Every differing comparison of a campaign, in plan order."""
    return [
        divergence_candidate(comparison)
        for report in reports
        for result in report.results
        for comparison in result.comparisons
        if comparison.is_difference
    ]


def collect_crashes(quarantine) -> list[CrashCandidate]:
    """Every quarantined cell of a campaign, in plan order."""
    return [
        CrashCandidate(
            kind=entry.kind,
            instruction=entry.instruction,
            compiler=entry.compiler,
            backend=entry.backend,
            stage=entry.stage,
            error_class=entry.error_class,
            message=entry.message,
        )
        for entry in quarantine
    ]


def bucket_candidates(candidates) -> dict:
    """Fold candidates into ``digest -> (signature, [candidate, ...])``.

    Insertion order is first appearance in the canonical plan, so
    bucket order — and hence the Causes report section — is identical
    for every engine and ``-j`` value.
    """
    buckets: dict = {}
    for candidate in candidates:
        signature = candidate.signature
        entry = buckets.get(signature.digest)
        if entry is None:
            buckets[signature.digest] = (signature, [candidate])
        else:
            entry[1].append(candidate)
    return buckets
