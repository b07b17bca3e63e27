"""Canonical defect signatures: the dedup key of the triage layer.

A signature captures *what* a defect is, independent of how many paths
or back-ends happened to hit it: the cell identity (instruction kind,
instruction, compiler), the defect classification
(:mod:`repro.difftest.defects` category and cause key), the
interpreter-exit × machine-outcome pair, and the difference kind.  The
back-end is deliberately excluded — one compiler defect observed on
both x86 and ARM32 is one cause, matching the paper's "we count a
defect only once regardless of how many execution paths it lead to a
failure".

Signatures are pure value objects: canonical string, stable short
digest (used for journal keys and reproducer file names), and a
filesystem-safe slug.  Everything is derived from serialized record
data, never from live objects, so the same campaign produces the same
signatures from a live run, a worker pipe, or a journal replay.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class DefectSignature:
    """Identity of one root cause across paths, back-ends and runs."""

    kind: str  # "bytecode" | "native" | "sequence"
    instruction: str
    compiler: str
    #: :class:`repro.difftest.defects.DefectCategory` value, or
    #: ``"crash"`` for quarantined-cell causes.
    category: str
    #: Classification cause key (``missing-getter:R10``), or
    #: ``stage:ErrorClass`` for crashes.
    cause: str
    #: :func:`repro.difftest.harness.exit_pair` of the exemplar
    #: divergence.
    exit_pair: str
    #: harness difference kind, or the error class for crashes.
    difference_kind: str

    def canonical(self) -> str:
        """The canonical one-line form all identity derives from."""
        return "|".join((
            self.kind, self.instruction, self.compiler, self.category,
            self.cause, self.exit_pair, self.difference_kind,
        ))

    @property
    def digest(self) -> str:
        """Stable 12-hex-digit id: journal key, reproducer file name."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:12]

    def slug(self) -> str:
        """Filesystem-safe reproducer name stem, e.g.
        ``missing-getter-R10-primitiveFloatTruncated``."""
        raw = f"{self.cause}-{self.instruction}"
        slug = re.sub(r"[^A-Za-z0-9]+", "-", raw).strip("-")
        return slug or "defect"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "instruction": self.instruction,
            "compiler": self.compiler,
            "category": self.category,
            "cause": self.cause,
            "exit_pair": self.exit_pair,
            "difference_kind": self.difference_kind,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DefectSignature":
        return cls(
            kind=data["kind"],
            instruction=data["instruction"],
            compiler=data["compiler"],
            category=data["category"],
            cause=data["cause"],
            exit_pair=data["exit_pair"],
            difference_kind=data["difference_kind"],
        )
