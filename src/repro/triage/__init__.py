"""Self-verifying defect triage: confirm, shrink, dedup, reproduce.

The paper's headline result — 468 path differences collapsing into 91
root causes — was produced by hand ("we performed defect identification
by manually inspecting and debugging the source code", Section 5.3).
This package mechanizes that collapse for campaign output: every
divergence and quarantined crash flows through four stages before it
reaches the report.

1. **Confirmation** re-executes each failing cell N times with a fresh
   heap and fresh simulator, labelling it ``deterministic`` /
   ``flaky(k_of_n)`` / ``vanished`` so fault-injection noise and
   nondeterminism cannot masquerade as compiler bugs.
2. **Shrinking** delta-debugs the path-constraint prefix and the
   materialized operand stack / receiver shape — re-solving through the
   memoized incremental solver — down to the minimal input that still
   reproduces the same defect classification and exit pair.
3. **Dedup** folds the flood into cause buckets keyed by a canonical
   :class:`~repro.triage.signature.DefectSignature`, each with an
   exemplar and a count.
4. **Reproducer emission** writes one standalone ``repros/<sig>.py``
   per cause that rebuilds the frame and runs interpreter and JIT side
   by side with zero campaign machinery, asserting the divergence —
   and re-executes it once at emission time as self-verification.

Triage always runs in the *parent* process over the serialized cell
records every ``-j`` produces (the shard function ships candidate
payloads inside its ``("cell", ...)`` records), so its output is
byte-identical across ``-j`` values and across kill/``--resume``
cycles.  Finished causes are persisted into the campaign journal under
the ``triage::`` key namespace; ``--resume`` replays them instead of
re-confirming and re-shrinking.

Operator guide: ``docs/TRIAGE.md``.  Design notes: ``DESIGN.md`` §14.
"""

from repro.difftest.harness import exit_pair
from repro.triage.engine import (
    CrashCause,
    TriageCause,
    TriageConfig,
    TriageReport,
    run_triage,
)
from repro.triage.report import format_causes
from repro.triage.signature import DefectSignature

__all__ = [
    "CrashCause",
    "DefectSignature",
    "TriageCause",
    "TriageConfig",
    "TriageReport",
    "exit_pair",
    "format_causes",
    "run_triage",
]
