"""The "Causes" report section (``campaign --triage``).

Renders a :class:`~repro.triage.engine.TriageReport` deterministically:
bucket order is first appearance in the canonical plan, all values come
from serialized triage data, and no wall-clock or process-local detail
is printed — so the section is byte-identical across ``-j`` values and
kill/``--resume`` cycles (asserted by ``tests/triage``).
"""

from __future__ import annotations


def _confirmation_line(cause) -> str:
    line = f"      confirmation: {cause.confirmation}"
    if cause.total_runs:
        line += f" ({cause.confirmed_runs}/{cause.total_runs})"
    return line


def format_causes(triage) -> str:
    """Multi-line Causes section for the campaign report."""
    lines = [
        f"Causes (--triage): {len(triage.causes)} cause bucket(s) from "
        f"{triage.divergence_count} differing execution(s)"
    ]
    for index, cause in enumerate(triage.causes, 1):
        sig = cause.signature
        lines.append(f"  [{index}] {sig.cause} — {sig.category}")
        lines.append(
            f"      cell: {sig.instruction} [{sig.compiler}] ({sig.kind})"
        )
        lines.append(
            f"      exit pair: {sig.exit_pair}   executions: {cause.count}"
            f"   backends: {','.join(cause.backends)}"
        )
        lines.append(_confirmation_line(cause))
        if cause.shrunken_shape is not None:
            lines.append(
                f"      shrunken: {cause.original_constraints} -> "
                f"{len(cause.constraints)} constraint(s); "
                f"shape: {cause.shrunken_shape}"
            )
        if cause.repro_file:
            if cause.verified is None:
                check = "skipped"
            elif cause.verified:
                check = "asserted"
            else:
                check = "NOT asserted"
            lines.append(
                f"      repro: {cause.repro_file} (self-check: {check})"
            )
    if triage.crash_causes:
        lines.append(
            f"  Quarantined-crash causes: {len(triage.crash_causes)} "
            f"bucket(s) from {triage.crash_count} quarantined cell(s)"
        )
        for index, cause in enumerate(triage.crash_causes, 1):
            sig = cause.signature
            lines.append(
                f"  [C{index}] {sig.cause} — {sig.instruction} "
                f"[{sig.compiler}]"
            )
            lines.append(_confirmation_line(cause))
            message = cause.exemplar_message
            if len(message) > 100:
                message = message[:97] + "..."
            lines.append(f"      exemplar: {message}")
    if triage.repro_dir is not None and any(
        cause.repro_file for cause in triage.causes
    ):
        lines.append(f"  Reproducers in: {triage.repro_dir}")
    # Note: resume bookkeeping (reused_causes) is deliberately NOT part
    # of this section — the Causes output of a resumed run must stay
    # byte-identical to the original run's.  The CLI prints it
    # separately, next to the "resumed N cells" line.
    return "\n".join(lines)
