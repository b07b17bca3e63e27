"""Report assembly: the paper's tables and figures as data + text.

Regenerates, from campaign results:

* **Table 2** — per-compiler tested instructions / interpreter paths /
  curated paths / differences;
* **Table 3** — defect causes per family;
* **Figure 5** — paths-per-instruction distributions per kind;
* **Figures 6/7** — concolic-exploration and test-execution timings.

Formatting helpers render the same rows the paper prints so the
benchmark harness output is directly comparable.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.difftest.defects import DefectCategory, category_summary, group_causes
from repro.difftest.runner import CompilerReport, all_comparisons


# ----------------------------------------------------------------------
# Table 2


def table2(reports: list[CompilerReport]) -> list[tuple]:
    """Rows of Table 2 plus the totals row."""
    rows = [report.row() for report in reports]
    total_instructions = sum(r.tested_instructions for r in reports)
    total_paths = sum(r.interpreter_paths for r in reports)
    total_curated = sum(r.curated_paths for r in reports)
    total_diff = sum(r.differing_paths for r in reports)
    percentage = 100.0 * total_diff / total_curated if total_curated else 0.0
    rows.append(
        (
            "Total",
            total_instructions,
            total_paths,
            total_curated,
            f"{total_diff} ({percentage:.2f}%)",
        )
    )
    return rows


def format_table2(reports: list[CompilerReport]) -> str:
    header = (
        f"{'Compiler':36s} {'#Instr':>7s} {'#Paths':>7s} "
        f"{'#Curated':>9s} {'#Differences':>16s}"
    )
    lines = [header, "-" * len(header)]
    for name, instructions, paths, curated, differences in table2(reports):
        lines.append(
            f"{name:36s} {instructions:7d} {paths:7d} {curated:9d} "
            f"{differences:>16s}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table 3

#: Fixed presentation order matching the paper.
TABLE3_ORDER = (
    DefectCategory.MISSING_INTERPRETER_TYPE_CHECK,
    DefectCategory.MISSING_COMPILED_TYPE_CHECK,
    DefectCategory.OPTIMISATION_DIFFERENCE,
    DefectCategory.BEHAVIOURAL_DIFFERENCE,
    DefectCategory.MISSING_FUNCTIONALITY,
    DefectCategory.SIMULATION_ERROR,
    DefectCategory.UNCLASSIFIED,
)


def table3(reports: list[CompilerReport]) -> list[tuple]:
    summary = category_summary(all_comparisons(reports))
    rows = []
    for category in TABLE3_ORDER:
        count = summary.get(category, 0)
        if count or category != DefectCategory.UNCLASSIFIED:
            rows.append((category.value, count))
    rows.append(("Total", sum(count for _, count in rows)))
    return rows


def format_table3(reports: list[CompilerReport]) -> str:
    header = f"{'Family':36s} {'#Cases':>7s}"
    lines = [header, "-" * len(header)]
    for family, count in table3(reports):
        lines.append(f"{family:36s} {count:7d}")
    return "\n".join(lines)


def cause_listing(reports: list[CompilerReport]) -> str:
    """Every distinct cause with its path count — the defect inventory."""
    causes = group_causes(all_comparisons(reports))
    lines = []
    for defect in sorted(causes, key=lambda d: (d.category.value, d.cause)):
        lines.append(
            f"  [{defect.category.value}] {defect.cause} "
            f"({len(causes[defect])} differing executions)"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 5: paths per instruction


@dataclass
class Distribution:
    """Summary statistics of a per-instruction series."""

    label: str
    values: list = field(default_factory=list)

    @property
    def mean(self) -> float:
        return statistics.mean(self.values) if self.values else 0.0

    @property
    def median(self) -> float:
        return statistics.median(self.values) if self.values else 0.0

    @property
    def minimum(self) -> float:
        return min(self.values) if self.values else 0.0

    @property
    def maximum(self) -> float:
        return max(self.values) if self.values else 0.0

    def row(self) -> str:
        return (
            f"{self.label:14s} n={len(self.values):4d} "
            f"min={self.minimum:8.2f} median={self.median:8.2f} "
            f"mean={self.mean:8.2f} max={self.maximum:8.2f}"
        )


def paths_per_instruction(cells) -> dict[str, Distribution]:
    """Figure 5 data: path-count distribution per instruction kind, one
    cell per instruction."""
    by_kind: dict[str, Distribution] = {}
    for cell in cells:
        dist = by_kind.setdefault(cell.kind, Distribution(cell.kind))
        dist.values.append(cell.interpreter_paths)
    return by_kind


def exploration_times(cells) -> dict[str, Distribution]:
    """Figure 6 data: concolic exploration seconds per kind, one cell
    per instruction."""
    by_kind: dict[str, Distribution] = {}
    for cell in cells:
        dist = by_kind.setdefault(cell.kind, Distribution(cell.kind))
        dist.values.append(cell.explore_seconds)
    return by_kind


def test_times(reports: list[CompilerReport]) -> dict[str, Distribution]:
    """Figure 7 data: per-instruction differential test seconds, by
    compiler."""
    by_compiler: dict[str, Distribution] = {}
    for report in reports:
        dist = by_compiler.setdefault(
            report.compiler, Distribution(report.compiler)
        )
        for result in report.results:
            dist.values.append(result.test_seconds)
    return by_compiler


def in_milliseconds(distributions: dict) -> dict[str, Distribution]:
    """Figures 6 and 7 for display: the same series in milliseconds.

    Per-instruction times are a few milliseconds, which two decimals of
    a second would print as 0.00.
    """
    return {
        label: Distribution(dist.label, [1000.0 * value for value in dist.values])
        for label, dist in distributions.items()
    }


def format_distributions(title: str, distributions: dict) -> str:
    lines = [title]
    for label in sorted(distributions):
        lines.append("  " + distributions[label].row())
    return "\n".join(lines)


# ----------------------------------------------------------------------
# retry summary (robustness extension)


def retried_cells(reports) -> list[tuple]:
    """``(instruction, compiler, retries)`` for every retried cell.

    Retries come from the robustness layer's reduced-budget re-attempt;
    a retried-but-succeeded cell is easy to miss in aggregate counts,
    yet it is exactly where flaky triage confirmations come from —
    operators cross-check these numbers against the Causes section's
    ``flaky(k_of_n)`` labels (see docs/TRIAGE.md).
    """
    return [
        (result.instruction, result.compiler, result.retries)
        for report in reports
        for result in report.results
        if result.retries
    ]


def format_retries(reports) -> str:
    """Per-cell retry section; empty string when nothing was retried."""
    rows = retried_cells(reports)
    if not rows:
        return ""
    total = sum(retries for _instr, _compiler, retries in rows)
    lines = [
        f"Retried cells: {len(rows)} ({total} reduced-budget retries)"
    ]
    for instruction, compiler, retries in rows:
        lines.append(f"  {instruction} [{compiler}] retries={retries}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# quarantine report (robustness extension)


def format_quarantine(quarantine) -> str:
    """The campaign's quarantine section: crashed cells by error class.

    Empty string when nothing was quarantined, so callers can print the
    result unconditionally.
    """
    if not quarantine:
        return ""
    lines = [f"Quarantined cells: {len(quarantine)}"]
    for error_class, entries in sorted(quarantine.by_error_class().items()):
        lines.append(f"  {error_class} ({len(entries)}):")
        for entry in entries:
            lines.append(f"    {entry.describe()}")
            for tb_line in entry.traceback.splitlines()[-3:]:
                lines.append(f"      | {tb_line}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# resilience report (supervision + replay health)


def format_resilience(result) -> str:
    """Campaign resilience section: supervision events and replay health.

    Each fact prints only when it actually happened (a clean run stays
    byte-identical to one from before supervision existed), so callers
    can print the result unconditionally.  Lines are prefixed
    ``resilience:`` for CI-side filtering (see docs/RESILIENCE.md).
    """
    lines = []
    preempted = getattr(result, "preempted_cells", 0)
    respawned = getattr(result, "respawned_workers", 0)
    if preempted or respawned:
        lines.append(
            f"resilience: {preempted} cell(s) preempted by --cell-timeout; "
            f"{respawned} worker(s) respawned"
        )
    replay = getattr(result, "journal_replay", None)
    if replay is not None and (replay.torn_lines or replay.skipped_lines):
        lines.append(
            f"resilience: journal replay skipped {replay.torn_lines} "
            f"torn and {replay.skipped_lines} foreign line(s) "
            f"({replay.records} records replayed)"
        )
    pipe_errors = getattr(result, "unexpected_io_errors", 0)
    if pipe_errors:
        lines.append(
            f"resilience: {pipe_errors} unexpected worker-pipe I/O "
            f"error(s) tolerated (see stderr)"
        )
    return "\n".join(lines)
