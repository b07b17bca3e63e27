"""The shard planner: instruction-granular slices of the cell grid.

The unit of campaign work, in process or in a worker, is a
:class:`Shard` — *every* compiler cell of one instruction, in
canonical plan order.  That granularity is what makes the exploration
cache work across processes: concolic exploration depends only on the
instruction, so whoever runs a shard explores the instruction once and
reuses the path summaries for each compiler x backend cell.  Finer
sharding (per cell) would re-explore per compiler; coarser (per
report row) would serialize the grid again.

Shards are plain data — ``(row_index, spec_index)`` coordinates into
the canonical plan plus the names that form the journal key — so a
worker addresses its specs in the plan rows it inherited through
``fork``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.robustness.checkpoint import cell_key


def resolve_jobs(jobs: int | None) -> int:
    """``-j 0`` (or None) means one worker per available CPU."""
    if not jobs:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


@dataclass(frozen=True)
class Cell:
    """One (instruction, compiler) cell, addressed into the plan."""

    row_index: int
    spec_index: int
    experiment: str
    compiler: str
    kind: str
    instruction: str

    @property
    def key(self) -> str:
        """The cell's journal identity (stable across runs and modes)."""
        return cell_key(self.experiment, self.compiler, self.kind,
                        self.instruction)


@dataclass(frozen=True)
class Shard:
    """All not-yet-completed cells of one instruction, in plan order."""

    index: int
    cells: tuple

    @property
    def instruction(self) -> str:
        return self.cells[0].instruction

    def remainder_after(self, victim: Cell) -> "Shard | None":
        """The shard minus everything up to and including *victim* —
        what gets re-queued after a worker crash costs one cell."""
        position = self.cells.index(victim)
        rest = self.cells[position + 1:]
        if not rest:
            return None
        return Shard(self.index, rest)


def plan_cells(rows):
    """Every cell of the canonical plan, row-major (report order)."""
    for row_index, row in enumerate(rows):
        for spec_index, spec in enumerate(row.specs):
            yield Cell(
                row_index=row_index,
                spec_index=spec_index,
                experiment=row.experiment,
                compiler=row.compiler_class.name,
                kind=spec.kind,
                instruction=spec.name,
            )


def plan_shards(rows, completed=()) -> list:
    """Group the plan's remaining cells into per-instruction shards.

    ``completed`` is the set of journal keys already replayed (resume);
    cells with journaled records never re-run.  Shard order follows the
    first appearance of each instruction in the plan, so scheduling is
    deterministic; result determinism does not depend on it (the merge
    reorders by plan), but stable scheduling keeps wall-clock behaviour
    reproducible.
    """
    completed = set(completed)
    groups: dict = {}
    order: list = []
    for cell in plan_cells(rows):
        if cell.key in completed:
            continue
        group = (cell.experiment, cell.kind, cell.instruction)
        if group not in groups:
            groups[group] = []
            order.append(group)
        groups[group].append(cell)
    return [
        Shard(index, tuple(groups[group]))
        for index, group in enumerate(order)
    ]
