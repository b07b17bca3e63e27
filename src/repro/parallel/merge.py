"""Deterministic merge: cell records -> campaign reports.

Cells complete in shard order, and under ``-j N`` in whatever order
scheduling produces; the merge erases that by replaying the records
against the canonical plan — the same row order, the same spec order.
Every campaign reports through it, whatever its ``-j``, resume or
cache state, so aggregate counts, report row ordering and the
quarantine section are byte-identical across them (asserted by
``tests/parallel/test_determinism.py``).

Each record is read back as the cell it was written from
(:meth:`~repro.difftest.runner.CellResult.from_record`): retry counts,
exploration and test times, quarantine entry, and the triage candidate
data (path signatures, exit pairs) that ``--triage`` consumes after
the merge.
"""

from __future__ import annotations

from repro.difftest.runner import (
    CampaignResult,
    CellResult,
    CompilerReport,
    _accumulate,
)
from repro.robustness.checkpoint import cell_key


def merge_records(rows, records: dict,
                  result: CampaignResult) -> CampaignResult:
    """Fold ``key -> record`` into *result*'s reports, in plan order.

    Cells without a record (deadline expired before they ran) are
    simply absent.  Quarantine entries ride inside their cell's
    record, so the quarantine section also comes out in plan order.
    """
    for row in rows:
        report = CompilerReport(compiler=row.label)
        for spec in row.specs:
            key = cell_key(row.experiment, row.compiler_class.name,
                           spec.kind, spec.name)
            record = records.get(key)
            if record is None:
                continue
            cell = CellResult.from_record(record)
            _accumulate(report, cell)
            if cell.quarantined is not None:
                result.quarantine.add(cell.quarantined)
        result.append(report)
    return result
