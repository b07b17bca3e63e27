"""One cell type from execution to report: a cell is its record.

The cell a campaign executes and the cell its reports are built from
after a worker pipe, the journal or the result store must be the same
value, and so must each comparison: on the main, sequence and stitched
corpora, with a quarantined cell among them.
"""

from __future__ import annotations

import json

import pytest

from repro.difftest.harness import ComparisonResult
from repro.difftest.runner import (
    CampaignConfig,
    CellResult,
    campaign_rows,
    run_campaign,
    sequence_campaign_rows,
    stitched_campaign_rows,
)
from repro.jit.machine.x86 import X86Backend
from repro.robustness.faults import FaultPlan, inject_faults

STITCHED = ("stitch:pushOne+longJump.1+nop+pushTwo+bytecodePrimAdd+pushZero"
            "+popIntoTemporaryVariable0+pushTemporaryVariable0")

#: corpus -> (config, plan, the instruction whose cell is quarantined)
CAMPAIGNS = {
    "main": (CampaignConfig(only=("primitiveFloatAdd", "bytecodePrimAdd",
                                  "pushReceiverVariable1"),
                            backends=(X86Backend,)),
             campaign_rows, "pushReceiverVariable1"),
    "sequences": (CampaignConfig(only=("seq:pushIntegerByte+sendIsNil",
                                       "seq:pushOne+pushTwo+bytecodePrimAdd")),
                  sequence_campaign_rows,
                  "seq:pushOne+pushTwo+bytecodePrimAdd"),
    "stitched": (CampaignConfig(only=(STITCHED,)), stitched_campaign_rows,
                 STITCHED),
}


@pytest.fixture(scope="module", params=sorted(CAMPAIGNS))
def campaign(request):
    """``(executed cells, reported cells)`` of one small campaign."""
    import repro.parallel.worker as worker

    config, plan, victim = CAMPAIGNS[request.param]
    executed = []
    execute_cell = worker.execute_cell

    def recording(*args):
        cell = execute_cell(*args)
        executed.append(cell)
        return cell

    patch = pytest.MonkeyPatch()
    patch.setattr(worker, "execute_cell", recording)
    # Every attempt of the victim's cell crashes: it is quarantined.
    fault = FaultPlan(stage="harness", instruction=victim,
                      compiler="StackToRegisterCogit")
    try:
        with inject_faults(fault):
            result = run_campaign(config, plan(config))
    finally:
        patch.undo()
    reported = [cell for report in result for cell in report.results]
    return executed, reported


def test_the_campaign_has_a_quarantine_and_differences(campaign):
    executed, _reported = campaign
    assert sum(cell.quarantined is not None for cell in executed) == 1
    assert any(cell.differing_paths for cell in executed)


def test_every_cell_equals_its_round_trip(campaign):
    executed, _reported = campaign
    for cell in executed:
        record = cell.to_record("key")
        again = CellResult.from_record(json.loads(json.dumps(record)))
        assert again == cell
        assert again.to_record("key") == record


def test_every_comparison_equals_its_round_trip(campaign):
    executed, _reported = campaign
    for cell in executed:
        for comparison in cell.comparisons:
            assert comparison.path_signature is not None
            again = ComparisonResult.from_record(
                comparison.to_record(), instruction=cell.instruction,
                kind=cell.kind, compiler=cell.compiler,
            )
            assert again == comparison


def test_reports_hold_the_executed_cells(campaign):
    executed, reported = campaign

    def by_key(cells):
        return {(cell.instruction, cell.compiler): cell for cell in cells}

    assert len(reported) == len(executed)
    assert by_key(reported) == by_key(executed)
