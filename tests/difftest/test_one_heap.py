"""One heap per shard: an instruction is explored and tested in one world.

A ``-j 1`` campaign bootstraps object memory once per instruction: the
shard's :class:`~repro.concolic.explorer.VMWorld`, in which the
exploration runs and every compiler cell then tests.  A cell whose
first attempt fails adds exactly one more: the reduced-budget retry
explores and tests in one private world.
"""

from __future__ import annotations

import sys

import pytest

from repro.difftest.runner import (
    BYTECODE_COMPILERS,
    CampaignConfig,
    campaign_rows,
    run_campaign,
    sequence_campaign_rows,
)
from repro.memory import bootstrap
from repro.robustness.faults import FaultPlan, inject_faults

MAIN = CampaignConfig(max_bytecodes=2, max_natives=2)
SEQUENCES = CampaignConfig(only=("seq:pushOne+pushTwo+bytecodePrimAdd",
                                 "seq:pushZero+popStackTop"))


@pytest.fixture
def bootstraps(monkeypatch) -> list:
    """Every ``bootstrap_memory`` call, through whichever module the
    caller imported it from."""
    original = bootstrap.bootstrap_memory
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("heap_words"))
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("bootstrap_memory") is original:
            monkeypatch.setattr(module, "bootstrap_memory", counting)
    return calls


def instructions(rows) -> int:
    return len({spec.name for row in rows for spec in row.specs})


@pytest.mark.parametrize("config, plan", [
    (MAIN, campaign_rows), (SEQUENCES, sequence_campaign_rows),
], ids=["main", "sequences"])
def test_one_bootstrap_per_explored_instruction(bootstraps, config, plan):
    rows = plan(config)
    assert instructions(rows) >= 2
    run_campaign(config, rows)
    assert len(bootstraps) == instructions(rows)


@pytest.mark.parametrize("stage, compiler", [
    ("explore", None), ("harness", BYTECODE_COMPILERS[0].name),
])
def test_a_retried_cell_adds_one_private_world(bootstraps, stage, compiler):
    rows = sequence_campaign_rows(SEQUENCES)
    fault = FaultPlan(stage=stage, times=1, instruction=SEQUENCES.only[0],
                      compiler=compiler)
    with inject_faults(fault):
        result = run_campaign(SEQUENCES, rows)
    retried = [
        cell for report in result for cell in report.results if cell.retries
    ]
    assert len(retried) == 1 and not result.quarantine
    assert len(bootstraps) == instructions(rows) + 1
