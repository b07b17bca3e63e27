"""Workers send ``cell_start`` heartbeats only under supervision.

The parent reads a heartbeat only to start a cell's wall clock, and
it keeps that clock only when an effective ``--cell-timeout`` is set
(explicitly, or derived from ``--deadline``).  Unsupervised, a worker
sends none; supervised, it sends one per cell it executes.  Neither
changes the report.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.difftest.report import format_table2, format_table3
from repro.difftest.runner import run_campaign
from tests.robustness.test_campaign_resilience import CONFIG, cell_summaries

PROFILED = replace(CONFIG, profile=True)


def heartbeats(result) -> int:
    return result.perf["counters"].get("supervision.heartbeats", 0)


def executed_cells(result) -> int:
    return sum(len(report.results) for report in result)


@pytest.fixture(scope="module")
def unsupervised():
    return run_campaign(PROFILED, jobs=2)


class TestHeartbeats:
    def test_unsupervised_run_sends_none(self, unsupervised):
        assert executed_cells(unsupervised) > 0
        assert heartbeats(unsupervised) == 0

    def test_supervised_run_sends_one_per_executed_cell(self, unsupervised):
        for supervised in (replace(PROFILED, cell_timeout_seconds=30.0),
                           replace(PROFILED, deadline_seconds=600.0)):
            result = run_campaign(supervised, jobs=2)
            assert heartbeats(result) == executed_cells(result) > 0
            assert format_table2(result) == format_table2(unsupervised)
            assert format_table3(result) == format_table3(unsupervised)
            assert cell_summaries(result) == cell_summaries(unsupervised)
