"""Mutants R10/R11 seed the paper's Simulation Error family exactly.

The two simulator mutants are the one way to re-seed the historical
fault-describer defect (paper Table 3, "Simulation Error").  They
replaced a ``CampaignConfig`` knob that removed the same getters
through a simulator constructor argument.  Before the knob was
removed (commit 508d53c), the knob run and the mutant run of the scope
below gave the same 48 comparison records.  The SHA-256 of their
records as sorted-key JSON lines (each comparison's record plus the
cell's instruction and compiler) joined by ``\\n`` was recorded then,
under ``PYTHONHASHSEED`` 0 and 7 and at ``-j 1`` and ``-j 2``; it is
pinned here so the mutants must keep reproducing those records.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.difftest.report import format_table3
from repro.difftest.runner import CampaignConfig, run_campaign
from repro.mutation.recall import campaign_fingerprint

#: The seeded-flood scenario of tests/triage/test_campaign_triage.py:
#: the three natives whose faults need R10/R11 in their descriptions.
SCOPE = ("primitiveFloatTruncated", "primitiveMod", "primitiveConstantFill")

#: Digest of the knob-seeded (and mutant-seeded) scope campaign.
SEEDED_DIGEST = (
    "d48ddea0dd8cf9b79596b4b6415ca31417dcb38b5e62026913e0a264cd742711"
)


def json_lines(result) -> list:
    """One sorted-key JSON line per comparison: its record plus the
    cell's instruction and compiler, in plan order."""
    lines = []
    for report in result:
        for cell in report.results:
            for comparison in cell.comparisons:
                record = dict(comparison.to_record())
                record["instruction"] = cell.instruction
                record["compiler"] = cell.compiler
                lines.append(json.dumps(record, sort_keys=True))
    return lines


def digest(result) -> str:
    lines = json_lines(result)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def simulation_errors(result) -> int:
    row = next(line for line in format_table3(result).splitlines()
               if line.startswith("simulation error"))
    return int(row.split()[-1])


@pytest.fixture(scope="module")
def via_mutants():
    return run_campaign(CampaignConfig(
        only=SCOPE, max_paths_per_instruction=16, mutants=("R10", "R11"),
    ))


class TestFidelity:
    def test_records_match_the_recorded_digest(self, via_mutants):
        assert len(campaign_fingerprint(via_mutants)) == 48
        assert digest(via_mutants) == SEEDED_DIGEST

    def test_table3_shows_the_simulation_error(self, via_mutants):
        assert simulation_errors(via_mutants) == 1

    def test_gap_actually_seeded(self, via_mutants):
        # The historical defect surfaces as simulation errors — the
        # mutated campaign must actually differ from a clean one.
        clean = run_campaign(CampaignConfig(
            only=SCOPE, max_paths_per_instruction=16,
        ))
        assert simulation_errors(clean) == 0
        assert digest(clean) != digest(via_mutants)
