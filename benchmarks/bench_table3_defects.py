"""Table 3 — summary of found defects, grouped by root cause.

Paper Table 3:

    Missing interpreter type check    1
    Missing compiled type check      13
    Optimisation difference          10
    Behavioral difference             5
    Missing Functionality            60
    Simulation Error                  2
    Total                            91

The reproduction classifies every difference from the campaign through
the rule-based encoding of the paper's manual analysis; every one of
the six families must be populated, with missing functionality
dominating and exactly one missing-interpreter-check cause
(primitiveAsFloat).  The table and its cause inventory must equal their
golden, as must those of each extension plan.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import EXTENSION_PLANS, check_golden
from repro.difftest.defects import DefectCategory, category_summary, classify
from repro.difftest.report import cause_listing, format_table3
from repro.difftest.runner import all_comparisons


def render_table3(reports) -> str:
    return (format_table3(reports) + "\n\nCause inventory:\n"
            + cause_listing(reports))


def test_table3_defect_families(campaign):
    comparisons = all_comparisons(campaign)
    differences = [c for c in comparisons if c.is_difference]
    defects = [classify(difference) for difference in differences]
    assert len(defects) == len(differences)

    check_golden("table3.txt", render_table3(campaign))

    summary = category_summary(comparisons)
    # Exactly one missing interpreter check: primitiveAsFloat.
    assert summary[DefectCategory.MISSING_INTERPRETER_TYPE_CHECK] == 1
    # Float receiver unboxing: on the order of the paper's 13.
    assert 8 <= summary[DefectCategory.MISSING_COMPILED_TYPE_CHECK] <= 16
    # Optimisation differences: float non-inlining dominates (paper: 10).
    assert summary[DefectCategory.OPTIMISATION_DIFFERENCE] >= 10
    # Behavioural: 4 bit-wise + truncated mod (paper: 5).
    assert summary[DefectCategory.BEHAVIOURAL_DIFFERENCE] == 5
    # Missing functionality dominates (paper: 60 of 91).
    assert summary[DefectCategory.MISSING_FUNCTIONALITY] >= 40
    missing = summary[DefectCategory.MISSING_FUNCTIONALITY]
    total = sum(summary.values())
    assert missing > total / 2
    # The two reflective-getter simulation errors.
    assert summary[DefectCategory.SIMULATION_ERROR] == 2
    # Nothing escaped classification.
    assert summary.get(DefectCategory.UNCLASSIFIED, 0) == 0
    # Total cause count in the paper's ballpark (91).
    assert 60 <= total <= 120


@pytest.mark.parametrize("plan", sorted(EXTENSION_PLANS))
def test_table3_extension_plan(plan, extension_campaigns):
    check_golden(f"table3_{plan}.txt",
                 render_table3(extension_campaigns[plan]))
