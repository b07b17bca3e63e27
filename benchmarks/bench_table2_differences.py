"""Table 2 — differences found per compiler.

Paper Table 2:

    Compiler                        #Instr  #Paths  #Curated  #Differences
    Native Methods (primitives)        112    2024      1520  440 (28.95%)
    Simple Stack BC Compiler           175    1308      1136   18 (1.59%)
    Stack-to-Register BC Compiler      175    1308      1136   10 (0.88%)
    Linear-Scan Allocator BC Compiler  175    1308      1136   10 (0.88%)
    Total                              462    4640      4582  468 (32.29%)

The shape that must hold in the reproduction: native methods dominate
the differences by an order of magnitude; the two register compilers
find the *same* differences; the simple compiler finds strictly more;
absolute path counts differ because our primitive set is smaller than
Pharo's.

The benchmark runs one representative unit — the full differential
test of one native method across both ISAs; the full table comes from
the session-cached campaign and must equal its golden.  So must the
Table 2 of each extension plan, which is what ``repro campaign
--sequences --no-cache`` and ``repro campaign --stitch --no-cache``
print.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import EXTENSION_PLANS, check_golden
from repro import NativeMethodCompiler, NativeMethodSpec, primitive_named
from repro.difftest.report import format_table2
from repro.difftest.runner import CampaignConfig
from repro.difftest.runner import test_instruction as run_instruction_test


def test_table2_differences_per_compiler(campaign):
    spec = NativeMethodSpec(primitive_named("primitiveFloatAdd"))
    result = run_instruction_test(spec, NativeMethodCompiler, CampaignConfig())
    assert result.differing_paths > 0  # the missing receiver check

    check_golden("table2.txt", format_table2(campaign))

    by_name = {report.compiler: report for report in campaign}
    native = by_name["Native Methods (primitives)"]
    simple = by_name["SimpleStackBasedCogit"]
    s2r = by_name["StackToRegisterCogit"]
    linear = by_name["RegisterAllocatingCogit"]

    # Who wins, by roughly what factor (paper: 440 vs 18/10/10).
    assert native.differing_paths > 10 * s2r.differing_paths
    assert s2r.differing_paths == linear.differing_paths
    assert simple.differing_paths > s2r.differing_paths
    # Production compiler: ~1% of curated paths differ (paper: 0.88%).
    assert s2r.difference_percentage < 5.0
    # Scale: hundreds of differences in total, as in the paper.
    total = sum(r.differing_paths for r in campaign)
    assert total >= 100


@pytest.mark.parametrize("plan", sorted(EXTENSION_PLANS))
def test_table2_extension_plan(plan, extension_campaigns):
    check_golden(f"table2_{plan}.txt",
                 format_table2(extension_campaigns[plan]))
