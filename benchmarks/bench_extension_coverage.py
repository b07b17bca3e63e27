"""Extension — concolic exhaustiveness vs the random-testing baseline.

The paper argues interpreter-guided generation is "more exhaustive"
than existing black-box approaches (random/fuzzed program generation,
Section 6) and than hand-written tests (Section 5.3).  This benchmark
quantifies that: for instructions with guarded paths (type + alignment
+ bounds checks), N random inputs reach only a fraction of the paths
the concolic exploration enumerates exhaustively with far fewer
executions.

Also exercises the byte-code *sequence* extension (the paper's future
work): the interesting-sequence corpus must test clean against the
production compiler.  Both listings must equal their goldens.
"""

from __future__ import annotations

from benchmarks.conftest import check_golden
from repro import NativeMethodSpec, StackToRegisterCogit, primitive_named
from repro.concolic.sequences import interesting_sequences
from repro.difftest.fuzz import measure_path_coverage
from repro.difftest.runner import CampaignConfig
from repro.difftest.runner import test_instruction as run_instruction_test
from repro.jit.machine.x86 import X86Backend

#: Instructions whose guard structure random testing struggles with.
GUARDED_PRIMITIVES = (
    "primitiveAt",
    "primitiveAtPut",
    "primitiveFFIReadInt16",
    "primitiveFFIWriteInt32",
    "primitiveNewWithArg",
)

RANDOM_BUDGET = 100


def test_extension_concolic_vs_random_coverage():
    reports = [
        measure_path_coverage(
            NativeMethodSpec(primitive_named(name)),
            random_tests=RANDOM_BUDGET,
        )
        for name in GUARDED_PRIMITIVES
    ]
    lines = [
        f"{'Instruction':26s} {'concolic':>9s} {'iters':>6s} "
        f"{'random/100':>11s} {'coverage':>9s}"
    ]
    for report in reports:
        lines.append(
            f"{report.instruction:26s} {report.concolic_paths:9d} "
            f"{report.concolic_iterations:6d} {report.covered_paths:11d} "
            f"{report.coverage * 100:8.0f}%"
        )
    check_golden("extension_coverage.txt", "\n".join(lines))

    # Concolic enumerates every path; the random baseline misses some
    # on at least one guarded instruction even with 100x the budget of
    # a single exploration sweep.
    assert any(report.coverage < 1.0 for report in reports)
    # And never finds a path concolic missed (exhaustiveness).
    assert all(report.new_signatures == 0 for report in reports)


def test_extension_sequences_clean_on_production_compiler():
    config = CampaignConfig(backends=(X86Backend,))
    results = [
        run_instruction_test(spec, StackToRegisterCogit, config)
        for spec in interesting_sequences()
    ]
    lines = ["Sequence corpus vs StackToRegisterCogit (x86):"]
    for result in results:
        lines.append(
            f"  {result.instruction:60s} paths={result.curated_paths} "
            f"diff={result.differing_paths}"
        )
    check_golden("extension_sequences.txt", "\n".join(lines))
    assert all(result.differing_paths == 0 for result in results)
