"""Figure 7 — test execution time per instruction, by compiler.

"All the byte-code compiler tests take in average ~little above 30 ms,
while native methods take in average ~little less than 100 ms.  Total
run times aggregates to ~10 seconds in total per set of tests" (paper
Section 5.4).

Shape to preserve: native-method instruction tests cost more than
byte-code compiler tests on average, and per-instruction test times
stay small enough for interactive use.
"""

from __future__ import annotations

import statistics

from benchmarks.conftest import (
    distribution_payload,
    write_artifact,
    write_json_artifact,
)
from repro import (
    BytecodeInstructionSpec,
    StackToRegisterCogit,
    bytecode_named,
)
from repro.difftest.runner import test_instruction as run_instruction_test
from repro.difftest.report import format_distributions, in_milliseconds
from repro.difftest.report import test_times as collect_test_times
from repro.difftest.runner import CampaignConfig


def test_fig7_single_instruction_test_time(benchmark):
    spec = BytecodeInstructionSpec(bytecode_named("bytecodePrimAdd"))
    config = CampaignConfig()

    def unit():
        return run_instruction_test(spec, StackToRegisterCogit, config)

    result = benchmark.pedantic(unit, rounds=3, iterations=1)
    assert result.curated_paths >= 5


def test_fig7_distributions(benchmark, campaign):
    distributions = benchmark(lambda: collect_test_times(campaign))
    write_artifact(
        "fig7_test_time.txt",
        format_distributions(
            "Differential test milliseconds per instruction (Fig. 7)",
            in_milliseconds(distributions),
        ),
    )
    write_json_artifact("fig7_test_time", distribution_payload(distributions))
    native = distributions["Native Methods (primitives)"]
    bytecode_means = [
        distributions[name].mean
        for name in (
            "SimpleStackBasedCogit",
            "StackToRegisterCogit",
            "RegisterAllocatingCogit",
        )
    ]
    # Native method tests have a higher average than byte-code tests.
    assert native.mean > statistics.mean(bytecode_means)
    # Everything stays interactive (paper: below the 100 ms bar; we
    # allow a generous envelope for the Python substrate).
    assert native.mean < 2.0
    for mean in bytecode_means:
        assert mean < 1.0
