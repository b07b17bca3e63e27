"""Figure 6 — concolic execution time per kind of instruction.

"A single byte-code instruction takes in average ~600 ms to explore,
while native methods take in average ~1700 ms.  Total run time
aggregates to 3 and 4.5 minutes respectively" (paper Section 5.4).

Absolute numbers are not expected to match (our solver is not theirs
and our substrate is a simulator); the *shape* must: native methods
cost several times more exploration time than byte-codes, totals stay
in the practical-for-online-use range ("less than 10 minutes" for the
whole campaign).  The timings go to the untracked
``benchmarks/results/``; no golden holds them.
"""

from __future__ import annotations

from benchmarks.conftest import (
    distribution_payload,
    write_artifact,
    write_json_artifact,
)
from repro import (
    bytecode_named,
    explore_bytecode,
    explore_native_method,
    primitive_named,
)
from repro.difftest.report import (
    exploration_times,
    format_distributions,
    in_milliseconds,
)


def test_fig6_bytecode_exploration_time():
    result = explore_bytecode(bytecode_named("bytecodePrimAdd"))
    assert result.path_count >= 5


def test_fig6_native_exploration_time():
    result = explore_native_method(primitive_named("primitiveAt"))
    assert result.path_count >= 6


def test_fig6_distributions(instruction_cells):
    distributions = exploration_times(instruction_cells)
    write_artifact(
        "fig6_concolic_time.txt",
        format_distributions(
            "Concolic exploration milliseconds per instruction (Fig. 6)",
            in_milliseconds(distributions),
        ),
    )
    write_json_artifact("fig6_concolic_time", distribution_payload(distributions))
    bytecode = distributions["bytecode"]
    native = distributions["native"]
    # Native methods have more paths and thus cost more to explore.
    assert native.mean > bytecode.mean
    # Practical for on-line usage: whole-campaign exploration totals
    # stay minutes, not hours (paper: 3 + 4.5 minutes).
    assert sum(bytecode.values) < 300
    assert sum(native.values) < 600
