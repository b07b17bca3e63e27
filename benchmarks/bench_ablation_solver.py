"""Ablation — solver witness-search strategy (DESIGN.md §8).

The paper notes its "performance bottle-necks are in the constraint
solver" (Section 6).  Our from-scratch solver's key design choice is
the *backtracking* witness search that checks each literal as soon as
its variables are assigned; this ablation compares it against the naive
cartesian-product baseline on the real path conditions produced by
exploring a constraint-heavy native method.

Expected shape: backtracking is strictly faster (typically several-fold)
while returning the same SAT/UNSAT verdicts.
"""

from __future__ import annotations

import pytest

from repro import explore_native_method, primitive_named
from repro.concolic.solver import SolverContext, solve_raw
from repro.memory.bootstrap import bootstrap_memory


@pytest.fixture(scope="module")
def workload():
    """Path conditions from a constraint-heavy primitive + the context."""
    memory, _ = bootstrap_memory(heap_words=512)
    context = SolverContext.from_memory(memory)
    exploration = explore_native_method(primitive_named("primitiveAtPut"))
    conditions = [
        [constraint.literal for constraint in path.constraints]
        for path in exploration.paths
    ]
    assert len(conditions) >= 6
    return context, conditions


def _solve_all(context, conditions, strategy):
    # The raw engine, deliberately: this ablation compares witness-search
    # strategies, so the incremental layer's memo must stay out of the
    # measurement.
    return [
        solve_raw(literals, context, strategy=strategy) is not None
        for literals in conditions
    ]


def test_ablation_backtracking_search(benchmark, workload):
    context, conditions = workload
    verdicts = benchmark(lambda: _solve_all(context, conditions, "backtracking"))
    assert all(verdicts)  # recorded paths are all satisfiable


def test_ablation_product_search(benchmark, workload):
    context, conditions = workload
    # One timed run: the product search is the slow baseline, and
    # pytest-benchmark's calibration and rounds would multiply its cost.
    verdicts = benchmark.pedantic(
        _solve_all, args=(context, conditions, "product"),
        rounds=1, iterations=1,
    )
    # Identical verdicts: the strategies differ only in cost.
    assert verdicts == _solve_all(context, conditions, "backtracking")
