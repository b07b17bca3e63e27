"""Equivalence suite: the path-tree explorer is exactly ``explore_raw``.

The prefix-sharing tree and the snapshot store are pure optimizations;
the contract (asserted here, property-based over the instruction
corpus) is that ``ConcolicExplorer.explore`` and
``ConcolicExplorer.explore_raw`` agree on everything except wall-clock:
path signatures *in order*, input models, exit conditions, every
iteration-independent :class:`ExplorationResult` counter, and the
curated path sets the differential tester ultimately consumes.  Every
campaign explores with the tree; ``explore_raw`` is kept only as the
reference these properties compare it against.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode.opcodes import testable_bytecodes
from repro.concolic.explorer import (
    BytecodeInstructionSpec,
    ConcolicExplorer,
    NativeMethodSpec,
)
from repro.difftest.curation import curate_paths
from repro.interpreter.primitives import testable_primitives

BYTECODES = testable_bytecodes()
NATIVES = testable_primitives()


def assert_equivalent(spec, **kwargs):
    tree = ConcolicExplorer(spec, **kwargs).explore()
    raw = ConcolicExplorer(spec, **kwargs).explore_raw()
    assert [p.signature for p in tree.paths] == [p.signature for p in raw.paths]
    assert [p.model.to_dict() for p in tree.paths] == [
        p.model.to_dict() for p in raw.paths
    ]
    assert [p.exit.condition for p in tree.paths] == [
        p.exit.condition for p in raw.paths
    ]
    assert [p.output.heap_writes for p in tree.paths] == [
        p.output.heap_writes for p in raw.paths
    ]
    assert tree.iterations == raw.iterations
    assert tree.unsat_prefixes == raw.unsat_prefixes
    assert tree.duplicate_paths == raw.duplicate_paths
    assert tree.budget_exhausted == raw.budget_exhausted
    assert [p.signature for p in curate_paths(tree.paths)] == [
        p.signature for p in curate_paths(raw.paths)
    ]
    return tree, raw


class TestInstructionEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(index=st.integers(0, len(BYTECODES) - 1))
    def test_bytecodes(self, index):
        assert_equivalent(BytecodeInstructionSpec(BYTECODES[index]))

    @settings(max_examples=10, deadline=None)
    @given(index=st.integers(0, len(NATIVES) - 1))
    def test_natives(self, index):
        assert_equivalent(NativeMethodSpec(NATIVES[index]))

    @settings(max_examples=10, deadline=None)
    @given(
        index=st.integers(0, len(NATIVES) - 1),
        max_iterations=st.integers(1, 60),
        max_paths=st.integers(1, 16),
    )
    def test_natives_under_truncated_budgets(self, index, max_iterations, max_paths):
        """Budget caps cut both loops at the same iteration.

        Subsumed prefixes consume an iteration exactly like the solver
        call they replace, so a ``max_iterations``/``max_paths`` cap
        lands on the same worklist entry in both explorers.
        """
        assert_equivalent(
            NativeMethodSpec(NATIVES[index]),
            max_iterations=max_iterations,
            max_paths=max_paths,
        )
