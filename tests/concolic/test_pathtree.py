"""Unit tests for the prefix-sharing path tree and its snapshot store."""

from __future__ import annotations

from repro import perf
from repro.bytecode.opcodes import bytecode_named
from repro.concolic.explorer import (
    BytecodeInstructionSpec,
    ConcolicExplorer,
    NativeMethodSpec,
)
from repro.concolic.pathtree import PathTree, SnapshotStore, model_fingerprint
from repro.concolic.solver.model import Model
from repro.concolic.solver import SolverContext
from repro.interpreter.primitives import primitive_named
from repro.memory.bootstrap import bootstrap_memory

_memory, _ = bootstrap_memory(heap_words=512)
_CONTEXT = SolverContext.from_memory(_memory)


def make_model():
    return Model(_CONTEXT)


class FakePath:
    def __init__(self, *keys):
        self.signature = tuple(keys)


K1 = ("is_small_int(recv)", True)
K2 = ("is_small_int(recv)", False)
K3 = ("gt(slot_count_of(recv), 0)", True)


class TestPathTree:
    def test_insert_creates_one_node_per_branch_point(self):
        tree = PathTree()
        assert tree.insert(FakePath(K2, K3)) == 2
        assert tree.node_count == 2
        assert tree.max_depth == 2

    def test_shared_prefixes_share_nodes(self):
        tree = PathTree()
        tree.insert(FakePath(K2, K3))
        created = tree.insert(FakePath(K2, (K3[0], False)))
        assert created == 1  # only the divergent leaf is new
        assert tree.node_count == 3

    def test_covers_realized_prefixes_only(self):
        tree = PathTree()
        path = FakePath(K2, K3)
        tree.insert(path, fingerprint=("fp",))
        node = tree.covers((K2,))
        assert node is not None
        assert node.realized_by is path
        assert node.fingerprint == ("fp",)
        assert tree.covers((K1,)) is None
        assert tree.covers((K2, K3, K1)) is None
        assert tree.subsumed == 1  # only the realized answer counted

    def test_walk_finds_exact_nodes(self):
        tree = PathTree()
        tree.insert(FakePath(K2, K3))
        assert tree.walk((K2,)).depth == 1
        assert tree.walk((K2, K3)).depth == 2
        assert tree.walk((K3,)) is None

    def test_empty_signature_inserts_nothing(self):
        tree = PathTree()
        assert tree.insert(FakePath()) == 0
        assert tree.node_count == 0
        assert tree.max_depth == 0


class TestSnapshotStore:
    def test_replay_counts_reuse(self):
        store = SnapshotStore()
        path = FakePath(K1)
        assert store.get(("fp",)) is None
        store.put(("fp",), path)
        assert store.get(("fp",)) is path
        assert store.get(("fp",)) is path
        assert store.reused == 2
        assert len(store) == 1


class TestModelFingerprint:
    def test_empty_models_agree(self):
        assert model_fingerprint(make_model()) == model_fingerprint(make_model())

    def test_differing_assignments_differ(self):
        a, b = make_model(), make_model()
        a.int_values["recv"] = 5
        b.int_values["recv"] = 6
        assert model_fingerprint(a) != model_fingerprint(b)
        c = make_model()
        c.int_values["recv"] = 5
        assert model_fingerprint(a) == model_fingerprint(c)


class TestExplorerIntegration:
    def test_explore_builds_the_tree(self):
        explorer = ConcolicExplorer(
            BytecodeInstructionSpec(bytecode_named("pushReceiverVariable0"))
        )
        result = explorer.explore()
        tree = explorer.tree
        assert tree is not None
        assert tree.max_depth == max(len(p.signature) for p in result.paths)
        # Every recorded path is realized in the tree.
        for path in result.paths:
            node = tree.walk(path.signature)
            assert node is not None and node.realized_by is not None

    def test_heap_returns_to_base_state_after_exploration(self):
        explorer = ConcolicExplorer(NativeMethodSpec(primitive_named("primitiveAt")))
        base = explorer.memory.heap.snapshot()
        explorer.explore()
        assert explorer.memory.heap.snapshot() == base
        assert explorer.memory.heap.journaling

    def test_snapshot_counters_are_recorded(self):
        perf.enable()
        try:
            explorer = ConcolicExplorer(
                NativeMethodSpec(primitive_named("primitiveAt"))
            )
            result = explorer.explore()
            snap = perf.snapshot()
        finally:
            perf.disable()
        counters = snap["counters"]
        # One fresh execution per snapshot.create; reuse covers the rest.
        assert counters["snapshot.create"] >= len(result.paths)
        assert counters["snapshot.restore"] == counters["snapshot.create"]
        assert counters["snapshot.reuse"] > 0
        assert snap["gauges"]["pathtree.depth"] == explorer.tree.max_depth
        assert snap["gauges"]["pathtree.nodes"] == explorer.tree.node_count
