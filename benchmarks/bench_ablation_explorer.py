"""Ablation — path-tree explorer vs the from-the-root loop.

The prefix-sharing path tree (docs/EXPLORATION.md, DESIGN.md §15)
answers already-realized constraint prefixes from copy-on-write
snapshots instead of re-solving and re-executing them.  This ablation
runs both explorers over the same constraint-heavy workload, asserts
the recorded paths are identical *in order*, and writes the measured
speedup as ``BENCH_explorer_ablation.json``.

Expected shape: the tree explorer is strictly faster (the subsumed
solver calls and replayed executions are pure savings) with byte
identical exploration results.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import write_artifact, write_json_artifact
from repro.bytecode.opcodes import bytecode_named
from repro.concolic.explorer import (
    BytecodeInstructionSpec,
    ConcolicExplorer,
    NativeMethodSpec,
)
from repro.interpreter.primitives import primitive_named

#: Branch-heavy instructions where prefixes actually get shared; the
#: bytecodes sanity-check the shallow end of the distribution.
WORKLOAD = (
    NativeMethodSpec(primitive_named("primitiveAt")),
    NativeMethodSpec(primitive_named("primitiveAtPut")),
    NativeMethodSpec(primitive_named("primitiveStringAt")),
    NativeMethodSpec(primitive_named("primitiveAdd")),
    BytecodeInstructionSpec(bytecode_named("bytecodePrimAdd")),
    BytecodeInstructionSpec(bytecode_named("bytecodePrimDivide")),
)

REPETITIONS = 5


def _explore_all(raw: bool) -> list:
    signatures = []
    for spec in WORKLOAD:
        explorer = ConcolicExplorer(spec)
        result = explorer.explore_raw() if raw else explorer.explore()
        signatures.append([path.signature for path in result.paths])
    return signatures


def _best_of(runs: int, raw: bool) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        _explore_all(raw)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def raw_signatures():
    return _explore_all(raw=True)


def test_ablation_pathtree_explorer(benchmark, raw_signatures):
    signatures = benchmark(lambda: _explore_all(raw=False))
    # The tree explorer records the same paths in the same order.
    assert signatures == raw_signatures


def test_ablation_raw_loop(benchmark, raw_signatures):
    signatures = benchmark(lambda: _explore_all(raw=True))
    assert signatures == raw_signatures


def test_ablation_artifact(raw_signatures):
    tree_seconds = _best_of(REPETITIONS, raw=False)
    raw_seconds = _best_of(REPETITIONS, raw=True)
    payload = {
        "workload_instructions": len(WORKLOAD),
        "repetitions": REPETITIONS,
        "tree_seconds": round(tree_seconds, 6),
        "raw_seconds": round(raw_seconds, 6),
        "speedup": round(raw_seconds / tree_seconds, 3),
        "paths": sum(len(sigs) for sigs in raw_signatures),
    }
    write_json_artifact("explorer_ablation", payload)
    write_artifact(
        "explorer_ablation.txt",
        "Explorer ablation (path tree vs from-the-root loop)\n"
        f"  workload: {payload['workload_instructions']} instructions, "
        f"{payload['paths']} paths\n"
        f"  path tree: {payload['tree_seconds']:.3f}s  "
        f"raw: {payload['raw_seconds']:.3f}s  "
        f"speedup: {payload['speedup']:.2f}x",
    )
    # The tree never loses: every subsumed solve is a strict saving.
    assert payload["speedup"] >= 1.0
