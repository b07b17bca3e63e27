"""Solver tests: satisfiable/unsatisfiable conjunctions and soundness.

The key property (checked exhaustively by construction and with
hypothesis) is *soundness*: any model the solver returns satisfies every
literal it was given.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concolic.solver import (
    KindTag,
    SolverContext,
    solve,
    solve_status,
    solve_status_raw,
)
from repro.concolic.terms import (
    Sort,
    compare,
    identical,
    int_binary,
    kind_predicate,
    not_,
    oop_attribute,
    var,
)
from repro.memory.bootstrap import bootstrap_memory
from repro.memory.layout import MAX_SMALL_INT, MIN_SMALL_INT


@pytest.fixture(scope="module")
def context():
    memory, _ = bootstrap_memory(heap_words=512)
    return SolverContext.from_memory(memory)


def v(name):
    return var(name, Sort.OOP)


def iv(name):
    return oop_attribute("int_value_of", v(name))


def raw(name):
    return var(name, Sort.INT)


class TestKinds:
    def test_small_int_kind(self, context):
        model = solve([kind_predicate("is_small_int", v("a"))], context)
        assert model is not None
        assert model.kind_of("a").tag == KindTag.SMALL_INT

    def test_conflicting_kinds_unsat(self, context):
        literals = [
            kind_predicate("is_small_int", v("a")),
            kind_predicate("is_float", v("a")),
        ]
        assert solve(literals, context) is None

    def test_negated_kind(self, context):
        model = solve([not_(kind_predicate("is_small_int", v("a")))], context)
        assert model is not None
        assert model.kind_of("a").tag != KindTag.SMALL_INT

    def test_all_kinds_excluded_unsat(self, context):
        literals = [
            not_(kind_predicate(p, v("a")))
            for p in ("is_small_int", "is_float", "is_nil", "is_true", "is_false")
        ]
        # Only OBJECT remains: satisfiable.
        model = solve(literals, context)
        assert model is not None
        assert model.kind_of("a").tag == KindTag.OBJECT

    def test_nil_kind(self, context):
        model = solve([kind_predicate("is_nil", v("a"))], context)
        assert model.kind_of("a").tag == KindTag.NIL


class TestArithmetic:
    def test_value_equation(self, context):
        literals = [
            kind_predicate("is_small_int", v("a")),
            compare("eq", iv("a"), 42),
        ]
        model = solve(literals, context)
        assert model.kind_of("a").value == 42

    def test_overflow_witness(self, context):
        """The paper's Table 1 row 2: a sum that overflows."""
        literals = [
            kind_predicate("is_small_int", v("a")),
            kind_predicate("is_small_int", v("b")),
            compare("gt", int_binary("add", iv("a"), iv("b")), MAX_SMALL_INT),
        ]
        model = solve(literals, context)
        assert model is not None
        total = model.kind_of("a").value + model.kind_of("b").value
        assert total > MAX_SMALL_INT

    def test_underflow_witness(self, context):
        literals = [
            kind_predicate("is_small_int", v("a")),
            kind_predicate("is_small_int", v("b")),
            compare("lt", int_binary("add", iv("a"), iv("b")), MIN_SMALL_INT),
        ]
        model = solve(literals, context)
        assert model is not None

    def test_contradictory_bounds_unsat(self, context):
        literals = [
            kind_predicate("is_small_int", v("a")),
            compare("gt", iv("a"), 10),
            compare("lt", iv("a"), 5),
        ]
        assert solve(literals, context) is None

    def test_exact_division_witness(self, context):
        literals = [
            kind_predicate("is_small_int", v("a")),
            kind_predicate("is_small_int", v("b")),
            compare("ne", iv("b"), 0),
            compare("eq", int_binary("mod", iv("a"), iv("b")), 0),
        ]
        model = solve(literals, context)
        assert model.kind_of("a").value % model.kind_of("b").value == 0

    def test_stack_size_variable(self, context):
        literals = [compare("gt", var("stack_size", Sort.INT), 1)]
        model = solve(literals, context)
        assert model.int_values["stack_size"] > 1


class TestObjects:
    def test_slot_count_requirement(self, context):
        literals = [
            not_(kind_predicate("is_small_int", v("a"))),
            compare("gt", oop_attribute("slot_count_of", v("a")), 3),
        ]
        model = solve(literals, context)
        assert model is not None
        kind = model.kind_of("a")
        assert model.context.slot_count_for_kind(kind) > 3

    def test_class_index_pinning(self, context):
        array_index = context.default_object_classes[1]
        literals = [
            compare("eq", oop_attribute("class_index_of", v("a")), array_index),
        ]
        model = solve(literals, context)
        assert model.context.class_index_for_kind(model.kind_of("a")) == array_index

    def test_format_constraint(self, context):
        # BYTES format is 4.
        literals = [
            not_(kind_predicate("is_small_int", v("a"))),
            compare("eq", oop_attribute("format_of", v("a")), 4),
        ]
        model = solve(literals, context)
        assert model.context.format_for_kind(model.kind_of("a")) == 4

    def test_small_int_class_index_forces_kind(self, context):
        literals = [
            compare(
                "eq",
                oop_attribute("class_index_of", v("a")),
                context.small_integer_class_index,
            ),
        ]
        model = solve(literals, context)
        assert model.kind_of("a").tag == KindTag.SMALL_INT


class TestIdentity:
    def test_aliasing(self, context):
        literals = [
            identical(v("a"), v("b")),
            kind_predicate("is_small_int", v("a")),
            compare("eq", iv("a"), 7),
        ]
        model = solve(literals, context)
        assert model.representative("b") == model.representative("a")
        assert model.kind_of("b").value == 7

    def test_distinctness(self, context):
        literals = [not_(identical(v("a"), v("b")))]
        model = solve(literals, context)
        assert model is not None

    def test_alias_and_distinct_conflict(self, context):
        literals = [
            identical(v("a"), v("b")),
            not_(identical(v("a"), v("b"))),
        ]
        assert solve(literals, context) is None

    def test_two_nils_cannot_differ(self, context):
        literals = [
            kind_predicate("is_nil", v("a")),
            kind_predicate("is_nil", v("b")),
            not_(identical(v("a"), v("b"))),
        ]
        assert solve(literals, context) is None


class TestSoundness:
    @given(
        bound=st.integers(min_value=-1000, max_value=1000),
        op=st.sampled_from(["lt", "le", "gt", "ge", "eq", "ne"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_models_satisfy_single_comparison(self, bound, op):
        memory, _ = bootstrap_memory(heap_words=256)
        context = SolverContext.from_memory(memory)
        literals = [
            kind_predicate("is_small_int", v("a")),
            compare(op, iv("a"), bound),
        ]
        model = solve(literals, context)
        assert model is not None
        assert model.satisfies(literals)

    @given(
        lower=st.integers(min_value=-500, max_value=0),
        spread=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=30, deadline=None)
    def test_models_satisfy_interval(self, lower, spread):
        memory, _ = bootstrap_memory(heap_words=256)
        context = SolverContext.from_memory(memory)
        literals = [
            kind_predicate("is_small_int", v("a")),
            compare("ge", iv("a"), lower),
            compare("le", iv("a"), lower + spread),
        ]
        model = solve(literals, context)
        assert model is not None
        assert lower <= model.kind_of("a").value <= lower + spread


class TestRefutationByBounds:
    def test_ffi_byte_read_is_refuted_without_search(self, context):
        """An FFI byte read negated against the 30-bit bound: a byte
        (``bitand(..., 255)``) can never exceed 1073741823, so the
        interval bounds refute it before a single witness is tried."""
        external_address = 16
        assert context.default_object_classes[4] == external_address
        byte = int_binary(
            "bitand",
            int_binary(
                "shr",
                raw("v2.raw"),
                int_binary("mul", int_binary("mod", iv("v1"), 4), 8),
            ),
            255,
        )
        literals = [
            compare("eq", oop_attribute("class_index_of", v("v0")),
                    external_address),
            compare("ge", int_binary("floordiv", iv("v1"), 4), 0),
            compare("gt", oop_attribute("slot_count_of", v("v0")),
                    int_binary("floordiv", iv("v1"), 4)),
            kind_predicate("is_small_int", v("v1")),
            not_(compare("ge", byte, 128)),
            not_(compare("gt", int_binary("add", iv("v1"), 1),
                         int_binary("mul",
                                    oop_attribute("slot_count_of", v("v0")),
                                    4))),
            not_(kind_predicate("is_small_int", v("v0"))),
            not_(kind_predicate("is_small_int", v("v0"))),
            not_(compare("le", byte, 1073741823)),
            not_(compare("lt", iv("v1"), 0)),
            not_(compare("ne", int_binary("mod", iv("v1"), 1), 0)),
        ]
        model, stats = solve_status(literals, context, cache=None)
        assert model is None
        assert stats.status == "unsat"
        assert stats.nodes == 0

    def test_product_strategy_is_not_pruned(self, context):
        """The ablation baseline keeps searching, so it stays an
        unpruned reference for the refutation."""
        literals = [
            compare("gt", int_binary("bitand", raw("v0.raw"), 255), 1000),
        ]
        fast, fast_stats = solve_status_raw(literals, context)
        slow, slow_stats = solve_status_raw(literals, context,
                                            strategy="product")
        assert fast is None and slow is None
        assert fast_stats.status == slow_stats.status == "unsat"
        assert fast_stats.nodes == 0 < slow_stats.nodes


class TestHashSeedIndependence:
    SCRIPT = (
        "import json\n"
        "from repro.concolic.solver import SolverContext, solve_status\n"
        "from repro.concolic.terms import Sort, compare, int_binary, var\n"
        "from repro.memory.bootstrap import bootstrap_memory\n"
        "memory, _ = bootstrap_memory(heap_words=512)\n"
        "context = SolverContext.from_memory(memory)\n"
        "total = int_binary('add', var('v0.raw', Sort.INT),\n"
        "                   var('v1.raw', Sort.INT))\n"
        "model, stats = solve_status([compare('gt', total, 0)], context)\n"
        "print(json.dumps([model.to_dict(), stats.nodes]))\n"
    )

    def test_witness_search_ignores_the_hash_seed(self):
        """Variables tied on constraint count are ordered by name, not
        by the iteration order of a set of strings: the same
        conjunction gets the same model and node count in every
        process."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        runs = []
        for seed in ("0", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                capture_output=True, text=True, check=True, env=env,
                timeout=120,
            )
            runs.append(proc.stdout)
        assert runs[0] == runs[1]
        model, nodes = json.loads(runs[0])
        assert model["int_values"] == {"v0.raw": 0, "v1.raw": 1}
