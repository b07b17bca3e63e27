"""Trace bookkeeping, abstract naming, snapshots and the GC exit."""

from __future__ import annotations

import pytest

from repro.concolic.abstract import AbstractFrameSpec, AbstractValue
from repro.concolic.explorer import (
    ConcolicExplorer,
    NativeMethodSpec,
    VMWorld,
)
from repro.concolic.snapshots import OutputSnapshot, describe_value, render_oop
from repro.concolic.terms import Sort, compare, not_, var
from repro.concolic.trace import PathConstraint, PathTrace
from repro.concolic.values import ConcolicInt, ConcolicOop
from repro.interpreter.exits import ExitCondition, ExitResult
from repro.interpreter.primitives import primitive_named
from repro.memory.bootstrap import bootstrap_memory


class TestPathConstraint:
    def test_literal_polarity(self):
        term = compare("lt", var("x", Sort.INT), 5)
        taken = PathConstraint(term, True)
        refused = PathConstraint(term, False)
        assert taken.literal is term
        assert refused.literal == not_(term)

    def test_negated_flips(self):
        term = compare("lt", var("x", Sort.INT), 5)
        constraint = PathConstraint(term, True)
        assert constraint.negated().taken is False
        assert constraint.negated().negated() == constraint

    def test_key_distinguishes_polarity(self):
        term = compare("lt", var("x", Sort.INT), 5)
        assert PathConstraint(term, True).key != PathConstraint(term, False).key


class TestPathTrace:
    def test_muting(self):
        trace = PathTrace()
        trace.muted = True
        trace.record(compare("lt", var("x", Sort.INT), 5), True)
        assert len(trace) == 0

    def test_describe(self):
        trace = PathTrace()
        assert trace.describe() == "(empty)"
        trace.record(compare("lt", var("x", Sort.INT), 5), False)
        assert trace.describe() == "not(lt(x, 5))"

    def test_literals(self):
        trace = PathTrace()
        term = compare("eq", var("x", Sort.INT), 0)
        trace.record(term, True)
        assert trace.literals() == [term]


class TestAbstractNaming:
    def test_deterministic_names(self):
        spec = AbstractFrameSpec(stack_slots=2, temp_slots=1)
        assert [v.name for v in spec.stack_values()] == ["stack0", "stack1"]
        assert [v.name for v in spec.temps()] == ["temp0"]
        assert spec.receiver.name == "recv"

    def test_slot_naming(self):
        value = AbstractValue("recv")
        assert value.slot(3).name == "recv.slot3"
        assert value.slot(3).slot(0).name == "recv.slot3.slot0"

    def test_variable_term(self):
        assert str(AbstractValue("stack0").variable) == "stack0"

    def test_all_values(self):
        spec = AbstractFrameSpec(stack_slots=1, temp_slots=2)
        names = [v.name for v in spec.all_values()]
        assert names == ["recv", "stack0", "temp0", "temp1"]


class TestSnapshots:
    @pytest.fixture
    def memory(self):
        return bootstrap_memory(heap_words=512)[0]

    def test_render_special_oops(self, memory):
        assert render_oop(memory, memory.nil_object) == "nil"
        assert render_oop(memory, memory.true_object) == "true"
        assert render_oop(memory, memory.integer_object_of(-9)) == "int(-9)"

    def test_render_float(self, memory):
        oop = memory.float_object_of(2.5)
        assert render_oop(memory, oop) == "float(2.5)"

    def test_render_object(self, memory):
        oop = memory.new_array([])
        assert render_oop(memory, oop).startswith("Array@")

    def test_render_garbage_is_safe(self, memory):
        assert render_oop(memory, 0xDEADBEE0).startswith("oop(")

    def test_describe_concolic_values(self, memory):
        described = describe_value(
            memory, ConcolicOop(memory.integer_object_of(4),
                                abstract=AbstractValue("stack0"))
        )
        assert described.symbolic == "stack0"
        assert described.rendered == "int(4)"
        raw = describe_value(memory, ConcolicInt(7, var("w.raw0", Sort.INT)))
        assert raw.symbolic == "w.raw0"

    def test_snapshot_describe(self):
        snapshot = OutputSnapshot(pc=3)
        assert "pc=3" in snapshot.describe()


class TestGarbageCollectionExit:
    def test_allocation_pressure_becomes_gc_exit(self):
        """The paper's suggested extra exit condition, implemented."""
        spec = NativeMethodSpec(primitive_named("primitiveFFIAllocate"))
        # A heap too small for the boundary-sized allocation the
        # exploration's bound-negation witnesses ask for (4095 bytes).
        explorer = ConcolicExplorer(spec, world=VMWorld(spec, heap_words=1024))
        result = explorer.explore()
        conditions = {p.exit.condition for p in result.paths}
        assert ExitCondition.NEEDS_GARBAGE_COLLECTION in conditions

    def test_gc_exit_is_expected_failure(self):
        assert ExitCondition.NEEDS_GARBAGE_COLLECTION.is_expected_failure

    def test_gc_exit_result_constructor(self):
        result = ExitResult.needs_garbage_collection("allocation of 3 words")
        assert result.condition == ExitCondition.NEEDS_GARBAGE_COLLECTION
        assert "3 words" in result.detail
