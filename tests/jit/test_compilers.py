"""Compiler front-end tests: codegen strategies and equivalences.

These compile single instructions through each front-end and execute
them on the simulator directly (without the concolic machinery) to pin
down the machine-level behaviour of the generated code.
"""

from __future__ import annotations

import pytest

from repro.bytecode.methods import MethodBuilder, SymbolTable
from repro.bytecode.opcodes import bytecode_named
from repro.errors import NotImplementedInCompiler
from repro.interpreter.primitives import primitive_named
from repro.jit.compiler import CompilationUnit, NATIVE_FAILURE_MARKER, pc_marker
from repro.jit.machine import (
    Arm32Backend,
    CodeCache,
    MachineSimulator,
    OutcomeKind,
    TrampolineTable,
    X86Backend,
)
from repro.jit.machine.simulator import END_SENTINEL, STACK_TOP
from repro.jit.native_templates import NativeMethodCompiler
from repro.jit.register_allocating import RegisterAllocatingCogit
from repro.jit.simple_stack import SimpleStackBasedCogit
from repro.jit.stack_to_register import StackToRegisterCogit
from repro.memory.bootstrap import bootstrap_memory
from repro.memory.layout import MAX_SMALL_INT, WORD_SIZE

ALL_COGITS = [SimpleStackBasedCogit, StackToRegisterCogit, RegisterAllocatingCogit]


class JitWorld:
    """A VM + machine world for direct compiled-code execution."""

    def __init__(self, backend=None):
        self.memory, self.known = bootstrap_memory(heap_words=4096)
        self.symbols = SymbolTable(self.memory)
        self.backend = backend or X86Backend()
        self.code_cache = CodeCache()
        self.trampolines = TrampolineTable()
        self.trampolines.service(
            "ceAllocateFloat",
            lambda sim: sim.set("R0", self.memory.float_object_of(sim.fget("F0"))),
        )
        self.trampolines.service(
            "ceMakePoint", lambda sim: sim.set("R0", self._make_point(sim))
        )
        self.trampolines.service(
            "ceNewFixedInstance", lambda sim: self._new_fixed(sim)
        )
        self.trampolines.service(
            "ceNewVariableInstance", lambda sim: self._new_variable(sim)
        )
        self.simulator = MachineSimulator(
            self.memory.heap, self.code_cache, self.trampolines
        )

    def _make_point(self, sim):
        point = self.memory.instantiate(self.memory.class_table.named("Point"))
        self.memory.store_pointer(0, point, sim.get("R0") & 0xFFFFFFFF)
        self.memory.store_pointer(1, point, sim.get("R1") & 0xFFFFFFFF)
        return point

    def _new_fixed(self, sim):
        cls = self.memory.class_table.at(sim.get("R6"))
        sim.set("R0", 0 if cls.is_variable else self.memory.instantiate(cls))

    def _new_variable(self, sim):
        cls = self.memory.class_table.at(sim.get("R6"))
        if not cls.is_variable:
            sim.set("R0", 0)
        else:
            sim.set("R0", self.memory.instantiate(cls, sim.get("R7")))

    def bytecode_unit(self, name, input_stack=(), literals=(), operand=None):
        bytecode = bytecode_named(name)
        builder = MethodBuilder(self.memory, self.symbols).temps(16)
        for literal in literals:
            builder.literal(literal)
        builder.emit(bytecode.opcode)
        operands = ()
        if bytecode.family.operand_bytes:
            value = operand if operand is not None else 2
            builder.emit(value & 0xFF)
            operands = (value & 0xFF,)
        nop = bytecode_named("nop").opcode
        for _ in range(8):
            builder.emit(nop)
        return CompilationUnit(
            method=builder.build(),
            bytecode=bytecode,
            operands=operands,
            input_stack=tuple(input_stack),
        )

    def native_unit(self, name, input_stack):
        native = primitive_named(name)
        builder = MethodBuilder(self.memory, self.symbols).temps(16)
        return CompilationUnit(
            method=builder.build(),
            native=native,
            input_stack=tuple(input_stack),
        )

    def run_bytecode(self, compiler_class, unit, receiver=None, temps=()):
        compiler = compiler_class(
            self.memory, self.trampolines, self.code_cache, self.backend,
            self.symbols,
        )
        compiled = compiler.compile(unit)
        sim = self.simulator
        sim.reset()
        frame_base = STACK_TOP - (1 + 16) * WORD_SIZE
        sim.set("FP", frame_base)
        sim.set("SP", frame_base)
        sim.write_word(frame_base, receiver or self.memory.nil_object)
        for index in range(16):
            value = temps[index] if index < len(temps) else self.memory.nil_object
            sim.write_word(frame_base + WORD_SIZE * (1 + index), value)
        sim._push(END_SENTINEL)
        base = sim.get("SP")
        outcome = sim.run(compiled.entry)
        count = max(0, (base - sim.get("SP")) // WORD_SIZE)
        stack = [
            sim.read_word(sim.get("SP") + offset * WORD_SIZE)
            for offset in range(count)
        ]
        stack.reverse()
        return outcome, stack

    def run_native(self, name, receiver, args):
        native = primitive_named(name)
        unit = self.native_unit(name, [receiver, *args])
        compiler = NativeMethodCompiler(
            self.memory, self.trampolines, self.code_cache, self.backend
        )
        compiled = compiler.compile(unit)
        sim = self.simulator
        sim.reset()
        sim._push(END_SENTINEL)
        sim.set("R0", receiver)
        for index, value in enumerate(args):
            sim.set(f"R{index + 1}", value)
        return sim.run(compiled.entry)


@pytest.fixture
def world():
    return JitWorld()


def int_oop(world, value):
    return world.memory.integer_object_of(value)


class TestPushFamilies:
    @pytest.mark.parametrize("cogit", ALL_COGITS, ids=lambda c: c.name)
    def test_push_true_lands_on_stack(self, world, cogit):
        unit = world.bytecode_unit("pushTrue")
        outcome, stack = world.run_bytecode(cogit, unit)
        assert outcome.kind == OutcomeKind.STOPPED
        assert outcome.marker == pc_marker(1)
        assert stack == [world.memory.true_object]

    @pytest.mark.parametrize("cogit", ALL_COGITS, ids=lambda c: c.name)
    def test_input_stack_is_compiled_in(self, world, cogit):
        values = [int_oop(world, 7), int_oop(world, 8)]
        unit = world.bytecode_unit("nop", input_stack=values)
        _, stack = world.run_bytecode(cogit, unit)
        assert stack == values

    @pytest.mark.parametrize("cogit", ALL_COGITS, ids=lambda c: c.name)
    def test_push_temp(self, world, cogit):
        temp = int_oop(world, 42)
        unit = world.bytecode_unit("pushTemporaryVariable1")
        _, stack = world.run_bytecode(
            cogit, unit, temps=[int_oop(world, 0), temp]
        )
        assert stack == [temp]

    @pytest.mark.parametrize("cogit", ALL_COGITS, ids=lambda c: c.name)
    def test_push_literal(self, world, cogit):
        literal = int_oop(world, 31)
        unit = world.bytecode_unit("pushLiteralConstant0", literals=[literal])
        _, stack = world.run_bytecode(cogit, unit)
        assert stack == [literal]

    @pytest.mark.parametrize("cogit", ALL_COGITS, ids=lambda c: c.name)
    def test_dup_and_pop(self, world, cogit):
        one = int_oop(world, 1)
        unit = world.bytecode_unit("duplicateTop", input_stack=[one])
        _, stack = world.run_bytecode(cogit, unit)
        assert stack == [one, one]

    @pytest.mark.parametrize("cogit", ALL_COGITS, ids=lambda c: c.name)
    def test_pop_into_temp_writes_frame(self, world, cogit):
        value = int_oop(world, 9)
        unit = world.bytecode_unit(
            "popIntoTemporaryVariable2", input_stack=[value]
        )
        outcome, stack = world.run_bytecode(cogit, unit)
        assert stack == []
        frame_base = STACK_TOP - (1 + 16) * WORD_SIZE
        assert world.simulator.read_word(frame_base + WORD_SIZE * 3) == value

    @pytest.mark.parametrize("cogit", ALL_COGITS, ids=lambda c: c.name)
    def test_store_receiver_variable_hits_heap(self, world, cogit):
        receiver = world.memory.instantiate(world.known.plain_object)
        value = int_oop(world, 5)
        unit = world.bytecode_unit(
            "storeReceiverVariable1", input_stack=[value]
        )
        _, stack = world.run_bytecode(cogit, unit, receiver=receiver)
        assert world.memory.fetch_pointer(1, receiver) == value
        assert stack == [value]


class TestArithmetic:
    def test_s2r_inlines_integer_add(self, world):
        unit = world.bytecode_unit(
            "bytecodePrimAdd",
            input_stack=[int_oop(world, 2), int_oop(world, 3)],
        )
        outcome, stack = world.run_bytecode(StackToRegisterCogit, unit)
        assert outcome.kind == OutcomeKind.STOPPED
        assert stack == [int_oop(world, 5)]

    def test_simple_sends_for_add(self, world):
        """SimpleStackBasedCogit has no static type prediction."""
        unit = world.bytecode_unit(
            "bytecodePrimAdd",
            input_stack=[int_oop(world, 2), int_oop(world, 3)],
        )
        outcome, stack = world.run_bytecode(SimpleStackBasedCogit, unit)
        assert outcome.kind == OutcomeKind.TRAMPOLINE
        assert outcome.trampoline == "send:+/1"
        assert stack == [int_oop(world, 2), int_oop(world, 3)]

    def test_overflow_takes_send_path(self, world):
        unit = world.bytecode_unit(
            "bytecodePrimAdd",
            input_stack=[int_oop(world, MAX_SMALL_INT), int_oop(world, 1)],
        )
        outcome, stack = world.run_bytecode(StackToRegisterCogit, unit)
        assert outcome.kind == OutcomeKind.TRAMPOLINE
        assert len(stack) == 2  # operands preserved for the send

    def test_float_operands_take_send_path(self, world):
        """No compiler inlines float arithmetic (optimisation diff)."""
        a = world.memory.float_object_of(1.5)
        b = world.memory.float_object_of(2.0)
        unit = world.bytecode_unit("bytecodePrimAdd", input_stack=[a, b])
        outcome, _ = world.run_bytecode(StackToRegisterCogit, unit)
        assert outcome.kind == OutcomeKind.TRAMPOLINE

    def test_comparison_pushes_boolean(self, world):
        unit = world.bytecode_unit(
            "bytecodePrimLessThan",
            input_stack=[int_oop(world, -5), int_oop(world, 3)],
        )
        _, stack = world.run_bytecode(RegisterAllocatingCogit, unit)
        assert stack == [world.memory.true_object]

    def test_comparison_of_negatives(self, world):
        unit = world.bytecode_unit(
            "bytecodePrimGreaterOrEqual",
            input_stack=[int_oop(world, -5), int_oop(world, -5)],
        )
        _, stack = world.run_bytecode(StackToRegisterCogit, unit)
        assert stack == [world.memory.true_object]

    def test_integer_divide_floors(self, world):
        unit = world.bytecode_unit(
            "bytecodePrimIntegerDivide",
            input_stack=[int_oop(world, -7), int_oop(world, 2)],
        )
        _, stack = world.run_bytecode(StackToRegisterCogit, unit)
        assert stack == [int_oop(world, -4)]

    def test_modulo_floors(self, world):
        unit = world.bytecode_unit(
            "bytecodePrimModulo",
            input_stack=[int_oop(world, -7), int_oop(world, 2)],
        )
        _, stack = world.run_bytecode(StackToRegisterCogit, unit)
        assert stack == [int_oop(world, 1)]

    def test_multiply_overflow_detected(self, world):
        unit = world.bytecode_unit(
            "bytecodePrimMultiply",
            input_stack=[int_oop(world, 1 << 20), int_oop(world, 1 << 20)],
        )
        outcome, _ = world.run_bytecode(StackToRegisterCogit, unit)
        assert outcome.kind == OutcomeKind.TRAMPOLINE

    def test_bitand_negative_sends(self, world):
        unit = world.bytecode_unit(
            "bytecodePrimBitAnd",
            input_stack=[int_oop(world, -1), int_oop(world, 7)],
        )
        outcome, _ = world.run_bytecode(StackToRegisterCogit, unit)
        assert outcome.kind == OutcomeKind.TRAMPOLINE

    def test_identity_comparison(self, world):
        nil = world.memory.nil_object
        unit = world.bytecode_unit(
            "bytecodePrimIdenticalTo", input_stack=[nil, nil]
        )
        _, stack = world.run_bytecode(SimpleStackBasedCogit, unit)
        assert stack == [world.memory.true_object]


class TestJumpsAndReturns:
    @pytest.mark.parametrize("cogit", ALL_COGITS, ids=lambda c: c.name)
    def test_conditional_jump_taken(self, world, cogit):
        unit = world.bytecode_unit(
            "shortJumpIfTrue3", input_stack=[world.memory.true_object]
        )
        outcome, stack = world.run_bytecode(cogit, unit)
        assert outcome.marker == pc_marker(1 + 4)
        assert stack == []

    @pytest.mark.parametrize("cogit", ALL_COGITS, ids=lambda c: c.name)
    def test_conditional_jump_not_taken(self, world, cogit):
        unit = world.bytecode_unit(
            "shortJumpIfTrue3", input_stack=[world.memory.false_object]
        )
        outcome, _ = world.run_bytecode(cogit, unit)
        assert outcome.marker == pc_marker(1)

    def test_non_boolean_condition_calls_must_be_boolean(self, world):
        unit = world.bytecode_unit(
            "shortJumpIfFalse0", input_stack=[int_oop(world, 1)]
        )
        outcome, stack = world.run_bytecode(StackToRegisterCogit, unit)
        assert outcome.kind == OutcomeKind.TRAMPOLINE
        assert outcome.trampoline == "send:mustBeBoolean/0"
        assert stack == [int_oop(world, 1)]

    @pytest.mark.parametrize("cogit", ALL_COGITS, ids=lambda c: c.name)
    def test_return_top(self, world, cogit):
        value = int_oop(world, 11)
        unit = world.bytecode_unit("returnTop", input_stack=[value])
        outcome, _ = world.run_bytecode(cogit, unit)
        assert outcome.kind == OutcomeKind.RETURNED
        assert outcome.result & 0xFFFFFFFF == value

    def test_unconditional_jump(self, world):
        unit = world.bytecode_unit("shortJump4")
        outcome, _ = world.run_bytecode(SimpleStackBasedCogit, unit)
        assert outcome.marker == pc_marker(1 + 5)


class TestSends:
    @pytest.mark.parametrize("cogit", ALL_COGITS, ids=lambda c: c.name)
    def test_common_selector_send(self, world, cogit):
        array = world.memory.new_array([int_oop(world, 1)])
        unit = world.bytecode_unit(
            "sendAt", input_stack=[array, int_oop(world, 1)]
        )
        outcome, stack = world.run_bytecode(cogit, unit)
        assert outcome.trampoline == "send:at:/1"
        assert stack == [array, int_oop(world, 1)]

    def test_literal_selector_send(self, world):
        selector = world.symbols.intern("frobnicate:")
        unit = world.bytecode_unit(
            "sendLiteralSelector1Arg0",
            input_stack=[int_oop(world, 1), int_oop(world, 2)],
            literals=[selector],
        )
        outcome, _ = world.run_bytecode(StackToRegisterCogit, unit)
        assert outcome.trampoline == "send:frobnicate:/1"

    def test_is_nil_inlined_in_s2r(self, world):
        unit = world.bytecode_unit(
            "sendIsNil", input_stack=[world.memory.nil_object]
        )
        outcome, stack = world.run_bytecode(StackToRegisterCogit, unit)
        assert outcome.kind == OutcomeKind.STOPPED
        assert stack == [world.memory.true_object]

    def test_is_nil_sent_by_simple(self, world):
        unit = world.bytecode_unit(
            "sendIsNil", input_stack=[world.memory.nil_object]
        )
        outcome, _ = world.run_bytecode(SimpleStackBasedCogit, unit)
        assert outcome.trampoline == "send:isNil/0"


class TestNativeTemplates:
    def test_add_success_returns(self, world):
        outcome = world.run_native(
            "primitiveAdd", int_oop(world, 2), [int_oop(world, 3)]
        )
        assert outcome.kind == OutcomeKind.RETURNED
        assert outcome.result & 0xFFFFFFFF == int_oop(world, 5)

    def test_add_type_failure_hits_breakpoint(self, world):
        outcome = world.run_native(
            "primitiveAdd", world.memory.nil_object, [int_oop(world, 3)]
        )
        assert outcome.kind == OutcomeKind.STOPPED
        assert outcome.marker == NATIVE_FAILURE_MARKER

    def test_float_add_boxes_result(self, world):
        a = world.memory.float_object_of(1.25)
        b = world.memory.float_object_of(2.5)
        outcome = world.run_native("primitiveFloatAdd", a, [b])
        assert outcome.kind == OutcomeKind.RETURNED
        assert world.memory.float_value_of(outcome.result) == 3.75

    def test_float_add_missing_receiver_check_segfaults(self, world):
        """The paper's missing-compiled-type-check defect in action."""
        outcome = world.run_native(
            "primitiveFloatAdd",
            int_oop(world, 1),
            [world.memory.float_object_of(1.0)],
        )
        assert outcome.kind == OutcomeKind.FAULT

    def test_as_float_checks_receiver(self, world):
        outcome = world.run_native(
            "primitiveAsFloat", world.memory.nil_object, []
        )
        assert outcome.kind == OutcomeKind.STOPPED  # compiled code fails

    def test_bitand_accepts_negatives(self, world):
        """Behavioural difference: unsigned treatment of negatives."""
        outcome = world.run_native(
            "primitiveBitAnd", int_oop(world, -1), [int_oop(world, 7)]
        )
        assert outcome.kind == OutcomeKind.RETURNED

    def test_mod_uses_truncated_remainder(self, world):
        outcome = world.run_native(
            "primitiveMod", int_oop(world, -7), [int_oop(world, 2)]
        )
        assert outcome.kind == OutcomeKind.RETURNED
        # Wrong result: -1 instead of the interpreter's floored 1.
        assert outcome.result & 0xFFFFFFFF == int_oop(world, -1)

    def test_at_on_array(self, world):
        array = world.memory.new_array([int_oop(world, 10), int_oop(world, 20)])
        outcome = world.run_native("primitiveAt", array, [int_oop(world, 2)])
        assert outcome.kind == OutcomeKind.RETURNED
        assert outcome.result & 0xFFFFFFFF == int_oop(world, 20)

    def test_at_bounds_failure(self, world):
        array = world.memory.new_array([int_oop(world, 10)])
        outcome = world.run_native("primitiveAt", array, [int_oop(world, 2)])
        assert outcome.kind == OutcomeKind.STOPPED

    def test_at_put_writes_heap(self, world):
        array = world.memory.new_array([world.memory.nil_object])
        value = int_oop(world, 77)
        outcome = world.run_native(
            "primitiveAtPut", array, [int_oop(world, 1), value]
        )
        assert outcome.kind == OutcomeKind.RETURNED
        assert world.memory.fetch_pointer(0, array) == value

    def test_new_via_service(self, world):
        from repro.memory.bootstrap import make_behavior

        behavior = make_behavior(world.memory, world.known.point)
        outcome = world.run_native("primitiveNew", behavior, [])
        assert outcome.kind == OutcomeKind.RETURNED
        assert world.memory.class_of(outcome.result).name == "Point"

    def test_ffi_primitives_not_implemented(self, world):
        compiler = NativeMethodCompiler(
            world.memory, world.trampolines, world.code_cache, world.backend
        )
        unit = world.native_unit("primitiveFFIReadInt32", [])
        with pytest.raises(NotImplementedInCompiler):
            compiler.compile(unit)

    def test_truncated_fault_is_described(self, world):
        """The truncation template's wild access through R10 is an
        ordinary described fault now that the getter table is derived."""
        outcome = world.run_native(
            "primitiveFloatTruncated", int_oop(world, 3), []
        )
        assert outcome.kind == OutcomeKind.FAULT
        assert "base R10" in outcome.fault_reason

    def test_truncated_fault_with_seeded_gap_raises(self, world):
        """Re-seeding the historical R10/R11 describer gap (mutants
        R10/R11) restores the paper's Simulation Error behaviour."""
        from repro.errors import SimulationError
        from repro.jit.machine import MachineSimulator
        from repro.mutation import activated

        with activated(("R10", "R11")):
            world.simulator = MachineSimulator(
                world.memory.heap, world.code_cache, world.trampolines
            )
        with pytest.raises(SimulationError):
            world.run_native("primitiveFloatTruncated", int_oop(world, 3), [])


class TestBackendEquivalence:
    @pytest.mark.parametrize("name,stack_values", [
        ("bytecodePrimAdd", (4, 5)),
        ("bytecodePrimMultiply", (-3, 9)),
        ("bytecodePrimLessThan", (2, 2)),
        ("duplicateTop", (6,)),
    ])
    def test_x86_and_arm_agree(self, name, stack_values):
        results = []
        for backend in (X86Backend(), Arm32Backend()):
            world = JitWorld(backend)
            values = [world.memory.integer_object_of(v) for v in stack_values]
            unit = world.bytecode_unit(name, input_stack=values)
            outcome, stack = world.run_bytecode(StackToRegisterCogit, unit)
            results.append((outcome.kind, outcome.marker, tuple(stack)))
        assert results[0] == results[1]
