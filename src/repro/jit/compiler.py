"""Base byte-code compiler (Cogit) and the compilation-unit model.

Compilation schema (paper Section 4.2): the unit of compilation is a
method; the operand-stack shape required by the instruction under test
is guaranteed by *prepending push-literal IR* for each input stack
value; the instruction's own IR follows; an epilogue of per-pc Stop
markers detects where execution fell through (each byte-code pc ``p``
maps to marker ``100 + p``, so jump targets are observable).

Machine frame convention (set up by the differential tester):

* ``FP + 0`` — receiver oop; ``FP + 4(1+i)`` — temporary *i*;
* the operand stack is the machine stack below the return-address
  sentinel; input operands are *compiled in* as pushed literals.

Subclasses implement the operand-stack strategy (the very thing that
distinguishes SimpleStackBasedCogit from StackToRegisterCogit) and set
inlining flags; all byte-code family generators live here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.bytecode.methods import CompiledMethod
from repro.bytecode.opcodes import Bytecode
from repro.errors import CompilerError
from repro.interpreter.primitives import NativeMethod
from repro.jit.ir import IRBuilder
from repro.jit.machine.isa import MachineInstruction
from repro.jit.machine.simulator import TrampolineTable
from repro.memory.layout import MAX_SMALL_INT, MIN_SMALL_INT

#: Stop markers: native-method failure fall-through, plus 100 + pc for
#: byte-code fall-through points.
NATIVE_FAILURE_MARKER = 1
PC_MARKER_BASE = 100


def pc_marker(pc: int) -> int:
    return PC_MARKER_BASE + pc


@dataclass(frozen=True)
class CompilationUnit:
    """Everything a front-end needs to compile one instruction test."""

    method: CompiledMethod
    #: Byte-code under test (exclusive with native).
    bytecode: Bytecode | None = None
    #: Decoded operand bytes of the byte-code.
    operands: tuple = ()
    native: NativeMethod | None = None
    #: Concrete input operand stack, bottom to top (compiled as
    #: prepended push-literals for byte-code tests).
    input_stack: tuple = ()
    #: For sequence tests: ((bytecode, operands), ...) replacing the
    #: single instruction; jump targets resolve within the sequence.
    sequence: tuple = ()


def _signed_byte(value: int) -> int:
    return value - 256 if value >= 128 else value


class BytecodeCogit:
    """Shared machinery and byte-code generators for the three Cogits."""

    name = "abstract"
    #: Static type prediction for binary integer arithmetic (+ - * / \\ //).
    inline_int_arithmetic = True
    #: Inlined integer comparisons.
    inline_int_comparisons = True
    #: Inlined #isNil test.
    inline_is_nil = True
    # NOTE: none of the compilers inline *float* arithmetic/comparisons,
    # while the interpreter does — the paper's Optimisation Difference
    # defect family ("the productive StackToRegisterMappingCogit ...
    # inline only integer arithmetics but not floating point").

    # Register conventions within generated instruction code.
    RCVR = "R1"
    ARG = "R2"
    TMP_A = "R5"
    TMP_B = "R6"
    TMP_C = "R3"
    TMP_D = "R4"

    def __init__(self, memory, trampolines: TrampolineTable,
                 symbols=None) -> None:
        self.memory = memory
        self.trampolines = trampolines
        self.symbols = symbols
        self.ir: IRBuilder | None = None

    # ------------------------------------------------------------------
    # operand-stack strategy interface (subclass responsibility)

    def begin_stack(self) -> None:
        raise NotImplementedError

    def gen_push_literal(self, value: int) -> None:
        raise NotImplementedError

    def gen_push_register(self, reg: str) -> None:
        raise NotImplementedError

    def gen_pop_to(self, reg: str) -> None:
        raise NotImplementedError

    def gen_top_to(self, reg: str, depth: int = 0) -> None:
        raise NotImplementedError

    def gen_drop(self, count: int) -> None:
        raise NotImplementedError

    def gen_flush(self) -> None:
        """Materialize every deferred operand onto the machine stack."""
        raise NotImplementedError

    # "now" variants: raw machine-stack operations used inside
    # generators with internal runtime control flow.  They must only be
    # called after gen_flush() (nothing deferred), because code under a
    # conditional branch cannot update compile-time stack state.

    def gen_push_register_now(self, reg: str) -> None:
        self.ir.push(reg)
        self._note_spill(1)

    def gen_drop_now(self, count: int) -> None:
        if count:
            self.ir.drop(count)
            self._note_spill(-count)

    def gen_top_now(self, reg: str, depth: int = 0) -> None:
        self.ir.load_stack(reg, depth)

    def _note_spill(self, delta: int) -> None:
        """Hook for subclasses tracking materialized operand counts."""

    # ------------------------------------------------------------------
    # compilation driver

    def compile(self, unit: CompilationUnit) -> list[MachineInstruction]:
        """The unit lowered to the micro-ISA, which every back-end
        encodes."""
        if unit.bytecode is None and not unit.sequence:
            raise CompilerError("byte-code cogits compile byte-codes")
        self.ir = IRBuilder()
        self.begin_stack()
        self._current_pc = 0
        self._gen_method_entry(unit)
        for value in unit.input_stack:
            self.gen_push_literal(value)
        if unit.sequence:
            end_pc = self._compile_sequence(unit)
        else:
            self._dispatch(unit, unit.bytecode, unit.operands)
            end_pc = unit.bytecode.size
        self._gen_epilogue(unit, end_pc)
        return self.ir.lower(self.trampolines, self._register_map())

    def _dispatch(self, unit: CompilationUnit, bytecode, operands) -> None:
        handler = getattr(self, "gen_" + bytecode.family.name, None)
        if handler is None:
            raise CompilerError(
                f"{self.name} has no generator for {bytecode.family.name}"
            )
        view = dataclasses.replace(unit, bytecode=bytecode, operands=operands)
        handler(view)

    def _compile_sequence(self, unit: CompilationUnit) -> int:
        """Compile every instruction of the sequence at its byte-code pc.

        Intra-sequence jump targets force a parse-time-stack flush at
        the target pc: control-flow merge points must agree on the
        machine stack state (Cog flushes at merge points too).
        """
        targets = self._jump_targets(unit.sequence)
        pc = 0
        for bytecode, operands in unit.sequence:
            if pc in targets:
                self.gen_flush()
            self.ir.label(f"pc{pc}")
            self._current_pc = pc
            self._dispatch(unit, bytecode, operands)
            pc += bytecode.size
        self._current_pc = 0
        return pc

    @staticmethod
    def _jump_targets(sequence) -> set:
        targets: set = set()
        pc = 0
        for bytecode, operands in sequence:
            family = bytecode.family.name
            if family.startswith("shortJump"):
                targets.add(pc + bytecode.size + bytecode.embedded_index + 1)
            elif family.startswith("longJump"):
                targets.add(pc + bytecode.size + _signed_byte(operands[0]))
            pc += bytecode.size
        return targets

    def _gen_method_entry(self, unit: CompilationUnit) -> None:
        """Hook for subclass preambles (e.g. temp-register loading)."""

    def _register_map(self) -> dict:
        return {}

    def _gen_epilogue(self, unit: CompilationUnit, end_pc: int) -> None:
        """Flush deferred operands, then one Stop marker per byte-code pc.

        Falling through the instruction's code lands on the marker of
        the next pc; taken jumps land on their target's marker.  The
        differential tester compares the marker with the interpreter's
        resulting pc.
        """
        self.gen_flush()
        for pc in range(end_pc, len(unit.method.bytecodes) + 1):
            self.ir.label(f"pc{pc}")
            self.ir.stop(pc_marker(pc))

    # ------------------------------------------------------------------
    # shared helpers

    def _load_receiver(self, reg: str) -> None:
        self.ir.load_frame_receiver(reg)

    def _send(self, selector: str, argc: int) -> None:
        """Flush and exit through a send trampoline (inline-cache stub)."""
        self.gen_flush()
        self.ir.call_trampoline(f"send:{selector}/{argc}")

    def _boolean_of_flags_to(self, reg: str, condition: str) -> None:
        """Materialize true/false into *reg* from the current flags."""
        ir = self.ir
        true_label = ir.fresh_label("true")
        done = ir.fresh_label("done")
        ir.jump_if(condition, true_label)
        ir.move_const(reg, self.memory.false_object)
        ir.jump(done)
        ir.label(true_label)
        ir.move_const(reg, self.memory.true_object)
        ir.label(done)

    def _push_boolean_of_flags(self, condition: str) -> None:
        """Push true/false depending on the current flags."""
        self._boolean_of_flags_to(self.TMP_A, condition)
        self.gen_push_register_now(self.TMP_A)

    # ==================================================================
    # push family generators

    def gen_pushReceiverVariable(self, unit) -> None:
        self._load_receiver(self.RCVR)
        self.ir.load_slot(self.TMP_A, self.RCVR, unit.bytecode.embedded_index)
        self.gen_push_register(self.TMP_A)

    def gen_pushTemporaryVariable(self, unit) -> None:
        self.ir.load_frame_temp(self.TMP_A, unit.bytecode.embedded_index)
        self.gen_push_register(self.TMP_A)

    def gen_pushLiteralConstant(self, unit) -> None:
        literal = unit.method.literal_at(unit.bytecode.embedded_index)
        self.gen_push_literal(literal)

    def gen_pushReceiver(self, unit) -> None:
        self._load_receiver(self.TMP_A)
        self.gen_push_register(self.TMP_A)

    def gen_pushTrue(self, unit) -> None:
        self.gen_push_literal(self.memory.true_object)

    def gen_pushFalse(self, unit) -> None:
        self.gen_push_literal(self.memory.false_object)

    def gen_pushNil(self, unit) -> None:
        self.gen_push_literal(self.memory.nil_object)

    def gen_pushZero(self, unit) -> None:
        self.gen_push_literal(self.memory.integer_object_of(0))

    def gen_pushOne(self, unit) -> None:
        self.gen_push_literal(self.memory.integer_object_of(1))

    def gen_pushMinusOne(self, unit) -> None:
        self.gen_push_literal(self.memory.integer_object_of(-1))

    def gen_pushTwo(self, unit) -> None:
        self.gen_push_literal(self.memory.integer_object_of(2))

    def gen_duplicateTop(self, unit) -> None:
        self.gen_top_to(self.TMP_A, 0)
        self.gen_push_register(self.TMP_A)

    def gen_popStackTop(self, unit) -> None:
        self.gen_drop(1)

    def gen_storeTemporaryVariable(self, unit) -> None:
        self.gen_top_to(self.TMP_A, 0)
        self.ir.store_frame_temp(self.TMP_A, unit.bytecode.embedded_index)

    def gen_storeReceiverVariable(self, unit) -> None:
        self.gen_top_to(self.TMP_A, 0)
        self._load_receiver(self.RCVR)
        self.ir.store_slot(self.TMP_A, self.RCVR, unit.bytecode.embedded_index)

    def gen_popIntoTemporaryVariable(self, unit) -> None:
        self.gen_pop_to(self.TMP_A)
        self.ir.store_frame_temp(self.TMP_A, unit.bytecode.embedded_index)

    def gen_popIntoReceiverVariable(self, unit) -> None:
        self.gen_pop_to(self.TMP_A)
        self._load_receiver(self.RCVR)
        self.ir.store_slot(self.TMP_A, self.RCVR, unit.bytecode.embedded_index)

    def gen_nop(self, unit) -> None:
        pass

    # ==================================================================
    # returns

    def gen_returnTop(self, unit) -> None:
        self.gen_pop_to("R0")
        self.ir.ret()

    def gen_returnReceiver(self, unit) -> None:
        self._load_receiver("R0")
        self.ir.ret()

    def gen_returnNil(self, unit) -> None:
        self.ir.move_const("R0", self.memory.nil_object)
        self.ir.ret()

    def gen_returnTrue(self, unit) -> None:
        self.ir.move_const("R0", self.memory.true_object)
        self.ir.ret()

    def gen_returnFalse(self, unit) -> None:
        self.ir.move_const("R0", self.memory.false_object)
        self.ir.ret()

    # ==================================================================
    # jumps

    def gen_shortJump(self, unit) -> None:
        target = (self._current_pc + unit.bytecode.size
                  + unit.bytecode.embedded_index + 1)
        self.gen_flush()
        self.ir.jump(f"pc{target}")

    def gen_shortJumpIfTrue(self, unit) -> None:
        self._gen_conditional_jump(
            unit, unit.bytecode.embedded_index + 1, want_true=True
        )

    def gen_shortJumpIfFalse(self, unit) -> None:
        self._gen_conditional_jump(
            unit, unit.bytecode.embedded_index + 1, want_true=False
        )

    def gen_longJump(self, unit) -> None:
        target = (self._current_pc + unit.bytecode.size
                  + _signed_byte(unit.operands[0]))
        self.gen_flush()
        self.ir.jump(f"pc{target}")

    def gen_longJumpIfTrue(self, unit) -> None:
        self._gen_conditional_jump(
            unit, _signed_byte(unit.operands[0]), want_true=True
        )

    def gen_longJumpIfFalse(self, unit) -> None:
        self._gen_conditional_jump(
            unit, _signed_byte(unit.operands[0]), want_true=False
        )

    def _gen_conditional_jump(self, unit, displacement: int, want_true: bool):
        # Control flow splits at run time: materialize the parse-time
        # stack first so both paths see the same machine state (Cog's
        # ssFlushTo discipline).
        self.gen_flush()
        ir = self.ir
        base = self._current_pc + unit.bytecode.size
        taken = f"pc{base + displacement}"
        fall = f"pc{base}"
        jump_label = ir.fresh_label("take")
        fall_label = ir.fresh_label("fall")
        self.gen_top_now(self.TMP_A, 0)
        ir.compare_const(self.TMP_A, self.memory.true_object)
        ir.jump_if("eq", jump_label if want_true else fall_label)
        ir.compare_const(self.TMP_A, self.memory.false_object)
        ir.jump_if("eq", fall_label if want_true else jump_label)
        # Neither boolean: the value stays on the stack as the receiver
        # of #mustBeBoolean.
        self._send("mustBeBoolean", 0)
        ir.label(jump_label)
        self.gen_drop_now(1)
        self.gen_flush()
        ir.jump(taken)
        ir.label(fall_label)
        self.gen_drop_now(1)
        ir.jump(fall)

    # ==================================================================
    # statically type-predicted arithmetic

    def gen_bytecodePrimAdd(self, unit) -> None:
        self._gen_int_binary_arith("+", "add")

    def gen_bytecodePrimSubtract(self, unit) -> None:
        self._gen_int_binary_arith("-", "sub")

    def gen_bytecodePrimMultiply(self, unit) -> None:
        self._gen_int_multiply()

    def gen_bytecodePrimDivide(self, unit) -> None:
        self._gen_int_division("/", exact=True, want="quotient")

    def gen_bytecodePrimModulo(self, unit) -> None:
        self._gen_int_division("\\\\", exact=False, want="remainder")

    def gen_bytecodePrimIntegerDivide(self, unit) -> None:
        self._gen_int_division("//", exact=False, want="quotient")

    def gen_bytecodePrimLessThan(self, unit) -> None:
        self._gen_int_comparison("<", "lt")

    def gen_bytecodePrimGreaterThan(self, unit) -> None:
        self._gen_int_comparison(">", "gt")

    def gen_bytecodePrimLessOrEqual(self, unit) -> None:
        self._gen_int_comparison("<=", "le")

    def gen_bytecodePrimGreaterOrEqual(self, unit) -> None:
        self._gen_int_comparison(">=", "ge")

    def gen_bytecodePrimEqual(self, unit) -> None:
        self._gen_int_comparison("=", "eq")

    def gen_bytecodePrimNotEqual(self, unit) -> None:
        self._gen_int_comparison("~=", "ne")

    def gen_bytecodePrimIdenticalTo(self, unit) -> None:
        self.gen_flush()
        ir = self.ir
        self.gen_top_now(self.ARG, 0)
        self.gen_top_now(self.RCVR, 1)
        self.gen_drop_now(2)
        ir.compare(self.RCVR, self.ARG)
        self._push_boolean_of_flags("eq")

    def gen_bytecodePrimBitAnd(self, unit) -> None:
        self._gen_bitwise("bitAnd:", "and")

    def gen_bytecodePrimBitOr(self, unit) -> None:
        self._gen_bitwise("bitOr:", "or")

    def gen_bytecodePrimBitXor(self, unit) -> None:
        self._gen_bitwise("bitXor:", "xor")

    def gen_bytecodePrimBitShift(self, unit) -> None:
        self.gen_flush()
        ir = self.ir
        slow = ir.fresh_label("slow")
        done = ir.fresh_label("done")
        right_shift = ir.fresh_label("rshift")
        finish = ir.fresh_label("finish")
        self.gen_top_now(self.ARG, 0)
        self.gen_top_now(self.RCVR, 1)
        ir.check_small_int(self.RCVR, slow)
        ir.check_small_int(self.ARG, slow)
        ir.move(self.TMP_A, self.RCVR)
        ir.untag(self.TMP_A)
        ir.move(self.TMP_B, self.ARG)
        ir.untag(self.TMP_B)
        # Mirror the interpreter: non-negative receiver, |shift| <= 32.
        ir.compare_const(self.TMP_A, 0)
        ir.jump_if("lt", slow)
        ir.compare_const(self.TMP_B, 32)
        ir.jump_if("gt", slow)
        ir.compare_const(self.TMP_B, -32)
        ir.jump_if("lt", slow)
        ir.compare_const(self.TMP_B, 0)
        ir.jump_if("lt", right_shift)
        # Left shift: wraps are detected by shifting back.
        ir.move(self.TMP_C, self.TMP_A)
        ir.alu("shl", self.TMP_C, self.TMP_B)
        ir.compare_const(self.TMP_C, MAX_SMALL_INT)
        ir.jump_if("gt", slow)
        ir.compare_const(self.TMP_C, 0)
        ir.jump_if("lt", slow)
        ir.move(self.TMP_D, self.TMP_C)
        ir.alu("sar", self.TMP_D, self.TMP_B)
        ir.compare(self.TMP_D, self.TMP_A)
        ir.jump_if("ne", slow)
        ir.jump(finish)
        ir.label(right_shift)
        ir.move(self.TMP_C, self.TMP_A)
        ir.alu("neg", self.TMP_B)
        ir.alu("sar", self.TMP_C, self.TMP_B)
        ir.label(finish)
        ir.tag(self.TMP_C)
        self.gen_drop_now(2)
        self.gen_push_register_now(self.TMP_C)
        ir.jump(done)
        ir.label(slow)
        self._send("bitShift:", 1)
        ir.label(done)

    # ------------------------------------------------------------------
    # arithmetic helper generators

    def _gen_int_binary_arith(self, selector: str, alu_op: str) -> None:
        if not self.inline_int_arithmetic:
            self._send(selector, 1)
            return
        self.gen_flush()
        ir = self.ir
        slow = ir.fresh_label("slow")
        done = ir.fresh_label("done")
        self.gen_top_now(self.ARG, 0)
        self.gen_top_now(self.RCVR, 1)
        ir.check_small_int(self.RCVR, slow)  # checkSmallInteger t0
        ir.check_small_int(self.ARG, slow)  # checkSmallInteger t1
        ir.move(self.TMP_A, self.RCVR)
        ir.untag(self.TMP_A)
        ir.move(self.TMP_B, self.ARG)
        ir.untag(self.TMP_B)
        ir.alu(alu_op, self.TMP_A, self.TMP_B)  # t2 := t0 + t1
        ir.compare_const(self.TMP_A, MAX_SMALL_INT)  # jumpIfNotOverflow
        ir.jump_if("gt", slow)
        ir.compare_const(self.TMP_A, MIN_SMALL_INT)
        ir.jump_if("lt", slow)
        ir.tag(self.TMP_A)
        self.gen_drop_now(2)
        self.gen_push_register_now(self.TMP_A)
        ir.jump(done)
        ir.label(slow)  # notsmi: slow case send
        self._send(selector, 1)
        ir.label(done)

    def _gen_int_multiply(self) -> None:
        if not self.inline_int_arithmetic:
            self._send("*", 1)
            return
        self.gen_flush()
        ir = self.ir
        slow = ir.fresh_label("slow")
        done = ir.fresh_label("done")
        check = ir.fresh_label("check")
        self.gen_top_now(self.ARG, 0)
        self.gen_top_now(self.RCVR, 1)
        ir.check_small_int(self.RCVR, slow)
        ir.check_small_int(self.ARG, slow)
        ir.move(self.TMP_A, self.RCVR)
        ir.untag(self.TMP_A)
        ir.move(self.TMP_B, self.ARG)
        ir.untag(self.TMP_B)
        ir.move(self.TMP_C, self.TMP_A)  # keep untagged receiver
        ir.alu("mul", self.TMP_A, self.TMP_B)
        # 32-bit wrap detection: product / arg must equal receiver.
        ir.compare_const(self.TMP_B, 0)
        ir.jump_if("eq", check)
        ir.move(self.TMP_D, self.TMP_A)
        ir.alu("div", self.TMP_D, self.TMP_B)
        ir.compare(self.TMP_D, self.TMP_C)
        ir.jump_if("ne", slow)
        ir.label(check)
        ir.compare_const(self.TMP_A, MAX_SMALL_INT)
        ir.jump_if("gt", slow)
        ir.compare_const(self.TMP_A, MIN_SMALL_INT)
        ir.jump_if("lt", slow)
        ir.tag(self.TMP_A)
        self.gen_drop_now(2)
        self.gen_push_register_now(self.TMP_A)
        ir.jump(done)
        ir.label(slow)
        self._send("*", 1)
        ir.label(done)

    def _gen_int_division(self, selector: str, exact: bool, want: str) -> None:
        if not self.inline_int_arithmetic:
            self._send(selector, 1)
            return
        self.gen_flush()
        ir = self.ir
        slow = ir.fresh_label("slow")
        done = ir.fresh_label("done")
        fixed = ir.fresh_label("fixed")
        self.gen_top_now(self.ARG, 0)
        self.gen_top_now(self.RCVR, 1)
        ir.check_small_int(self.RCVR, slow)
        ir.check_small_int(self.ARG, slow)
        ir.move(self.TMP_A, self.RCVR)
        ir.untag(self.TMP_A)
        ir.move(self.TMP_B, self.ARG)
        ir.untag(self.TMP_B)
        ir.compare_const(self.TMP_B, 0)
        ir.jump_if("eq", slow)
        # TMP_C = truncated quotient, TMP_D = truncated remainder.
        ir.move(self.TMP_C, self.TMP_A)
        ir.alu("div", self.TMP_C, self.TMP_B)
        ir.move(self.TMP_D, self.TMP_A)
        ir.alu("rem", self.TMP_D, self.TMP_B)
        if exact:
            ir.compare_const(self.TMP_D, 0)
            ir.jump_if("ne", slow)
            result = self.TMP_C
        else:
            # Floor fixup when signs differ and the remainder is nonzero.
            ir.compare_const(self.TMP_D, 0)
            ir.jump_if("eq", fixed)
            ir.move(self.RCVR, self.TMP_A)  # tagged values no longer needed
            ir.alu("xor", self.RCVR, self.TMP_B)
            ir.compare_const(self.RCVR, 0)
            ir.jump_if("ge", fixed)
            ir.alu_const("sub", self.TMP_C, 1)  # floor quotient
            ir.alu("add", self.TMP_D, self.TMP_B)  # floor remainder
            ir.label(fixed)
            result = self.TMP_C if want == "quotient" else self.TMP_D
        if exact:
            ir.label(fixed)  # unused but keeps labels defined
        ir.compare_const(result, MAX_SMALL_INT)
        ir.jump_if("gt", slow)
        ir.compare_const(result, MIN_SMALL_INT)
        ir.jump_if("lt", slow)
        ir.tag(result)
        self.gen_drop_now(2)
        self.gen_push_register_now(result)
        ir.jump(done)
        ir.label(slow)
        self._send(selector, 1)
        ir.label(done)

    def _gen_int_comparison(self, selector: str, condition: str) -> None:
        if not self.inline_int_comparisons:
            self._send(selector, 1)
            return
        self.gen_flush()
        ir = self.ir
        slow = ir.fresh_label("slow")
        done = ir.fresh_label("done")
        self.gen_top_now(self.ARG, 0)
        self.gen_top_now(self.RCVR, 1)
        ir.check_small_int(self.RCVR, slow)
        ir.check_small_int(self.ARG, slow)
        # Tagging is monotonic: compare the tagged values directly.
        # The boolean must be materialized before the drop: stack
        # adjustments are ALU operations and clobber the flags.
        ir.compare(self.RCVR, self.ARG)
        self._boolean_of_flags_to(self.TMP_A, condition)
        self.gen_drop_now(2)
        self.gen_push_register_now(self.TMP_A)
        ir.jump(done)
        ir.label(slow)
        self._send(selector, 1)
        ir.label(done)

    def _gen_bitwise(self, selector: str, alu_op: str) -> None:
        self.gen_flush()
        ir = self.ir
        slow = ir.fresh_label("slow")
        done = ir.fresh_label("done")
        self.gen_top_now(self.ARG, 0)
        self.gen_top_now(self.RCVR, 1)
        ir.check_small_int(self.RCVR, slow)
        ir.check_small_int(self.ARG, slow)
        ir.move(self.TMP_A, self.RCVR)
        ir.untag(self.TMP_A)
        ir.move(self.TMP_B, self.ARG)
        ir.untag(self.TMP_B)
        # Mirror the interpreter: negative operands take the slow path.
        ir.compare_const(self.TMP_A, 0)
        ir.jump_if("lt", slow)
        ir.compare_const(self.TMP_B, 0)
        ir.jump_if("lt", slow)
        ir.alu(alu_op, self.TMP_A, self.TMP_B)
        ir.tag(self.TMP_A)
        self.gen_drop_now(2)
        self.gen_push_register_now(self.TMP_A)
        ir.jump(done)
        ir.label(slow)
        self._send(selector, 1)
        ir.label(done)

    # ==================================================================
    # sends

    def gen_sendAt(self, unit) -> None:
        self._send("at:", 1)

    def gen_sendAtPut(self, unit) -> None:
        self._send("at:put:", 2)

    def gen_sendSize(self, unit) -> None:
        self._send("size", 0)

    def gen_sendClass(self, unit) -> None:
        self._send("class", 0)

    def gen_sendValue(self, unit) -> None:
        self._send("value", 0)

    def gen_sendNew(self, unit) -> None:
        self._send("new", 0)

    def gen_sendIsNil(self, unit) -> None:
        if not self.inline_is_nil:
            self._send("isNil", 0)
            return
        self.gen_flush()
        ir = self.ir
        self.gen_top_now(self.TMP_A, 0)
        self.gen_drop_now(1)
        ir.compare_const(self.TMP_A, self.memory.nil_object)
        self._push_boolean_of_flags("eq")

    def _gen_literal_send(self, unit, argc: int) -> None:
        selector_oop = unit.method.literal_at(unit.bytecode.embedded_index)
        name = self._selector_name(selector_oop)
        self._send(name, argc)

    def _selector_name(self, selector_oop: int) -> str:
        # Compiled send sites are linked by selector identity; for the
        # trampoline label we recover the interned name.
        if self.symbols is not None:
            name = self.symbols.name_of(selector_oop)
            if name is not None:
                return name
        return f"selector@{selector_oop:#x}"

    # ==================================================================
    # long-form (operand byte) encodings

    def gen_pushIntegerByte(self, unit) -> None:
        value = _signed_byte(unit.operands[0])
        self.gen_push_literal(self.memory.integer_object_of(value))

    def gen_pushTemporaryVariableLong(self, unit) -> None:
        self.ir.load_frame_temp(self.TMP_A, unit.operands[0])
        self.gen_push_register(self.TMP_A)

    def gen_storeTemporaryVariableLong(self, unit) -> None:
        self.gen_top_to(self.TMP_A, 0)
        self.ir.store_frame_temp(self.TMP_A, unit.operands[0])

    def gen_pushReceiverVariableLong(self, unit) -> None:
        self._load_receiver(self.RCVR)
        self.ir.load_slot(self.TMP_A, self.RCVR, unit.operands[0])
        self.gen_push_register(self.TMP_A)

    def gen_storeReceiverVariableLong(self, unit) -> None:
        self.gen_top_to(self.TMP_A, 0)
        self._load_receiver(self.RCVR)
        self.ir.store_slot(self.TMP_A, self.RCVR, unit.operands[0])

    def gen_popIntoTemporaryVariableLong(self, unit) -> None:
        self.gen_pop_to(self.TMP_A)
        self.ir.store_frame_temp(self.TMP_A, unit.operands[0])

    def gen_sendLiteralSelector0Args(self, unit) -> None:
        self._gen_literal_send(unit, 0)

    def gen_sendLiteralSelector1Arg(self, unit) -> None:
        self._gen_literal_send(unit, 1)

    def gen_sendLiteralSelector2Args(self, unit) -> None:
        self._gen_literal_send(unit, 2)
