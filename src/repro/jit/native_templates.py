"""Template-based native-method compiler.

"Native methods implementing primitive operations are translated to IR
using a hand-written template-based approach" (paper Section 4.1).
Convention: receiver in ``R0``, arguments in ``R1``-``R4``; a template
returns to the caller with the result in ``R0`` on success and *falls
through* to a Stop/breakpoint on failure — the differential tester
asserts "that the compiled code returns to the caller if we had
detected no error condition, or to hit the breakpoint instruction
otherwise" (paper Section 4.2).

Defect corpus carried by this compiler (DESIGN.md §6):

* **Missing compiled type check** — the float templates (41-52, 55)
  unbox the receiver *without* checking its class: "all floating-point
  related native methods do not perform a type check on the receiver.
  The compiled code proceeds to unbox a double from the receiver's body
  producing a segmentation fault on the wrong receiver type."
* **Behavioural difference** — the bit-wise templates accept negative
  operands by treating them as unsigned (logical untag), where the
  interpreter fails over to library code; the ``mod`` template returns
  the truncated remainder instead of the floored one.
* **Missing functionality** — the entire FFI family plus several object
  primitives were "never implemented in the 32 bit compiler version":
  compiling them raises :class:`NotImplementedInCompiler`.
* **Simulation error bait** — the ``truncated``/``fractionPart``
  templates address the unboxed receiver through ``R10``/``R11``, the
  registers the simulator's reflective fault describer cannot resolve.

``primitiveAsFloat`` (40) *does* check its receiver — the interpreter
side is the one missing the check (paper Listing 5).
"""

from __future__ import annotations

from repro.errors import CompilerError, NotImplementedInCompiler
from repro.jit.compiler import CompilationUnit, NATIVE_FAILURE_MARKER
from repro.jit.ir import IRBuilder
from repro.jit.machine.isa import MachineInstruction
from repro.memory.layout import MAX_SMALL_INT, MIN_SMALL_INT, ObjectFormat

RCVR = "R0"
ARG0, ARG1, ARG2, ARG3 = "R1", "R2", "R3", "R4"
TMP_A, TMP_B, TMP_C, TMP_D = "R5", "R6", "R7", "R8"


class NativeMethodCompiler:
    """Hand-written IR templates, one per implemented primitive."""

    name = "NativeMethodCompiler"

    def __init__(self, memory, trampolines, symbols=None):
        self.memory = memory
        self.trampolines = trampolines
        self.ir: IRBuilder | None = None
        self._fail_label = "primitive_failure"

    # ------------------------------------------------------------------

    def compile(self, unit: CompilationUnit) -> list[MachineInstruction]:
        """The primitive's template lowered to the micro-ISA."""
        if unit.native is None:
            raise CompilerError("the native-method compiler compiles primitives")
        template = getattr(self, "tpl_" + unit.native.name, None)
        if template is None:
            raise NotImplementedInCompiler(
                f"{unit.native.name} was never implemented in the 32-bit "
                f"native-method compiler"
            )
        self.ir = IRBuilder()
        template()
        # Listing 4: "Generate a break instruction to detect
        # fall-through cases" — every failure path lands here.
        self.ir.label(self._fail_label)
        self.ir.stop(NATIVE_FAILURE_MARKER)
        return self.ir.lower(self.trampolines)

    # ------------------------------------------------------------------
    # small template helpers

    def _fail_if_not_small_int(self, reg: str) -> None:
        self.ir.check_small_int(reg, self._fail_label)

    def _fail_if_small_int(self, reg: str) -> None:
        self.ir.check_not_small_int(reg, self._fail_label)

    def _untag_into(self, dst: str, src: str) -> None:
        self.ir.move(dst, src)
        self.ir.untag(dst)

    def _untag_unsigned_into(self, dst: str, src: str) -> None:
        """Logical untag: negative oops become large unsigned values.

        This is the behavioural-difference defect: the template "works
        both with positive and negative integers by treating both as
        unsigned integers" where the interpreter fails.
        """
        self.ir.move(dst, src)
        self.ir.alu_const("shr", dst, 1)

    def _range_check(self, reg: str) -> None:
        self.ir.compare_const(reg, MAX_SMALL_INT)
        self.ir.jump_if("gt", self._fail_label)
        self.ir.compare_const(reg, MIN_SMALL_INT)
        self.ir.jump_if("lt", self._fail_label)

    def _return_tagged(self, reg: str) -> None:
        self.ir.tag(reg)
        self.ir.move(RCVR, reg)
        self.ir.ret()

    def _return_boolean_of_flags(self, condition: str) -> None:
        ir = self.ir
        true_label = ir.fresh_label("true")
        ir.jump_if(condition, true_label)
        ir.move_const(RCVR, self.memory.false_object)
        ir.ret()
        ir.label(true_label)
        ir.move_const(RCVR, self.memory.true_object)
        ir.ret()

    def _check_float_object(self, reg: str) -> None:
        """Full type check: not tagged, class is BoxedFloat64."""
        self._fail_if_small_int(reg)
        self.ir.load_class_index(TMP_D, reg)
        self.ir.compare_const(TMP_D, self.memory.float_class_index)
        self.ir.jump_if("ne", self._fail_label)

    def _box_float_and_return(self) -> None:
        """Box F0 through the ceAllocateFloat runtime helper -> R0."""
        self.ir.call_service("ceAllocateFloat")
        self.ir.ret()

    # ==================================================================
    # integer templates (correct, mirroring the interpreter)

    def _int_binary(self, alu_op: str) -> None:
        self._fail_if_not_small_int(RCVR)
        self._fail_if_not_small_int(ARG0)
        self._untag_into(TMP_A, RCVR)
        self._untag_into(TMP_B, ARG0)
        self.ir.alu(alu_op, TMP_A, TMP_B)
        self._range_check(TMP_A)
        self._return_tagged(TMP_A)

    def tpl_primitiveAdd(self):
        self._int_binary("add")

    def tpl_primitiveSubtract(self):
        self._int_binary("sub")

    def _int_compare(self, condition: str) -> None:
        self._fail_if_not_small_int(RCVR)
        self._fail_if_not_small_int(ARG0)
        self.ir.compare(RCVR, ARG0)  # tagging is monotonic
        self._return_boolean_of_flags(condition)

    def tpl_primitiveLessThan(self):
        self._int_compare("lt")

    def tpl_primitiveGreaterThan(self):
        self._int_compare("gt")

    def tpl_primitiveLessOrEqual(self):
        self._int_compare("le")

    def tpl_primitiveGreaterOrEqual(self):
        self._int_compare("ge")

    def tpl_primitiveEqual(self):
        self._int_compare("eq")

    def tpl_primitiveNotEqual(self):
        self._int_compare("ne")

    def tpl_primitiveMultiply(self):
        ir = self.ir
        self._fail_if_not_small_int(RCVR)
        self._fail_if_not_small_int(ARG0)
        self._untag_into(TMP_A, RCVR)
        self._untag_into(TMP_B, ARG0)
        ir.move(TMP_C, TMP_A)
        ir.alu("mul", TMP_A, TMP_B)
        no_wrap = ir.fresh_label("nowrap")
        ir.compare_const(TMP_B, 0)
        ir.jump_if("eq", no_wrap)
        ir.move(TMP_D, TMP_A)
        ir.alu("div", TMP_D, TMP_B)
        ir.compare(TMP_D, TMP_C)
        ir.jump_if("ne", self._fail_label)
        ir.label(no_wrap)
        self._range_check(TMP_A)
        self._return_tagged(TMP_A)

    def tpl_primitiveDivide(self):
        ir = self.ir
        self._fail_if_not_small_int(RCVR)
        self._fail_if_not_small_int(ARG0)
        self._untag_into(TMP_A, RCVR)
        self._untag_into(TMP_B, ARG0)
        ir.compare_const(TMP_B, 0)
        ir.jump_if("eq", self._fail_label)
        ir.move(TMP_C, TMP_A)
        ir.alu("rem", TMP_C, TMP_B)
        ir.compare_const(TMP_C, 0)
        ir.jump_if("ne", self._fail_label)  # inexact
        ir.alu("div", TMP_A, TMP_B)
        self._range_check(TMP_A)
        self._return_tagged(TMP_A)

    def tpl_primitiveMod(self):
        """DEFECT (behavioural): truncated remainder, no floor fixup.

        ``-7 \\\\ 2`` answers 1 in the interpreter (floored) but -1
        here (C semantics) — wrong results whenever the signs differ.
        """
        ir = self.ir
        self._fail_if_not_small_int(RCVR)
        self._fail_if_not_small_int(ARG0)
        self._untag_into(TMP_A, RCVR)
        self._untag_into(TMP_B, ARG0)
        ir.compare_const(TMP_B, 0)
        ir.jump_if("eq", self._fail_label)
        ir.alu("rem", TMP_A, TMP_B)
        self._range_check(TMP_A)
        self._return_tagged(TMP_A)

    def tpl_primitiveDiv(self):
        ir = self.ir
        self._fail_if_not_small_int(RCVR)
        self._fail_if_not_small_int(ARG0)
        self._untag_into(TMP_A, RCVR)
        self._untag_into(TMP_B, ARG0)
        ir.compare_const(TMP_B, 0)
        ir.jump_if("eq", self._fail_label)
        ir.move(TMP_C, TMP_A)
        ir.alu("div", TMP_C, TMP_B)
        ir.move(TMP_D, TMP_A)
        ir.alu("rem", TMP_D, TMP_B)
        fixed = ir.fresh_label("fixed")
        ir.compare_const(TMP_D, 0)
        ir.jump_if("eq", fixed)
        ir.alu("xor", TMP_A, TMP_B)  # sign test on the original operands
        ir.compare_const(TMP_A, 0)
        ir.jump_if("ge", fixed)
        ir.alu_const("sub", TMP_C, 1)
        ir.label(fixed)
        self._range_check(TMP_C)
        self._return_tagged(TMP_C)

    def tpl_primitiveQuo(self):
        ir = self.ir
        self._fail_if_not_small_int(RCVR)
        self._fail_if_not_small_int(ARG0)
        self._untag_into(TMP_A, RCVR)
        self._untag_into(TMP_B, ARG0)
        ir.compare_const(TMP_B, 0)
        ir.jump_if("eq", self._fail_label)
        ir.alu("div", TMP_A, TMP_B)
        self._range_check(TMP_A)
        self._return_tagged(TMP_A)

    def _bitwise_unsigned(self, alu_op: str) -> None:
        """DEFECT (behavioural): no negative-operand check."""
        self._fail_if_not_small_int(RCVR)
        self._fail_if_not_small_int(ARG0)
        self._untag_unsigned_into(TMP_A, RCVR)
        self._untag_unsigned_into(TMP_B, ARG0)
        self.ir.alu(alu_op, TMP_A, TMP_B)
        self._return_tagged(TMP_A)

    def tpl_primitiveBitAnd(self):
        self._bitwise_unsigned("and")

    def tpl_primitiveBitOr(self):
        self._bitwise_unsigned("or")

    def tpl_primitiveBitXor(self):
        self._bitwise_unsigned("xor")

    def tpl_primitiveBitShift(self):
        """DEFECT (behavioural): unsigned receiver, no overflow check."""
        ir = self.ir
        self._fail_if_not_small_int(RCVR)
        self._fail_if_not_small_int(ARG0)
        self._untag_unsigned_into(TMP_A, RCVR)
        self._untag_into(TMP_B, ARG0)
        ir.compare_const(TMP_B, 31)
        ir.jump_if("gt", self._fail_label)
        ir.compare_const(TMP_B, -31)
        ir.jump_if("lt", self._fail_label)
        right = ir.fresh_label("right")
        done = ir.fresh_label("done")
        ir.compare_const(TMP_B, 0)
        ir.jump_if("lt", right)
        ir.alu("shl", TMP_A, TMP_B)
        ir.jump(done)
        ir.label(right)
        ir.alu("neg", TMP_B)
        ir.alu("shr", TMP_A, TMP_B)  # logical: unsigned semantics
        ir.label(done)
        # No small-integer range check: tagging truncates to 31 bits.
        self._return_tagged(TMP_A)

    def tpl_primitiveMakePoint(self):
        self._fail_if_not_small_int(RCVR)
        self.ir.call_service("ceMakePoint")  # R0 = x, R1 = y -> R0 point
        self.ir.ret()

    def tpl_primitiveNegated(self):
        self._fail_if_not_small_int(RCVR)
        self._untag_into(TMP_A, RCVR)
        self.ir.alu("neg", TMP_A)
        self._range_check(TMP_A)
        self._return_tagged(TMP_A)

    def tpl_primitiveAbs(self):
        ir = self.ir
        self._fail_if_not_small_int(RCVR)
        self._untag_into(TMP_A, RCVR)
        positive = ir.fresh_label("positive")
        ir.compare_const(TMP_A, 0)
        ir.jump_if("ge", positive)
        ir.alu("neg", TMP_A)
        ir.label(positive)
        self._range_check(TMP_A)
        self._return_tagged(TMP_A)

    def tpl_primitiveSign(self):
        ir = self.ir
        self._fail_if_not_small_int(RCVR)
        self._untag_into(TMP_A, RCVR)
        negative = ir.fresh_label("negative")
        zero = ir.fresh_label("zero")
        ir.compare_const(TMP_A, 0)
        ir.jump_if("lt", negative)
        ir.jump_if("eq", zero)
        ir.move_const(TMP_A, 1)
        self._return_tagged(TMP_A)
        ir.label(negative)
        ir.move_const(TMP_A, -1)
        self._return_tagged(TMP_A)
        ir.label(zero)
        ir.move_const(TMP_A, 0)
        self._return_tagged(TMP_A)

    # ==================================================================
    # float templates

    def tpl_primitiveAsFloat(self):
        """Receiver *is* checked here — the interpreter's side is the
        one missing the check (paper Listing 5)."""
        self._fail_if_not_small_int(RCVR)
        self._untag_into(TMP_A, RCVR)
        self.ir.cvt_int_to_float("F0", TMP_A)
        self._box_float_and_return()

    def _float_binary(self, alu_op: str) -> None:
        """DEFECT (missing compiled type check): the receiver is
        unboxed with no class check; a non-float receiver reads garbage
        or segfaults."""
        self.ir.fload("F0", RCVR)  # unchecked unbox!
        self._check_float_object(ARG0)
        self.ir.fload("F1", ARG0)
        self.ir.falu(alu_op, "F0", "F1")
        self._box_float_and_return()

    def tpl_primitiveFloatAdd(self):
        self._float_binary("add")

    def tpl_primitiveFloatSubtract(self):
        self._float_binary("sub")

    def tpl_primitiveFloatMultiply(self):
        self._float_binary("mul")

    def tpl_primitiveFloatDivide(self):
        ir = self.ir
        ir.fload("F0", RCVR)  # unchecked unbox!
        self._check_float_object(ARG0)
        ir.fload("F1", ARG0)
        # Zero-divisor check via float compare against 0.0.
        ir.move_const(TMP_A, 0)
        ir.cvt_int_to_float("F2", TMP_A)
        ir.fcompare("F1", "F2")
        ir.jump_if("eq", self._fail_label)
        ir.falu("div", "F0", "F1")
        self._box_float_and_return()

    def _float_compare(self, condition: str) -> None:
        self.ir.fload("F0", RCVR)  # unchecked unbox!
        self._check_float_object(ARG0)
        self.ir.fload("F1", ARG0)
        self.ir.fcompare("F0", "F1")
        self._return_boolean_of_flags(condition)

    def tpl_primitiveFloatLessThan(self):
        self._float_compare("lt")

    def tpl_primitiveFloatGreaterThan(self):
        self._float_compare("gt")

    def tpl_primitiveFloatLessOrEqual(self):
        self._float_compare("le")

    def tpl_primitiveFloatGreaterOrEqual(self):
        self._float_compare("ge")

    def tpl_primitiveFloatEqual(self):
        self._float_compare("eq")

    def tpl_primitiveFloatNotEqual(self):
        self._float_compare("ne")

    def tpl_primitiveFloatTruncated(self):
        """Missing receiver check *and* unboxing through R10, one of the
        registers the simulator's fault describer cannot reflect on."""
        ir = self.ir
        ir.move("R10", RCVR)
        ir.fload("F0", "R10")  # unchecked unbox through R10
        ir.cvt_float_to_int(TMP_A, "F0")
        self._range_check(TMP_A)
        self._return_tagged(TMP_A)

    def tpl_primitiveFloatFractionPart(self):
        ir = self.ir
        ir.move("R11", RCVR)
        ir.fload("F0", "R11")  # unchecked unbox through R11
        ir.cvt_float_to_int(TMP_A, "F0")
        ir.cvt_int_to_float("F1", TMP_A)
        ir.falu("sub", "F0", "F1")
        self._box_float_and_return()

    def tpl_primitiveFloatAbs(self):
        ir = self.ir
        ir.fload("F0", RCVR)  # unchecked unbox!
        ir.move_const(TMP_A, 0)
        ir.cvt_int_to_float("F1", TMP_A)
        done = ir.fresh_label("done")
        ir.fcompare("F0", "F1")
        ir.jump_if("ge", done)
        ir.falu("sub", "F1", "F0")  # F1 = 0 - F0
        ir.fmov("F0", "F1")
        ir.label(done)
        self._box_float_and_return()

    def tpl_primitiveFloatNegated(self):
        ir = self.ir
        ir.fload("F0", RCVR)  # unchecked unbox!
        # Negate by multiplying with -1.0: unlike (0.0 - x) this keeps
        # IEEE signed-zero semantics (-(0.0) must be -0.0).
        ir.move_const(TMP_A, -1)
        ir.cvt_int_to_float("F1", TMP_A)
        ir.falu("mul", "F0", "F1")
        self._box_float_and_return()

    def tpl_primitiveFloatSquareRoot(self):
        ir = self.ir
        ir.fload("F0", RCVR)  # unchecked unbox!
        ir.move_const(TMP_A, 0)
        ir.cvt_int_to_float("F1", TMP_A)
        ir.fcompare("F0", "F1")
        ir.jump_if("lt", self._fail_label)
        ir.emit("fsqrt", "F0", "F0")
        self._box_float_and_return()

    # ==================================================================
    # indexed access and object templates (correct)

    def _check_indexable(self, reg: str) -> None:
        self._fail_if_small_int(reg)
        self.ir.load_format(TMP_D, reg)
        self.ir.compare_const(TMP_D, int(ObjectFormat.FIXED_POINTERS))
        self.ir.jump_if("eq", self._fail_label)

    def _checked_untagged_index(self, index_reg: str, obj: str, dst: str) -> None:
        """dst = 0-based index after type and bounds checks."""
        self._fail_if_not_small_int(index_reg)
        self._untag_into(dst, index_reg)
        self.ir.compare_const(dst, 1)
        self.ir.jump_if("lt", self._fail_label)
        self.ir.load_num_slots(TMP_D, obj)
        self.ir.compare(dst, TMP_D)
        self.ir.jump_if("gt", self._fail_label)
        self.ir.alu_const("sub", dst, 1)

    def tpl_primitiveAt(self):
        ir = self.ir
        self._check_indexable(RCVR)
        self._checked_untagged_index(ARG0, RCVR, TMP_A)
        ir.load_indexed(TMP_B, RCVR, TMP_A, TMP_C)
        # Pointer formats answer the slot; raw formats tag the word.
        pointers = ir.fresh_label("pointers")
        ir.load_format(TMP_D, RCVR)
        ir.compare_const(TMP_D, int(ObjectFormat.VARIABLE_POINTERS))
        ir.jump_if("le", pointers)
        self._range_check(TMP_B)
        self._return_tagged(TMP_B)
        ir.label(pointers)
        ir.move(RCVR, TMP_B)
        ir.ret()

    def tpl_primitiveAtPut(self):
        ir = self.ir
        self._check_indexable(RCVR)
        self._checked_untagged_index(ARG0, RCVR, TMP_A)
        raw = ir.fresh_label("raw")
        bytes_fmt = ir.fresh_label("bytes")
        store = ir.fresh_label("store")
        ir.load_format(TMP_D, RCVR)
        ir.compare_const(TMP_D, int(ObjectFormat.VARIABLE_POINTERS))
        ir.jump_if("gt", raw)
        ir.move(TMP_B, ARG1)
        ir.jump(store)
        ir.label(raw)
        self._fail_if_not_small_int(ARG1)
        self._untag_into(TMP_B, ARG1)
        ir.compare_const(TMP_B, 0)
        ir.jump_if("lt", self._fail_label)
        ir.compare_const(TMP_D, int(ObjectFormat.BYTES))
        ir.jump_if("ne", store)
        ir.label(bytes_fmt)
        ir.compare_const(TMP_B, 255)
        ir.jump_if("gt", self._fail_label)
        ir.label(store)
        ir.store_indexed(TMP_B, RCVR, TMP_A, TMP_C)
        ir.move(RCVR, ARG1)
        ir.ret()

    def tpl_primitiveSize(self):
        self._check_indexable(RCVR)
        self.ir.load_num_slots(TMP_A, RCVR)
        self._return_tagged(TMP_A)

    def _check_bytes(self, reg: str) -> None:
        self._fail_if_small_int(reg)
        self.ir.load_format(TMP_D, reg)
        self.ir.compare_const(TMP_D, int(ObjectFormat.BYTES))
        self.ir.jump_if("ne", self._fail_label)

    def tpl_primitiveStringAt(self):
        self._check_bytes(RCVR)
        self._checked_untagged_index(ARG0, RCVR, TMP_A)
        self.ir.load_indexed(TMP_B, RCVR, TMP_A, TMP_C)
        self._return_tagged(TMP_B)

    def tpl_primitiveStringAtPut(self):
        ir = self.ir
        self._check_bytes(RCVR)
        self._checked_untagged_index(ARG0, RCVR, TMP_A)
        self._fail_if_not_small_int(ARG1)
        self._untag_into(TMP_B, ARG1)
        ir.compare_const(TMP_B, 0)
        ir.jump_if("lt", self._fail_label)
        ir.compare_const(TMP_B, 255)
        ir.jump_if("gt", self._fail_label)
        ir.store_indexed(TMP_B, RCVR, TMP_A, TMP_C)
        ir.move(RCVR, ARG1)
        ir.ret()

    def _check_behavior(self) -> None:
        behavior = self.memory.class_table.named("Behavior")
        self._fail_if_small_int(RCVR)
        self.ir.load_class_index(TMP_D, RCVR)
        self.ir.compare_const(TMP_D, behavior.index)
        self.ir.jump_if("ne", self._fail_label)

    def tpl_primitiveNew(self):
        ir = self.ir
        self._check_behavior()
        ir.load_slot(TMP_A, RCVR, 0)  # Behavior slot 0: class index
        self._fail_if_not_small_int(TMP_A)
        ir.untag(TMP_A)
        ir.compare_const(TMP_A, 0)
        ir.jump_if("lt", self._fail_label)
        ir.compare_const(TMP_A, len(self.memory.class_table) - 1)
        ir.jump_if("gt", self._fail_label)
        ir.move(TMP_B, TMP_A)
        ir.call_service("ceNewFixedInstance")  # class idx in R6 -> R0
        ir.compare_const(RCVR, 0)
        ir.jump_if("eq", self._fail_label)
        ir.ret()

    def tpl_primitiveNewWithArg(self):
        ir = self.ir
        self._check_behavior()
        self._fail_if_not_small_int(ARG0)
        ir.load_slot(TMP_A, RCVR, 0)
        self._fail_if_not_small_int(TMP_A)
        ir.untag(TMP_A)
        ir.compare_const(TMP_A, 0)
        ir.jump_if("lt", self._fail_label)
        ir.compare_const(TMP_A, len(self.memory.class_table) - 1)
        ir.jump_if("gt", self._fail_label)
        self._untag_into(TMP_C, ARG0)
        ir.compare_const(TMP_C, 0)
        ir.jump_if("lt", self._fail_label)
        ir.compare_const(TMP_C, 4096)
        ir.jump_if("gt", self._fail_label)
        ir.move(TMP_B, TMP_A)
        ir.call_service("ceNewVariableInstance")  # R6 class, R7 size -> R0
        ir.compare_const(RCVR, 0)
        ir.jump_if("eq", self._fail_label)
        ir.ret()

    def tpl_primitiveInstVarAt(self):
        self._fail_if_small_int(RCVR)
        self._checked_untagged_index(ARG0, RCVR, TMP_A)
        self.ir.load_indexed(TMP_B, RCVR, TMP_A, TMP_C)
        self.ir.move(RCVR, TMP_B)
        self.ir.ret()

    def tpl_primitiveInstVarAtPut(self):
        ir = self.ir
        self._fail_if_small_int(RCVR)
        self._checked_untagged_index(ARG0, RCVR, TMP_A)
        ir.load_format(TMP_D, RCVR)
        ir.compare_const(TMP_D, int(ObjectFormat.VARIABLE_POINTERS))
        ir.jump_if("gt", self._fail_label)
        ir.store_indexed(ARG1, RCVR, TMP_A, TMP_C)
        ir.move(RCVR, ARG1)
        ir.ret()

    def tpl_primitiveIdentical(self):
        self.ir.compare(RCVR, ARG0)
        self._return_boolean_of_flags("eq")

    def tpl_primitiveNotIdentical(self):
        self.ir.compare(RCVR, ARG0)
        self._return_boolean_of_flags("ne")

    def tpl_primitiveClass(self):
        ir = self.ir
        tagged = ir.fresh_label("tagged")
        ir.check_not_small_int(RCVR, tagged)
        ir.load_class_index(TMP_A, RCVR)
        self._return_tagged(TMP_A)
        ir.label(tagged)
        ir.move_const(TMP_A, self.memory.small_integer_class_index)
        self._return_tagged(TMP_A)
