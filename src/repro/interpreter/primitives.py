"""Native methods (primitives): the VM's safe instruction set.

Native methods are "primitive operations exposed by the Virtual Machine
as methods ... by design safe: they check the types and shapes of all
their operands and fail with a failure code in case an operand is
incorrect" (paper Section 3.1).

Calling convention: receiver and arguments are on the operand stack with
the receiver at depth ``argument_count`` and the last argument on top.
On Success the primitive pops ``argument_count + 1`` values and pushes
its result; on Failure it leaves the stack untouched so the user-defined
fallback code sees the original operands.

Defect corpus notes (see DESIGN.md Section 6):

* ``primitiveAsFloat`` reproduces the paper's *missing interpreter type
  check* (Listing 5): its receiver check is a compile-time-removed
  assertion, so pointer receivers are silently coerced through untagging.
* The bit-wise primitives fail on negative operands (the interpreter
  falls back to library code); the JIT templates accept them as unsigned
  — the paper's *behavioural difference* family.
* The FFI family (indices 120+) exists only here; the 32-bit native-
  method compiler never implemented it — *missing functionality*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.interpreter.exits import ExitResult
from repro.memory.layout import ObjectFormat

# NativeMethod.function signature: (interpreter, frame, argument_count).
PrimitiveFunction = Callable[[object, object, int], ExitResult]


@dataclass(frozen=True)
class NativeMethod:
    """One primitive: index, metadata, implementation."""

    index: int
    name: str
    argument_count: int
    function: PrimitiveFunction
    category: str
    #: False for primitives the test runner curates out.
    testable: bool = True


PRIMITIVE_TABLE: dict[int, NativeMethod] = {}
_BY_NAME: dict[str, NativeMethod] = {}


def primitive(index: int, name: str, argc: int, category: str, testable: bool = True):
    """Register a primitive implementation in the table."""

    def register(function: PrimitiveFunction) -> PrimitiveFunction:
        if index in PRIMITIVE_TABLE:
            raise ValueError(f"duplicate primitive index {index}")
        native = NativeMethod(index, name, argc, function, category, testable)
        PRIMITIVE_TABLE[index] = native
        _BY_NAME[name] = native
        return function

    return register


def primitive_named(name: str) -> NativeMethod:
    return _BY_NAME[name]


def testable_primitives() -> list[NativeMethod]:
    return sorted(
        (native for native in PRIMITIVE_TABLE.values() if native.testable),
        key=lambda native: native.index,
    )


# ======================================================================
# small helpers


def _fail(reason: str) -> ExitResult:
    return ExitResult.failure(reason)


def _behavior_class_index(interp) -> int:
    return interp.memory.class_table.named("Behavior").index


# ======================================================================
# SmallInteger arithmetic (indices 1-17)


def _int_binary(op, overflow_checked: bool = True):
    def body(interp, frame, argc):
        memory = interp.memory
        rcvr = frame.stack_value(1)
        arg = frame.stack_value(0)
        if not memory.are_integers(rcvr, arg):
            return _fail("operands must be SmallIntegers")
        result = op(memory.integer_value_of(rcvr), memory.integer_value_of(arg))
        if result is None:
            return _fail("undefined operation")
        if overflow_checked and not memory.is_integer_value(result):
            return _fail("overflow")
        frame.pop_then_push(2, memory.integer_object_of(result))
        return ExitResult.success()

    return body


def _int_compare(op):
    def body(interp, frame, argc):
        memory = interp.memory
        rcvr = frame.stack_value(1)
        arg = frame.stack_value(0)
        if not memory.are_integers(rcvr, arg):
            return _fail("operands must be SmallIntegers")
        result = op(memory.integer_value_of(rcvr), memory.integer_value_of(arg))
        frame.pop_then_push(2, memory.boolean_object_of(result))
        return ExitResult.success()

    return body


primitive(1, "primitiveAdd", 1, "integer")(_int_binary(lambda a, b: a + b))
primitive(2, "primitiveSubtract", 1, "integer")(_int_binary(lambda a, b: a - b))
primitive(3, "primitiveLessThan", 1, "integer")(_int_compare(lambda a, b: a < b))
primitive(4, "primitiveGreaterThan", 1, "integer")(_int_compare(lambda a, b: a > b))
primitive(5, "primitiveLessOrEqual", 1, "integer")(_int_compare(lambda a, b: a <= b))
primitive(6, "primitiveGreaterOrEqual", 1, "integer")(_int_compare(lambda a, b: a >= b))
primitive(7, "primitiveEqual", 1, "integer")(_int_compare(lambda a, b: a == b))
primitive(8, "primitiveNotEqual", 1, "integer")(_int_compare(lambda a, b: a != b))
primitive(9, "primitiveMultiply", 1, "integer")(_int_binary(lambda a, b: a * b))


@primitive(10, "primitiveDivide", 1, "integer")
def primitive_divide(interp, frame, argc):
    """Exact division: fails on zero divisor or a non-integral quotient."""
    memory = interp.memory
    rcvr = frame.stack_value(1)
    arg = frame.stack_value(0)
    if not memory.are_integers(rcvr, arg):
        return _fail("operands must be SmallIntegers")
    divisor = memory.integer_value_of(arg)
    if divisor == 0:
        return _fail("division by zero")
    dividend = memory.integer_value_of(rcvr)
    if dividend % divisor != 0:
        return _fail("inexact division")
    result = dividend // divisor
    if not memory.is_integer_value(result):
        return _fail("overflow")
    frame.pop_then_push(2, memory.integer_object_of(result))
    return ExitResult.success()


def _int_division(op):
    def body(interp, frame, argc):
        memory = interp.memory
        rcvr = frame.stack_value(1)
        arg = frame.stack_value(0)
        if not memory.are_integers(rcvr, arg):
            return _fail("operands must be SmallIntegers")
        divisor = memory.integer_value_of(arg)
        if divisor == 0:
            return _fail("division by zero")
        result = op(memory.integer_value_of(rcvr), divisor)
        if not memory.is_integer_value(result):
            return _fail("overflow")
        frame.pop_then_push(2, memory.integer_object_of(result))
        return ExitResult.success()

    return body


def _truncated_quotient_and_remainder(a, b):
    """Truncated division built from non-negative operands, VM style.

    Written with explicit sign branches — like the C the production VM
    compiles to — so the concolic exploration discovers one path per
    sign combination and generates sign-differing witnesses.
    """
    negative_a = a < 0
    negative_b = b < 0
    magnitude_a = -a if negative_a else a
    magnitude_b = -b if negative_b else b
    quotient = magnitude_a // magnitude_b
    remainder = magnitude_a - quotient * magnitude_b
    if negative_a != negative_b:
        quotient = -quotient
    if negative_a:
        remainder = -remainder
    return quotient, remainder


@primitive(11, "primitiveMod", 1, "integer")
def primitive_mod(interp, frame, argc):
    """Floored modulo: truncated remainder plus a sign fixup branch."""
    memory = interp.memory
    rcvr = frame.stack_value(1)
    arg = frame.stack_value(0)
    if not memory.are_integers(rcvr, arg):
        return _fail("operands must be SmallIntegers")
    divisor = memory.integer_value_of(arg)
    if divisor == 0:
        return _fail("division by zero")
    dividend = memory.integer_value_of(rcvr)
    _, remainder = _truncated_quotient_and_remainder(dividend, divisor)
    if remainder != 0 and (dividend < 0) != (divisor < 0):
        remainder = remainder + divisor
    if not memory.is_integer_value(remainder):
        return _fail("overflow")
    frame.pop_then_push(2, memory.integer_object_of(remainder))
    return ExitResult.success()


@primitive(12, "primitiveDiv", 1, "integer")
def primitive_div(interp, frame, argc):
    """Floored division: truncated quotient plus a sign fixup branch."""
    memory = interp.memory
    rcvr = frame.stack_value(1)
    arg = frame.stack_value(0)
    if not memory.are_integers(rcvr, arg):
        return _fail("operands must be SmallIntegers")
    divisor = memory.integer_value_of(arg)
    if divisor == 0:
        return _fail("division by zero")
    dividend = memory.integer_value_of(rcvr)
    quotient, remainder = _truncated_quotient_and_remainder(dividend, divisor)
    if remainder != 0 and (dividend < 0) != (divisor < 0):
        quotient = quotient - 1
    if not memory.is_integer_value(quotient):
        return _fail("overflow")
    frame.pop_then_push(2, memory.integer_object_of(quotient))
    return ExitResult.success()


@primitive(13, "primitiveQuo", 1, "integer")
def primitive_quo(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(1)
    arg = frame.stack_value(0)
    if not memory.are_integers(rcvr, arg):
        return _fail("operands must be SmallIntegers")
    divisor = memory.integer_value_of(arg)
    if divisor == 0:
        return _fail("division by zero")
    dividend = memory.integer_value_of(rcvr)
    quotient, _ = _truncated_quotient_and_remainder(dividend, divisor)
    if not memory.is_integer_value(quotient):
        return _fail("overflow")
    frame.pop_then_push(2, memory.integer_object_of(quotient))
    return ExitResult.success()


def _bitwise(op):
    def body(interp, frame, argc):
        memory = interp.memory
        rcvr = frame.stack_value(1)
        arg = frame.stack_value(0)
        if not memory.are_integers(rcvr, arg):
            return _fail("operands must be SmallIntegers")
        a = memory.integer_value_of(rcvr)
        b = memory.integer_value_of(arg)
        # The interpreter primitives fail on negative operands and fall
        # back to (slow) library code — paper Section 5.3, behavioural
        # difference with the compiled versions.
        if a < 0 or b < 0:
            return _fail("negative operands take the slow path")
        frame.pop_then_push(2, memory.integer_object_of(op(a, b)))
        return ExitResult.success()

    return body


primitive(14, "primitiveBitAnd", 1, "integer")(_bitwise(lambda a, b: a & b))
primitive(15, "primitiveBitOr", 1, "integer")(_bitwise(lambda a, b: a | b))
primitive(16, "primitiveBitXor", 1, "integer")(_bitwise(lambda a, b: a ^ b))


@primitive(17, "primitiveBitShift", 1, "integer")
def primitive_bit_shift(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(1)
    arg = frame.stack_value(0)
    if not memory.are_integers(rcvr, arg):
        return _fail("operands must be SmallIntegers")
    value = memory.integer_value_of(rcvr)
    shift = memory.integer_value_of(arg)
    if value < 0:
        return _fail("negative receivers take the slow path")
    if shift > 31 or shift < -31:
        return _fail("shift amount out of range")
    result = value << shift if shift >= 0 else value >> -shift
    if not memory.is_integer_value(result):
        return _fail("overflow")
    frame.pop_then_push(2, memory.integer_object_of(result))
    return ExitResult.success()


@primitive(18, "primitiveMakePoint", 1, "integer")
def primitive_make_point(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(1)
    arg = frame.stack_value(0)
    if not memory.is_integer_object(rcvr):
        return _fail("receiver must be a SmallInteger")
    point_class = memory.class_table.named("Point")
    point = memory.instantiate(point_class)
    memory.store_pointer(0, point, rcvr)
    memory.store_pointer(1, point, arg)
    frame.pop_then_push(2, point)
    return ExitResult.success()


@primitive(19, "primitiveHighBit", 0, "integer")
def primitive_high_bit(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(0)
    if not memory.is_integer_object(rcvr):
        return _fail("receiver must be a SmallInteger")
    value = memory.integer_value_of(rcvr)
    if value <= 0:
        return _fail("receiver must be positive")
    frame.pop_then_push(1, memory.integer_object_of(value.bit_length()))
    return ExitResult.success()


@primitive(20, "primitiveLowBit", 0, "integer")
def primitive_low_bit(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(0)
    if not memory.is_integer_object(rcvr):
        return _fail("receiver must be a SmallInteger")
    value = memory.integer_value_of(rcvr)
    if value <= 0:
        return _fail("receiver must be positive")
    frame.pop_then_push(1, memory.integer_object_of((value & -value).bit_length()))
    return ExitResult.success()


@primitive(21, "primitiveNegated", 0, "integer")
def primitive_negated(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(0)
    if not memory.is_integer_object(rcvr):
        return _fail("receiver must be a SmallInteger")
    result = -memory.integer_value_of(rcvr)
    if not memory.is_integer_value(result):  # -MIN_SMALL_INT overflows
        return _fail("overflow")
    frame.pop_then_push(1, memory.integer_object_of(result))
    return ExitResult.success()


@primitive(22, "primitiveAbs", 0, "integer")
def primitive_abs(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(0)
    if not memory.is_integer_object(rcvr):
        return _fail("receiver must be a SmallInteger")
    value = memory.integer_value_of(rcvr)
    result = -value if value < 0 else value
    if not memory.is_integer_value(result):
        return _fail("overflow")
    frame.pop_then_push(1, memory.integer_object_of(result))
    return ExitResult.success()


@primitive(23, "primitiveSign", 0, "integer")
def primitive_sign(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(0)
    if not memory.is_integer_object(rcvr):
        return _fail("receiver must be a SmallInteger")
    value = memory.integer_value_of(rcvr)
    if value > 0:
        sign = 1
    elif value < 0:
        sign = -1
    else:
        sign = 0
    frame.pop_then_push(1, memory.integer_object_of(sign))
    return ExitResult.success()


# ======================================================================
# Float primitives (indices 40-59)


@primitive(40, "primitiveAsFloat", 0, "float")
def primitive_as_float(interp, frame, argc):
    """SmallInteger -> Float conversion.

    DEFECT (paper Listing 5, *missing interpreter type check*): the
    receiver check is an assertion removed in production builds, so a
    pointer receiver is coerced through untagging and produces a float
    from garbage bits instead of failing.
    """
    memory = interp.memory
    rcvr = frame.stack_value(0)
    # self assert: (objectMemory isIntegerObject: rcvr).
    # The assertion is removed in production builds so there is no
    # failure path — but it still *evaluates* under the concolic
    # tester, directing the exploration toward the pointer-receiver
    # case where interpreter and compiled code diverge.
    bool(memory.is_integer_object(rcvr))
    value = memory.integer_value_of(rcvr)
    frame.pop_then_push(1, memory.float_object_of(float(value)))
    return ExitResult.success()


def _float_receiver_check(memory, rcvr):
    return memory.is_float_object(rcvr)


def _float_binary(op):
    def body(interp, frame, argc):
        memory = interp.memory
        rcvr = frame.stack_value(1)
        arg = frame.stack_value(0)
        if not _float_receiver_check(memory, rcvr):
            return _fail("receiver must be a Float")
        if not memory.is_float_object(arg):
            return _fail("argument must be a Float")
        result = op(memory.float_value_of(rcvr), memory.float_value_of(arg))
        if result is None:
            return _fail("undefined float operation")
        frame.pop_then_push(2, memory.float_object_of(result))
        return ExitResult.success()

    return body


def _float_compare(op):
    def body(interp, frame, argc):
        memory = interp.memory
        rcvr = frame.stack_value(1)
        arg = frame.stack_value(0)
        if not _float_receiver_check(memory, rcvr):
            return _fail("receiver must be a Float")
        if not memory.is_float_object(arg):
            return _fail("argument must be a Float")
        result = op(memory.float_value_of(rcvr), memory.float_value_of(arg))
        frame.pop_then_push(2, memory.boolean_object_of(result))
        return ExitResult.success()

    return body


primitive(41, "primitiveFloatAdd", 1, "float")(_float_binary(lambda a, b: a + b))
primitive(42, "primitiveFloatSubtract", 1, "float")(_float_binary(lambda a, b: a - b))
primitive(43, "primitiveFloatLessThan", 1, "float")(_float_compare(lambda a, b: a < b))
primitive(44, "primitiveFloatGreaterThan", 1, "float")(
    _float_compare(lambda a, b: a > b)
)
primitive(45, "primitiveFloatLessOrEqual", 1, "float")(
    _float_compare(lambda a, b: a <= b)
)
primitive(46, "primitiveFloatGreaterOrEqual", 1, "float")(
    _float_compare(lambda a, b: a >= b)
)
primitive(47, "primitiveFloatEqual", 1, "float")(_float_compare(lambda a, b: a == b))
primitive(48, "primitiveFloatNotEqual", 1, "float")(_float_compare(lambda a, b: a != b))
primitive(49, "primitiveFloatMultiply", 1, "float")(_float_binary(lambda a, b: a * b))
primitive(50, "primitiveFloatDivide", 1, "float")(
    _float_binary(lambda a, b: None if b == 0.0 else a / b)
)


@primitive(51, "primitiveFloatTruncated", 0, "float")
def primitive_float_truncated(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(0)
    if not memory.is_float_object(rcvr):
        return _fail("receiver must be a Float")
    value = memory.float_value_of(rcvr)
    if math.isnan(value) or math.isinf(value):
        return _fail("not a finite float")
    truncated = int(value)
    if not memory.is_integer_value(truncated):
        return _fail("result does not fit a SmallInteger")
    frame.pop_then_push(1, memory.integer_object_of(truncated))
    return ExitResult.success()


@primitive(52, "primitiveFloatFractionPart", 0, "float")
def primitive_float_fraction_part(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(0)
    if not memory.is_float_object(rcvr):
        return _fail("receiver must be a Float")
    value = memory.float_value_of(rcvr)
    if math.isnan(value) or math.isinf(value):
        return _fail("not a finite float")
    frame.pop_then_push(1, memory.float_object_of(value - int(value)))
    return ExitResult.success()


@primitive(53, "primitiveFloatExponent", 0, "float")
def primitive_float_exponent(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(0)
    if not memory.is_float_object(rcvr):
        return _fail("receiver must be a Float")
    value = memory.float_value_of(rcvr)
    if value == 0.0 or math.isnan(value) or math.isinf(value):
        return _fail("exponent undefined")
    frame.pop_then_push(1, memory.integer_object_of(math.frexp(value)[1] - 1))
    return ExitResult.success()


@primitive(54, "primitiveFloatTimesTwoPower", 1, "float")
def primitive_float_times_two_power(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(1)
    arg = frame.stack_value(0)
    if not memory.is_float_object(rcvr):
        return _fail("receiver must be a Float")
    if not memory.is_integer_object(arg):
        return _fail("argument must be a SmallInteger")
    power = memory.integer_value_of(arg)
    if not -1024 <= power <= 1024:
        return _fail("power out of range")
    result = math.ldexp(memory.float_value_of(rcvr), int(power))
    frame.pop_then_push(2, memory.float_object_of(result))
    return ExitResult.success()


def _float_unary(op, domain=lambda v: True):
    def body(interp, frame, argc):
        memory = interp.memory
        rcvr = frame.stack_value(0)
        if not memory.is_float_object(rcvr):
            return _fail("receiver must be a Float")
        value = memory.float_value_of(rcvr)
        if math.isnan(value) or not domain(value):
            return _fail("outside domain")
        frame.pop_then_push(1, memory.float_object_of(op(value)))
        return ExitResult.success()

    return body


primitive(55, "primitiveFloatSquareRoot", 0, "float")(
    _float_unary(math.sqrt, domain=lambda v: v >= 0)
)
primitive(56, "primitiveFloatSin", 0, "float")(
    _float_unary(math.sin, domain=lambda v: not math.isinf(v))
)
primitive(57, "primitiveFloatArctan", 0, "float")(_float_unary(math.atan))
primitive(58, "primitiveFloatLogN", 0, "float")(
    _float_unary(math.log, domain=lambda v: v > 0)
)
primitive(59, "primitiveFloatExp", 0, "float")(
    _float_unary(math.exp, domain=lambda v: v <= 700)
)


primitive(60 - 30, "primitiveFloatAbs", 0, "float", testable=True)(
    _float_unary(abs)
)
primitive(31, "primitiveFloatNegated", 0, "float")(_float_unary(lambda v: -v))


# Curated out of the testable set: the byte-comparison loop records one
# constraint per character, and exploring every length/content
# combination exceeds the prototype's solver budget — the same class of
# path the paper curates because "they produce errors on the constraint
# solver" (Section 5.2).  The primitive itself is fully functional.
@primitive(32, "primitiveStringCompare", 1, "string", testable=False)
def primitive_string_compare(interp, frame, argc):
    """Lexicographic byte comparison: answers -1, 0 or 1."""
    memory = interp.memory
    rcvr = frame.stack_value(1)
    arg = frame.stack_value(0)
    for oop in (rcvr, arg):
        if memory.is_integer_object(oop):
            return _fail("operands must be byte objects")
        if memory.format_of(oop) != ObjectFormat.BYTES:
            return _fail("operands must be byte objects")
    left_size = memory.num_slots_of(rcvr)
    right_size = memory.num_slots_of(arg)
    limit = min(left_size, right_size)
    verdict = 0
    index = 0
    while index < limit:
        left = memory.fetch_pointer(index, rcvr)
        right = memory.fetch_pointer(index, arg)
        if left != right:
            verdict = -1 if left < right else 1
            break
        index += 1
    else:
        if left_size != right_size:
            verdict = -1 if left_size < right_size else 1
    frame.pop_then_push(2, memory.integer_object_of(verdict))
    return ExitResult.success()


@primitive(33, "primitiveStringHash", 0, "string")
def primitive_string_hash(interp, frame, argc):
    """A simple multiplicative byte hash (bounded to SmallInteger)."""
    memory = interp.memory
    rcvr = frame.stack_value(0)
    if memory.is_integer_object(rcvr):
        return _fail("receiver must be a byte object")
    if memory.format_of(rcvr) != ObjectFormat.BYTES:
        return _fail("receiver must be a byte object")
    accumulator = 5381
    for index in range(int(memory.num_slots_of(rcvr))):
        byte = memory.fetch_pointer(index, rcvr)
        accumulator = (accumulator * 33 + int(byte)) % (1 << 28)
    frame.pop_then_push(1, memory.integer_object_of(accumulator))
    return ExitResult.success()


@primitive(34, "primitiveConstantFill", 1, "array")
def primitive_constant_fill(interp, frame, argc):
    """Fill every indexable slot of a raw object with a word value."""
    memory = interp.memory
    rcvr = frame.stack_value(1)
    arg = frame.stack_value(0)
    if memory.is_integer_object(rcvr):
        return _fail("receiver must be a raw object")
    fmt = memory.format_of(rcvr)
    if fmt.is_pointers or fmt == ObjectFormat.COMPILED_METHOD:
        return _fail("receiver must be a raw object")
    if not memory.is_integer_object(arg):
        return _fail("fill value must be a SmallInteger")
    value = memory.integer_value_of(arg)
    if value < 0:
        return _fail("fill value must be non-negative")
    if fmt == ObjectFormat.BYTES and value > 255:
        return _fail("byte fill value out of range")
    for index in range(int(memory.num_slots_of(rcvr))):
        memory.store_pointer(index, rcvr, value)
    frame.pop_then_push(2, rcvr)
    return ExitResult.success()


# Curated out like primitiveStringCompare: one identity constraint per
# scanned slot makes full exploration solver-budget-prohibitive.
@primitive(35, "primitiveObjectPointsTo", 1, "object", testable=False)
def primitive_object_points_to(interp, frame, argc):
    """Does any slot of the receiver reference the argument?"""
    memory = interp.memory
    rcvr = frame.stack_value(1)
    arg = frame.stack_value(0)
    if memory.is_integer_object(rcvr):
        return _fail("SmallIntegers have no slots")
    if not memory.format_of(rcvr).is_pointers:
        return _fail("receiver slots are not pointers")
    found = False
    for index in range(int(memory.num_slots_of(rcvr))):
        slot = memory.fetch_pointer(index, rcvr)
        if memory.are_identical(slot, arg):
            found = True
            break
    frame.pop_then_push(2, memory.boolean_object_of(found))
    return ExitResult.success()


@primitive(36, "primitiveByteSize", 0, "object")
def primitive_byte_size(interp, frame, argc):
    """Size of the receiver's body in bytes (slots * word size)."""
    memory = interp.memory
    rcvr = frame.stack_value(0)
    if memory.is_integer_object(rcvr):
        return _fail("SmallIntegers are immediate")
    frame.pop_then_push(1, memory.integer_object_of(memory.num_slots_of(rcvr) * 4))
    return ExitResult.success()


# ======================================================================
# Indexed access and object primitives (indices 60-76, 105, 110-112)


@primitive(60, "primitiveAt", 1, "array")
def primitive_at(interp, frame, argc):
    """1-based indexed read on variable objects; type+bounds checked."""
    memory = interp.memory
    rcvr = frame.stack_value(1)
    arg = frame.stack_value(0)
    if memory.is_integer_object(rcvr):
        return _fail("receiver has no indexable slots")
    if not memory.is_integer_object(arg):
        return _fail("index must be a SmallInteger")
    fmt = memory.format_of(rcvr)
    if fmt == ObjectFormat.FIXED_POINTERS:
        return _fail("receiver has no indexable slots")
    index = memory.integer_value_of(arg)
    if index < 1 or index > memory.num_slots_of(rcvr):
        return _fail("index out of bounds")
    value = memory.fetch_pointer(index - 1, rcvr)
    if fmt == ObjectFormat.VARIABLE_POINTERS:
        frame.pop_then_push(2, value)
    else:
        # Raw formats answer the word/byte as a SmallInteger.
        if not memory.is_integer_value(value):
            return _fail("raw word does not fit a SmallInteger")
        frame.pop_then_push(2, memory.integer_object_of(value))
    return ExitResult.success()


@primitive(61, "primitiveAtPut", 2, "array")
def primitive_at_put(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(2)
    index_oop = frame.stack_value(1)
    value = frame.stack_value(0)
    if memory.is_integer_object(rcvr):
        return _fail("receiver has no indexable slots")
    if not memory.is_integer_object(index_oop):
        return _fail("index must be a SmallInteger")
    fmt = memory.format_of(rcvr)
    if fmt == ObjectFormat.FIXED_POINTERS:
        return _fail("receiver has no indexable slots")
    index = memory.integer_value_of(index_oop)
    if index < 1 or index > memory.num_slots_of(rcvr):
        return _fail("index out of bounds")
    if fmt == ObjectFormat.VARIABLE_POINTERS:
        memory.store_pointer(index - 1, rcvr, value)
    elif fmt == ObjectFormat.BYTES:
        if not memory.is_integer_object(value):
            return _fail("byte value must be a SmallInteger")
        byte = memory.integer_value_of(value)
        if byte < 0 or byte > 255:
            return _fail("byte value out of range")
        memory.store_pointer(index - 1, rcvr, byte)
    else:
        if not memory.is_integer_object(value):
            return _fail("word value must be a SmallInteger")
        word = memory.integer_value_of(value)
        if word < 0:
            return _fail("word value must be non-negative")
        memory.store_pointer(index - 1, rcvr, word)
    frame.pop_then_push(3, value)
    return ExitResult.success()


@primitive(62, "primitiveSize", 0, "array")
def primitive_size(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(0)
    if memory.is_integer_object(rcvr):
        return _fail("receiver has no indexable slots")
    if memory.format_of(rcvr) == ObjectFormat.FIXED_POINTERS:
        return _fail("receiver has no indexable slots")
    frame.pop_then_push(1, memory.integer_object_of(memory.num_slots_of(rcvr)))
    return ExitResult.success()


@primitive(63, "primitiveStringAt", 1, "array")
def primitive_string_at(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(1)
    arg = frame.stack_value(0)
    if memory.is_integer_object(rcvr):
        return _fail("receiver must be a byte object")
    if memory.format_of(rcvr) != ObjectFormat.BYTES:
        return _fail("receiver must be a byte object")
    if not memory.is_integer_object(arg):
        return _fail("index must be a SmallInteger")
    index = memory.integer_value_of(arg)
    if index < 1 or index > memory.num_slots_of(rcvr):
        return _fail("index out of bounds")
    frame.pop_then_push(
        2, memory.integer_object_of(memory.fetch_pointer(index - 1, rcvr))
    )
    return ExitResult.success()


@primitive(64, "primitiveStringAtPut", 2, "array")
def primitive_string_at_put(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(2)
    index_oop = frame.stack_value(1)
    value = frame.stack_value(0)
    if memory.is_integer_object(rcvr):
        return _fail("receiver must be a byte object")
    if memory.format_of(rcvr) != ObjectFormat.BYTES:
        return _fail("receiver must be a byte object")
    if not memory.is_integer_object(index_oop):
        return _fail("index must be a SmallInteger")
    if not memory.is_integer_object(value):
        return _fail("value must be a SmallInteger")
    index = memory.integer_value_of(index_oop)
    byte = memory.integer_value_of(value)
    if index < 1 or index > memory.num_slots_of(rcvr):
        return _fail("index out of bounds")
    if byte < 0 or byte > 255:
        return _fail("byte value out of range")
    memory.store_pointer(index - 1, rcvr, byte)
    frame.pop_then_push(3, value)
    return ExitResult.success()


@primitive(68, "primitiveObjectAt", 1, "object")
def primitive_object_at(interp, frame, argc):
    """CompiledMethod literal access (1-based, slot 1 is the header)."""
    memory = interp.memory
    rcvr = frame.stack_value(1)
    arg = frame.stack_value(0)
    if memory.is_integer_object(rcvr):
        return _fail("receiver must be a CompiledMethod")
    if memory.format_of(rcvr) != ObjectFormat.COMPILED_METHOD:
        return _fail("receiver must be a CompiledMethod")
    if not memory.is_integer_object(arg):
        return _fail("index must be a SmallInteger")
    index = memory.integer_value_of(arg)
    if index < 1 or index > memory.num_slots_of(rcvr):
        return _fail("index out of bounds")
    frame.pop_then_push(2, memory.fetch_pointer(index - 1, rcvr))
    return ExitResult.success()


@primitive(70, "primitiveNew", 0, "object")
def primitive_new(interp, frame, argc):
    """Instantiate a fixed-size class; receiver is a Behavior proxy."""
    memory = interp.memory
    rcvr = frame.stack_value(0)
    if memory.is_integer_object(rcvr):
        return _fail("receiver must be a Behavior")
    if memory.class_index_of(rcvr) != _behavior_class_index(interp):
        return _fail("receiver must be a Behavior")
    class_index_oop = memory.fetch_pointer(0, rcvr)
    if not memory.is_integer_object(class_index_oop):
        return _fail("malformed Behavior")
    class_index = memory.integer_value_of(class_index_oop)
    if not 0 <= class_index < len(memory.class_table):
        return _fail("class index out of range")
    target = memory.class_table.at(class_index)
    if target.is_variable:
        return _fail("variable classes need primitiveNewWithArg")
    frame.pop_then_push(1, memory.instantiate(target))
    return ExitResult.success()


@primitive(71, "primitiveNewWithArg", 1, "object")
def primitive_new_with_arg(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(1)
    arg = frame.stack_value(0)
    if memory.is_integer_object(rcvr):
        return _fail("receiver must be a Behavior")
    if memory.class_index_of(rcvr) != _behavior_class_index(interp):
        return _fail("receiver must be a Behavior")
    if not memory.is_integer_object(arg):
        return _fail("size must be a SmallInteger")
    size = memory.integer_value_of(arg)
    if size < 0 or size > 4096:
        return _fail("size out of range")
    class_index_oop = memory.fetch_pointer(0, rcvr)
    if not memory.is_integer_object(class_index_oop):
        return _fail("malformed Behavior")
    class_index = memory.integer_value_of(class_index_oop)
    if not 0 <= class_index < len(memory.class_table):
        return _fail("class index out of range")
    target = memory.class_table.at(class_index)
    if not target.is_variable:
        return _fail("fixed classes need primitiveNew")
    frame.pop_then_push(2, memory.instantiate(target, size))
    return ExitResult.success()


@primitive(73, "primitiveInstVarAt", 1, "object")
def primitive_inst_var_at(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(1)
    arg = frame.stack_value(0)
    if memory.is_integer_object(rcvr):
        return _fail("receiver has no instance variables")
    if not memory.is_integer_object(arg):
        return _fail("index must be a SmallInteger")
    index = memory.integer_value_of(arg)
    if index < 1 or index > memory.num_slots_of(rcvr):
        return _fail("index out of bounds")
    frame.pop_then_push(2, memory.fetch_pointer(index - 1, rcvr))
    return ExitResult.success()


@primitive(74, "primitiveInstVarAtPut", 2, "object")
def primitive_inst_var_at_put(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(2)
    index_oop = frame.stack_value(1)
    value = frame.stack_value(0)
    if memory.is_integer_object(rcvr):
        return _fail("receiver has no instance variables")
    if not memory.is_integer_object(index_oop):
        return _fail("index must be a SmallInteger")
    index = memory.integer_value_of(index_oop)
    if index < 1 or index > memory.num_slots_of(rcvr):
        return _fail("index out of bounds")
    if not memory.format_of(rcvr).is_pointers:
        return _fail("receiver slots are not pointers")
    memory.store_pointer(index - 1, rcvr, value)
    frame.pop_then_push(3, value)
    return ExitResult.success()


@primitive(75, "primitiveIdentityHash", 0, "object")
def primitive_identity_hash(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(0)
    if memory.is_integer_object(rcvr):
        return _fail("SmallIntegers hash to themselves in library code")
    # The oop itself is the identity hash in this VM (word-aligned,
    # shifted to fit the SmallInteger range).
    frame.pop_then_push(1, memory.integer_object_of(memory.identity_hash_of(rcvr)))
    return ExitResult.success()


@primitive(76, "primitiveShallowCopy", 0, "object")
def primitive_shallow_copy(interp, frame, argc):
    memory = interp.memory
    rcvr = frame.stack_value(0)
    if memory.is_integer_object(rcvr):
        return _fail("SmallIntegers are immediate")
    cls = memory.class_of(rcvr)
    total = memory.num_slots_of(rcvr)
    indexable = total - cls.fixed_slots if cls.is_variable else 0
    copy = memory.instantiate(cls, indexable)
    for index in range(total):
        memory.store_pointer(index, copy, memory.fetch_pointer(index, rcvr))
    frame.pop_then_push(1, copy)
    return ExitResult.success()


@primitive(105, "primitiveReplaceFromToWithStartingAt", 4, "array")
def primitive_replace_from_to(interp, frame, argc):
    """Bulk copy: receiver replaceFrom: start to: stop with: src startingAt: at."""
    memory = interp.memory
    rcvr = frame.stack_value(4)
    start_oop = frame.stack_value(3)
    stop_oop = frame.stack_value(2)
    source = frame.stack_value(1)
    at_oop = frame.stack_value(0)
    if memory.is_integer_object(rcvr) or memory.is_integer_object(source):
        return _fail("receiver and source must be objects")
    for oop in (start_oop, stop_oop, at_oop):
        if not memory.is_integer_object(oop):
            return _fail("indices must be SmallIntegers")
    if memory.format_of(rcvr) != memory.format_of(source):
        return _fail("format mismatch")
    if memory.format_of(rcvr) == ObjectFormat.FIXED_POINTERS:
        return _fail("receiver has no indexable slots")
    start = memory.integer_value_of(start_oop)
    stop = memory.integer_value_of(stop_oop)
    at = memory.integer_value_of(at_oop)
    count = stop - start + 1
    if count < 0:
        return _fail("empty range")
    if start < 1 or stop > memory.num_slots_of(rcvr):
        return _fail("destination range out of bounds")
    if at < 1 or at + count - 1 > memory.num_slots_of(source):
        return _fail("source range out of bounds")
    for offset in range(count):
        memory.store_pointer(
            start - 1 + offset, rcvr, memory.fetch_pointer(at - 1 + offset, source)
        )
    frame.pop_then_push(5, rcvr)
    return ExitResult.success()


@primitive(110, "primitiveIdentical", 1, "object")
def primitive_identical(interp, frame, argc):
    memory = interp.memory
    result = memory.are_identical(frame.stack_value(1), frame.stack_value(0))
    frame.pop_then_push(2, memory.boolean_object_of(result))
    return ExitResult.success()


@primitive(111, "primitiveNotIdentical", 1, "object")
def primitive_not_identical(interp, frame, argc):
    memory = interp.memory
    result = memory.are_identical(frame.stack_value(1), frame.stack_value(0))
    frame.pop_then_push(2, memory.boolean_object_of(not result))
    return ExitResult.success()


@primitive(112, "primitiveClass", 0, "object")
def primitive_class(interp, frame, argc):
    """Answer the receiver's class index as a SmallInteger."""
    memory = interp.memory
    rcvr = frame.stack_value(0)
    frame.pop_then_push(1, memory.integer_object_of(memory.class_index_of(rcvr)))
    return ExitResult.success()
