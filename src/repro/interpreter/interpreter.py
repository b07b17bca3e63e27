"""The byte-code interpreter.

Each byte-code family has one handler method; dispatch goes through a
table of handler names indexed by opcode, built once at import.
Handlers are written in the style of the paper's Listing 1: they query
the object memory through its semantic protocol (``are_integers``,
``integer_value_of``, ``is_integer_value``, ...) and branch on the
results.  Because both the values and the memory
can be concolic stand-ins, the *same code* doubles as the symbolic
specification during path exploration.

Two usage modes:

* :meth:`Interpreter.step` — execute exactly one instruction and report
  its :class:`~repro.interpreter.exits.ExitResult`.  This is the unit
  the differential tester compares against compiled code.
* :meth:`Interpreter.run` — full method execution with real message
  sends, method activation and primitive invocation, used by the
  examples and integration tests.
"""

from __future__ import annotations

from repro.bytecode.methods import CompiledMethod, SymbolTable
from repro.bytecode.opcodes import BYTECODE_TABLE, Bytecode
from repro.errors import (
    BytecodeError,
    InvalidFrameAccess,
    InvalidMemoryAccess,
    UntaggedValueError,
    VMError,
)
from repro.interpreter.exits import ExitCondition, ExitResult
from repro.interpreter.frame import Frame
from repro.memory.object_memory import ObjectMemory

#: Signed-byte helper for long-jump displacements.
def _signed_byte(value: int) -> int:
    return value - 256 if value >= 128 else value


class Interpreter:
    """A stack-machine byte-code interpreter over an object memory."""

    def __init__(self, memory: ObjectMemory, symbols: SymbolTable | None = None):
        self.memory = memory
        self.symbols = symbols or SymbolTable(memory)
        #: (class_index, selector name) -> CompiledMethod, for full runs.
        self.method_dictionary: dict[tuple[int, str], CompiledMethod] = {}

    # ------------------------------------------------------------------
    # dispatch

    def step(self, frame: Frame) -> ExitResult:
        """Execute the instruction at ``frame.pc`` and report its exit.

        VM-level faults (invalid frame slots, out-of-bounds or untagged
        memory access) are converted into the corresponding exit
        conditions instead of propagating, exactly as the concolic test
        runner expects (paper Section 3.4).
        """
        code = frame.method.bytecodes
        if not 0 <= frame.pc < len(code):
            return ExitResult.method_return(self.memory.nil_object)
        opcode = code[frame.pc]
        bytecode = BYTECODE_TABLE.get(opcode)
        if bytecode is None:
            raise BytecodeError(f"unknown opcode {opcode:#04x} at pc {frame.pc}")
        operands = bytes(code[frame.pc + 1 : frame.pc + bytecode.size])
        if len(operands) != bytecode.family.operand_bytes:
            raise BytecodeError(f"truncated operands at pc {frame.pc}")
        frame.pc += bytecode.size  # fetchNextBytecode semantics
        try:
            return getattr(self, _HANDLER_NAMES[opcode])(frame, bytecode, operands)
        except InvalidFrameAccess as error:
            return ExitResult.invalid_frame(str(error))
        except (InvalidMemoryAccess, UntaggedValueError) as error:
            return ExitResult.invalid_memory_access(str(error))
        except BytecodeError as error:
            return ExitResult.invalid_memory_access(str(error))

    # ------------------------------------------------------------------
    # full-method execution (examples / integration tests)

    def install_method(
        self, class_index: int, selector: str, method: CompiledMethod
    ) -> None:
        self.symbols.intern(selector)
        self.method_dictionary[(class_index, selector)] = method

    def lookup(self, class_index: int, selector: str) -> CompiledMethod | None:
        return self.method_dictionary.get((class_index, selector))

    def run(self, frame: Frame, max_steps: int = 100_000):
        """Run to completion, activating sends; returns the final value."""
        from repro.interpreter.primitives import PRIMITIVE_TABLE

        call_stack: list[Frame] = [frame]
        for _ in range(max_steps):
            current = call_stack[-1]
            exit_result = self.step(current)
            condition = exit_result.condition
            if condition == ExitCondition.SUCCESS:
                continue
            if condition == ExitCondition.METHOD_RETURN:
                call_stack.pop()
                if not call_stack:
                    return exit_result.returned_value
                call_stack[-1].push(exit_result.returned_value)
                continue
            if condition == ExitCondition.MESSAGE_SEND:
                argc = exit_result.argument_count or 0
                receiver = current.stack_value(argc)
                class_index = self.memory.class_index_of(receiver)
                method = self.lookup(class_index, exit_result.selector or "")
                if method is None:
                    raise VMError(
                        f"message not understood: {exit_result.selector} "
                        f"(class index {class_index})"
                    )
                arguments = [current.stack_value(argc - 1 - i) for i in range(argc)]
                current.pop_n(argc + 1)
                if method.primitive_index:
                    native = PRIMITIVE_TABLE.get(method.primitive_index)
                    if native is not None:
                        outcome = self._try_primitive(
                            native, receiver, arguments, current
                        )
                        if outcome:
                            continue
                callee = Frame(receiver, method, arguments)
                call_stack.append(callee)
                continue
            raise VMError(f"unhandled exit during run: {exit_result.describe()}")
        raise VMError("step budget exhausted")

    def _try_primitive(self, native, receiver, arguments, caller: Frame) -> bool:
        """Run a native method against the caller stack; True on success."""
        caller.push(receiver)
        for argument in arguments:
            caller.push(argument)
        result = self.call_primitive(native, caller, len(arguments))
        if result.condition == ExitCondition.SUCCESS:
            return True
        # Failure: restore the caller stack for byte-code fallback.
        caller.pop_n(len(arguments) + 1)
        return False

    def call_primitive(self, native, frame: Frame, argument_count: int) -> ExitResult:
        """Invoke a native method with receiver+args on the operand stack."""
        return native.function(self, frame, argument_count)

    # ------------------------------------------------------------------
    # send helper (Listing 1's ``normalSend``)

    def _normal_send(self, selector: str, argument_count: int) -> ExitResult:
        """Leave the instruction through a message send.

        Receiver and arguments stay on the operand stack: the send
        machinery (or the compiled code's trampoline) consumes them.
        """
        return ExitResult.message_send(selector, argument_count)

    # ==================================================================
    # push / pop / store family handlers

    def bc_pushReceiverVariable(self, frame, bytecode, operands) -> ExitResult:
        value = self.memory.fetch_pointer(bytecode.embedded_index, frame.receiver)
        frame.push(value)
        return ExitResult.success()

    def bc_pushTemporaryVariable(self, frame, bytecode, operands) -> ExitResult:
        frame.push(frame.temp_at(bytecode.embedded_index))
        return ExitResult.success()

    def bc_pushLiteralConstant(self, frame, bytecode, operands) -> ExitResult:
        frame.push(frame.method.literal_at(bytecode.embedded_index))
        return ExitResult.success()

    def bc_pushReceiver(self, frame, bytecode, operands) -> ExitResult:
        frame.push(frame.receiver)
        return ExitResult.success()

    def bc_pushTrue(self, frame, bytecode, operands) -> ExitResult:
        frame.push(self.memory.true_object)
        return ExitResult.success()

    def bc_pushFalse(self, frame, bytecode, operands) -> ExitResult:
        frame.push(self.memory.false_object)
        return ExitResult.success()

    def bc_pushNil(self, frame, bytecode, operands) -> ExitResult:
        frame.push(self.memory.nil_object)
        return ExitResult.success()

    def bc_pushZero(self, frame, bytecode, operands) -> ExitResult:
        frame.push(self.memory.integer_object_of(0))
        return ExitResult.success()

    def bc_pushOne(self, frame, bytecode, operands) -> ExitResult:
        frame.push(self.memory.integer_object_of(1))
        return ExitResult.success()

    def bc_pushMinusOne(self, frame, bytecode, operands) -> ExitResult:
        frame.push(self.memory.integer_object_of(-1))
        return ExitResult.success()

    def bc_pushTwo(self, frame, bytecode, operands) -> ExitResult:
        frame.push(self.memory.integer_object_of(2))
        return ExitResult.success()

    def bc_duplicateTop(self, frame, bytecode, operands) -> ExitResult:
        frame.push(frame.stack_value(0))
        return ExitResult.success()

    def bc_popStackTop(self, frame, bytecode, operands) -> ExitResult:
        frame.pop()
        return ExitResult.success()

    def bc_storeTemporaryVariable(self, frame, bytecode, operands) -> ExitResult:
        frame.temp_at_put(bytecode.embedded_index, frame.stack_value(0))
        return ExitResult.success()

    def bc_storeReceiverVariable(self, frame, bytecode, operands) -> ExitResult:
        self.memory.store_pointer(
            bytecode.embedded_index, frame.receiver, frame.stack_value(0)
        )
        return ExitResult.success()

    def bc_popIntoTemporaryVariable(self, frame, bytecode, operands) -> ExitResult:
        frame.temp_at_put(bytecode.embedded_index, frame.pop())
        return ExitResult.success()

    def bc_popIntoReceiverVariable(self, frame, bytecode, operands) -> ExitResult:
        value = frame.pop()
        self.memory.store_pointer(bytecode.embedded_index, frame.receiver, value)
        return ExitResult.success()

    def bc_nop(self, frame, bytecode, operands) -> ExitResult:
        return ExitResult.success()

    # ==================================================================
    # returns

    def bc_returnTop(self, frame, bytecode, operands) -> ExitResult:
        return ExitResult.method_return(frame.pop())

    def bc_returnReceiver(self, frame, bytecode, operands) -> ExitResult:
        return ExitResult.method_return(frame.receiver)

    def bc_returnNil(self, frame, bytecode, operands) -> ExitResult:
        return ExitResult.method_return(self.memory.nil_object)

    def bc_returnTrue(self, frame, bytecode, operands) -> ExitResult:
        return ExitResult.method_return(self.memory.true_object)

    def bc_returnFalse(self, frame, bytecode, operands) -> ExitResult:
        return ExitResult.method_return(self.memory.false_object)

    # ==================================================================
    # jumps

    def bc_shortJump(self, frame, bytecode, operands) -> ExitResult:
        frame.pc += bytecode.embedded_index + 1
        return ExitResult.success()

    def bc_shortJumpIfTrue(self, frame, bytecode, operands) -> ExitResult:
        return self._branch_if(frame, bytecode.embedded_index + 1, want_true=True)

    def bc_shortJumpIfFalse(self, frame, bytecode, operands) -> ExitResult:
        return self._branch_if(frame, bytecode.embedded_index + 1, want_true=False)

    def bc_longJump(self, frame, bytecode, operands) -> ExitResult:
        frame.pc += _signed_byte(operands[0])
        return ExitResult.success()

    def bc_longJumpIfTrue(self, frame, bytecode, operands) -> ExitResult:
        return self._branch_if(frame, _signed_byte(operands[0]), want_true=True)

    def bc_longJumpIfFalse(self, frame, bytecode, operands) -> ExitResult:
        return self._branch_if(frame, _signed_byte(operands[0]), want_true=False)

    def _branch_if(self, frame, displacement: int, want_true: bool) -> ExitResult:
        value = frame.stack_value(0)
        memory = self.memory
        if memory.is_true_object(value):
            frame.pop()
            if want_true:
                frame.pc += displacement
            return ExitResult.success()
        if memory.is_false_object(value):
            frame.pop()
            if not want_true:
                frame.pc += displacement
            return ExitResult.success()
        # Non-boolean condition: the value becomes the receiver of
        # #mustBeBoolean (it stays on the stack as the send receiver).
        return self._normal_send("mustBeBoolean", 0)

    # ==================================================================
    # statically type-predicted arithmetic (paper Listing 1)

    def bc_bytecodePrimAdd(self, frame, bytecode, operands) -> ExitResult:
        return self._arith_binary(frame, "+", lambda a, b: a + b, lambda a, b: a + b)

    def bc_bytecodePrimSubtract(self, frame, bytecode, operands) -> ExitResult:
        return self._arith_binary(frame, "-", lambda a, b: a - b, lambda a, b: a - b)

    def bc_bytecodePrimMultiply(self, frame, bytecode, operands) -> ExitResult:
        return self._arith_binary(frame, "*", lambda a, b: a * b, lambda a, b: a * b)

    def bc_bytecodePrimDivide(self, frame, bytecode, operands) -> ExitResult:
        rcvr = frame.stack_value(1)
        arg = frame.stack_value(0)
        memory = self.memory
        if memory.are_integers(rcvr, arg):
            divisor = memory.integer_value_of(arg)
            if divisor != 0:
                dividend = memory.integer_value_of(rcvr)
                if dividend % divisor == 0:
                    result = dividend // divisor
                    if memory.is_integer_value(result):
                        frame.pop_then_push(2, memory.integer_object_of(result))
                        return ExitResult.success()
        elif memory.is_float_object(rcvr) and memory.is_float_object(arg):
            divisor_value = memory.float_value_of(arg)
            if divisor_value != 0.0:
                result_value = memory.float_value_of(rcvr) / divisor_value
                frame.pop_then_push(2, memory.float_object_of(result_value))
                return ExitResult.success()
        return self._normal_send("/", 1)

    def bc_bytecodePrimModulo(self, frame, bytecode, operands) -> ExitResult:
        return self._int_division(frame, "\\\\", lambda a, b: a % b)

    def bc_bytecodePrimIntegerDivide(self, frame, bytecode, operands) -> ExitResult:
        return self._int_division(frame, "//", lambda a, b: a // b)

    def bc_bytecodePrimLessThan(self, frame, bytecode, operands) -> ExitResult:
        return self._compare(frame, "<", lambda a, b: a < b)

    def bc_bytecodePrimGreaterThan(self, frame, bytecode, operands) -> ExitResult:
        return self._compare(frame, ">", lambda a, b: a > b)

    def bc_bytecodePrimLessOrEqual(self, frame, bytecode, operands) -> ExitResult:
        return self._compare(frame, "<=", lambda a, b: a <= b)

    def bc_bytecodePrimGreaterOrEqual(self, frame, bytecode, operands) -> ExitResult:
        return self._compare(frame, ">=", lambda a, b: a >= b)

    def bc_bytecodePrimEqual(self, frame, bytecode, operands) -> ExitResult:
        return self._compare(frame, "=", lambda a, b: a == b)

    def bc_bytecodePrimNotEqual(self, frame, bytecode, operands) -> ExitResult:
        return self._compare(frame, "~=", lambda a, b: a != b)

    def bc_bytecodePrimIdenticalTo(self, frame, bytecode, operands) -> ExitResult:
        arg = frame.stack_value(0)
        rcvr = frame.stack_value(1)
        result = self.memory.boolean_object_of(self.memory.are_identical(rcvr, arg))
        frame.pop_then_push(2, result)
        return ExitResult.success()

    def bc_bytecodePrimBitAnd(self, frame, bytecode, operands) -> ExitResult:
        return self._bitwise(frame, "bitAnd:", lambda a, b: a & b)

    def bc_bytecodePrimBitOr(self, frame, bytecode, operands) -> ExitResult:
        return self._bitwise(frame, "bitOr:", lambda a, b: a | b)

    def bc_bytecodePrimBitXor(self, frame, bytecode, operands) -> ExitResult:
        return self._bitwise(frame, "bitXor:", lambda a, b: a ^ b)

    def bc_bytecodePrimBitShift(self, frame, bytecode, operands) -> ExitResult:
        rcvr = frame.stack_value(1)
        arg = frame.stack_value(0)
        memory = self.memory
        if memory.are_integers(rcvr, arg):
            value = memory.integer_value_of(rcvr)
            shift = memory.integer_value_of(arg)
            # Interpreter inlines only non-negative receivers (negative
            # receivers fall back to library code — the behavioural
            # difference the paper reports for bit-wise operations).
            if value >= 0 and -32 <= shift <= 32:
                result = value << shift if shift >= 0 else value >> -shift
                if memory.is_integer_value(result):
                    frame.pop_then_push(2, memory.integer_object_of(result))
                    return ExitResult.success()
        return self._normal_send("bitShift:", 1)

    # ------------------------------------------------------------------
    # arithmetic helpers

    def _arith_binary(self, frame, selector, int_op, float_op) -> ExitResult:
        """Listing 1 shape: int fast path, float fast path, else send."""
        rcvr = frame.stack_value(1)
        arg = frame.stack_value(0)
        memory = self.memory
        if memory.are_integers(rcvr, arg):
            result = int_op(memory.integer_value_of(rcvr), memory.integer_value_of(arg))
            if memory.is_integer_value(result):  # overflow check
                frame.pop_then_push(2, memory.integer_object_of(result))
                return ExitResult.success()
        elif memory.is_float_object(rcvr) and memory.is_float_object(arg):
            result_value = float_op(
                memory.float_value_of(rcvr), memory.float_value_of(arg)
            )
            frame.pop_then_push(2, memory.float_object_of(result_value))
            return ExitResult.success()
        return self._normal_send(selector, 1)

    def _int_division(self, frame, selector, int_op) -> ExitResult:
        rcvr = frame.stack_value(1)
        arg = frame.stack_value(0)
        memory = self.memory
        if memory.are_integers(rcvr, arg):
            divisor = memory.integer_value_of(arg)
            if divisor != 0:
                result = int_op(memory.integer_value_of(rcvr), divisor)
                if memory.is_integer_value(result):
                    frame.pop_then_push(2, memory.integer_object_of(result))
                    return ExitResult.success()
        return self._normal_send(selector, 1)

    def _compare(self, frame, selector, op) -> ExitResult:
        rcvr = frame.stack_value(1)
        arg = frame.stack_value(0)
        memory = self.memory
        if memory.are_integers(rcvr, arg):
            result = op(memory.integer_value_of(rcvr), memory.integer_value_of(arg))
            frame.pop_then_push(2, memory.boolean_object_of(result))
            return ExitResult.success()
        if memory.is_float_object(rcvr) and memory.is_float_object(arg):
            result = op(memory.float_value_of(rcvr), memory.float_value_of(arg))
            frame.pop_then_push(2, memory.boolean_object_of(result))
            return ExitResult.success()
        return self._normal_send(selector, 1)

    def _bitwise(self, frame, selector, op) -> ExitResult:
        rcvr = frame.stack_value(1)
        arg = frame.stack_value(0)
        memory = self.memory
        if memory.are_integers(rcvr, arg):
            a = memory.integer_value_of(rcvr)
            b = memory.integer_value_of(arg)
            # Negative operands fall back to library code in the
            # interpreter (paper Section 5.3, behavioural difference).
            if a >= 0 and b >= 0:
                frame.pop_then_push(2, memory.integer_object_of(op(a, b)))
                return ExitResult.success()
        return self._normal_send(selector, 1)

    # ==================================================================
    # sends

    def bc_sendAt(self, frame, bytecode, operands) -> ExitResult:
        return self._normal_send("at:", 1)

    def bc_sendAtPut(self, frame, bytecode, operands) -> ExitResult:
        return self._normal_send("at:put:", 2)

    def bc_sendSize(self, frame, bytecode, operands) -> ExitResult:
        return self._normal_send("size", 0)

    def bc_sendClass(self, frame, bytecode, operands) -> ExitResult:
        return self._normal_send("class", 0)

    def bc_sendValue(self, frame, bytecode, operands) -> ExitResult:
        return self._normal_send("value", 0)

    def bc_sendNew(self, frame, bytecode, operands) -> ExitResult:
        return self._normal_send("new", 0)

    def bc_sendIsNil(self, frame, bytecode, operands) -> ExitResult:
        # isNil is inlined: identity comparison against nil, no send.
        value = frame.stack_value(0)
        frame.pop_then_push(
            1, self.memory.boolean_object_of(self.memory.is_nil_object(value))
        )
        return ExitResult.success()

    def _send_literal_selector(self, frame, literal_index, argument_count):
        # Touch the argument positions first: a send with missing
        # operands is an invalid frame, not a send.
        frame.stack_value(argument_count)
        selector_oop = frame.method.literal_at(literal_index)
        name = self.symbols.name_of(selector_oop)
        if name is None:
            name = f"selector@{selector_oop:#x}"
        return self._normal_send(name, argument_count)

    def bc_sendLiteralSelector0Args(self, frame, bytecode, operands) -> ExitResult:
        return self._send_literal_selector(frame, bytecode.embedded_index, 0)

    def bc_sendLiteralSelector1Arg(self, frame, bytecode, operands) -> ExitResult:
        return self._send_literal_selector(frame, bytecode.embedded_index, 1)

    def bc_sendLiteralSelector2Args(self, frame, bytecode, operands) -> ExitResult:
        return self._send_literal_selector(frame, bytecode.embedded_index, 2)

    # ==================================================================
    # untestable families (still need handlers for full runs)

    def bc_callPrimitive(self, frame, bytecode, operands) -> ExitResult:
        # Preamble byte-code: in a full run the primitive was already
        # attempted at activation time, so this is a no-op fall-through.
        return ExitResult.success()

    def bc_pushThisContext(self, frame, bytecode, operands) -> ExitResult:
        # Stack-frame reification is unsupported (paper Section 4.3).
        return self._normal_send("thisContext", 0)

    # ==================================================================
    # long-form (operand byte) encodings

    def bc_pushIntegerByte(self, frame, bytecode, operands) -> ExitResult:
        frame.push(self.memory.integer_object_of(_signed_byte(operands[0])))
        return ExitResult.success()

    def bc_pushTemporaryVariableLong(self, frame, bytecode, operands) -> ExitResult:
        frame.push(frame.temp_at(operands[0]))
        return ExitResult.success()

    def bc_storeTemporaryVariableLong(self, frame, bytecode, operands) -> ExitResult:
        frame.temp_at_put(operands[0], frame.stack_value(0))
        return ExitResult.success()

    def bc_pushReceiverVariableLong(self, frame, bytecode, operands) -> ExitResult:
        frame.push(self.memory.fetch_pointer(operands[0], frame.receiver))
        return ExitResult.success()

    def bc_storeReceiverVariableLong(self, frame, bytecode, operands) -> ExitResult:
        self.memory.store_pointer(operands[0], frame.receiver, frame.stack_value(0))
        return ExitResult.success()

    def bc_popIntoTemporaryVariableLong(self, frame, bytecode, operands) -> ExitResult:
        frame.temp_at_put(operands[0], frame.pop())
        return ExitResult.success()


def _handler_names() -> dict[int, str]:
    """Map every opcode to its family handler's name, checking each
    handler exists."""
    names = {}
    for opcode, bytecode in BYTECODE_TABLE.items():
        name = "bc_" + bytecode.family.name
        if not hasattr(Interpreter, name):
            raise BytecodeError(f"no handler for family {bytecode.family.name}")
        names[opcode] = name
    return names


#: Opcode -> ``bc_<family>``.  :meth:`Interpreter.step` resolves the name
#: on every call, so a patched handler (a registry mutant, a test's
#: monkeypatch) is seen even by interpreters built before the patch.
_HANDLER_NAMES = _handler_names()
