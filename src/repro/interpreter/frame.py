"""Stack-based VM frames.

A frame holds the receiver, the executing method, the temporaries (which
include the arguments, Smalltalk style) and the operand stack.  This
mirrors the paper's ``AbstractVMFrame`` constraint group (Fig. 3):
``receiver, method, argument_size, arguments, operand_stack_size,
operand_stack``.

All accesses funnel through small methods so that the concolic engine's
frame subclass can observe them; the *base* frame raises
:class:`~repro.errors.InvalidFrameAccess` on under-materialized access,
which maps onto the Invalid Frame exit condition.
"""

from __future__ import annotations

from repro.bytecode.methods import CompiledMethod
from repro.errors import InvalidFrameAccess


class Frame:
    """A concrete interpreter frame."""

    def __init__(
        self,
        receiver: object,
        method: CompiledMethod,
        arguments: list | None = None,
    ) -> None:
        self.receiver = receiver
        self.method = method
        self.pc = 0
        arguments = list(arguments or [])
        if len(arguments) != method.num_args:
            raise InvalidFrameAccess("arguments", len(arguments))
        #: Temporaries: arguments first, then locals (initially nil-less
        #: None placeholders; the interpreter nils them at activation).
        self.temps: list = arguments + [None] * (method.num_temps - method.num_args)
        self.stack: list = []

    # ------------------------------------------------------------------
    # operand stack

    @property
    def stack_depth(self) -> int:
        return len(self.stack)

    def push(self, value: object) -> None:
        self.stack.append(value)

    def pop(self) -> object:
        if not self.stack:
            raise InvalidFrameAccess("operand_stack", -1)
        return self.stack.pop()

    def top(self) -> object:
        return self.stack_value(0)

    def stack_value(self, depth: int) -> object:
        """``internalStackValue:`` — element *depth* below the top."""
        index = len(self.stack) - 1 - depth
        if index < 0:
            raise InvalidFrameAccess("operand_stack", depth)
        return self.stack[index]

    def pop_then_push(self, count: int, value: object) -> None:
        """``internalPop:thenPush:`` — the Listing 1 success-path effect."""
        if count > len(self.stack):
            raise InvalidFrameAccess("operand_stack", count - 1)
        del self.stack[len(self.stack) - count :]
        self.stack.append(value)

    def pop_n(self, count: int) -> None:
        if count > len(self.stack):
            raise InvalidFrameAccess("operand_stack", count - 1)
        if count:
            del self.stack[len(self.stack) - count :]

    # ------------------------------------------------------------------
    # temporaries

    def temp_at(self, index: int) -> object:
        if not 0 <= index < len(self.temps):
            raise InvalidFrameAccess("temps", index)
        value = self.temps[index]
        if value is None:
            raise InvalidFrameAccess("temps", index)
        return value

    def temp_at_put(self, index: int, value: object) -> None:
        if not 0 <= index < len(self.temps):
            raise InvalidFrameAccess("temps", index)
        self.temps[index] = value

    # ------------------------------------------------------------------
    # arguments view (for native methods: receiver + args convention)

    @property
    def argument_count(self) -> int:
        return self.method.num_args

    def snapshot(self) -> dict:
        """Shallow structural copy for before/after comparisons."""
        return {
            "receiver": self.receiver,
            "pc": self.pc,
            "temps": list(self.temps),
            "stack": list(self.stack),
        }
