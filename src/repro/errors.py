"""Shared exception hierarchy for the repro VM.

The exceptions here mirror the *exit conditions* of the paper (Section 3.4)
plus internal error classes.  ``InvalidFrameAccess`` and
``InvalidMemoryAccess`` are raised by the frame/heap substrates and caught
by the concolic engine, which converts them into exit conditions that feed
back into path exploration ("subsequent executions need extra elements").
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class VMError(ReproError):
    """Base class for errors raised while executing VM code."""


class InvalidMemoryAccess(VMError):
    """An out-of-bounds or misaligned heap access was attempted.

    The paper treats these as *expected failures* for (unsafe) byte-code
    instructions and as *errors* for (safe) native methods.
    """

    def __init__(self, address: int, reason: str = "") -> None:
        self.address = address
        self.reason = reason
        super().__init__(f"invalid memory access at {address:#x} {reason}".rstrip())


class InvalidFrameAccess(VMError):
    """A frame slot that no constraint has materialized yet was touched.

    During concolic exploration this signals that "subsequent executions
    need extra elements in the stack" (paper Section 3.4).
    """

    def __init__(self, slot: str, index: int) -> None:
        self.slot = slot
        self.index = index
        super().__init__(f"invalid frame access: {slot}[{index}]")


class UntaggedValueError(VMError):
    """A tagged-integer operation was applied to a non-integer oop."""


class HeapExhausted(VMError):
    """The bump allocator ran out of heap words."""


class BytecodeError(ReproError):
    """Malformed bytecode, unknown opcode, or assembler misuse."""


class CompilerError(ReproError):
    """A JIT front-end could not compile an instruction."""


class NotImplementedInCompiler(CompilerError):
    """The instruction exists in the interpreter but the compiler lacks it.

    This is the paper's "Missing Functionality" defect family: the
    difference is detected at run time by the differential tester.
    """


class MachineError(ReproError):
    """The CPU simulator hit an illegal instruction or machine state."""


class SimulationError(MachineError):
    """An error in the simulation environment itself (paper Section 5.3).

    The paper found two of these: reflective register accessor paths that
    were only reachable dynamically.
    """


