"""Register files and the Cog-style register conventions.

The conventions mirror Cogit's: a receiver/result register, argument
registers, scratch registers for type checks, and a pool the
linear-scan allocator may use.  ``R10`` and ``R11`` are allocatable;
the simulator's reflective fault describer once had no getter for them
— the *simulation error* defect family (paper Section 5.3 found exactly
this kind of missing reflective accessor dynamically), which mutants
``R10``/``R11`` re-seed.
"""

from __future__ import annotations

GENERAL_REGISTERS = tuple(f"R{i}" for i in range(12)) + ("FP", "SP")
FLOAT_REGISTERS = tuple(f"F{i}" for i in range(8))

#: Cog's ReceiverResultReg: receiver on entry, result on return.
RECEIVER_RESULT_REG = "R0"
#: Argument registers for native-method templates (up to 4 arguments).
ARG_REGS = ("R1", "R2", "R3", "R4")
#: Scratch register for type/format checks (Cog's TempReg).
SCRATCH_REG = "R5"
#: Scratch register holding class indices (Cog's ClassReg).
CLASS_REG = "R6"
#: Pool available to the linear-scan register allocator.
ALLOCATABLE_REGS = ("R7", "R8", "R9", "R10", "R11")

FP = "FP"
SP = "SP"


def is_general(name: str) -> bool:
    return name in GENERAL_REGISTERS


def is_float(name: str) -> bool:
    return name in FLOAT_REGISTERS
