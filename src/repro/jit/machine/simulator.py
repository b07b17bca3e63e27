"""The CPU simulator.

Executes decoded machine code against the *same heap* the interpreter
uses, plus a dedicated machine-stack region.  Loads and stores outside
both regions fault — the simulated segmentation fault through which
missing type checks manifest, exactly as the paper reports for the
float native methods.

Trampolines come in two flavours, both living outside the code region:

* **exit trampolines** (sends, mustBeBoolean): reaching one *halts* the
  run and reports which trampoline was hit — the machine-level
  counterpart of the Message Send exit condition;
* **service routines** (float boxing, object allocation): the simulator
  services them inline and execution continues, standing in for Cogit's
  run-time helper calls (ceAllocate...).

Fault reporting is reflective (the paper's *Simulation Error* family):
the describer resolves register accessors through a getter table.
Historically that table was missing entries for R10/R11, so a fault
raised while addressing through those registers crashed the simulation
itself — a defect only dynamic testing finds, and exactly the kind the
paper reports.  The table is now derived from ``GENERAL_REGISTERS`` so
every register is describable; mutants ``R10``/``R11``
(:mod:`repro.mutation.simulator_ops`) re-seed the defect by dropping
their register from a new simulator's table, for the paper-fidelity
benchmarks and the triage tests.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from repro.errors import InvalidMemoryAccess, MachineError, SimulationError
from repro.jit.machine.codecache import CodeCache
from repro.jit.machine.registers import FLOAT_REGISTERS, GENERAL_REGISTERS

STACK_BASE = 0x0040_0000
STACK_WORDS = 4096
STACK_TOP = STACK_BASE + STACK_WORDS * 4

#: Return-address sentinel: RET with this address ends the run.
END_SENTINEL = 0x0FFF_FFF0

TRAMPOLINE_BASE = 0x00F0_0000

_WORD_MASK = 0xFFFF_FFFF


def _signed32(value: int) -> int:
    value &= _WORD_MASK
    return value - 0x1_0000_0000 if value >= 0x8000_0000 else value


class OutcomeKind(enum.Enum):
    RETURNED = "returned"  # RET back to the caller
    STOPPED = "stopped"  # hit a BRK/Stop instruction
    TRAMPOLINE = "trampoline"  # called an exit trampoline (send, ...)
    FAULT = "fault"  # invalid memory access / illegal instruction
    DIVERGED = "diverged"  # step budget exhausted
    BUDGET_EXHAUSTED = "budget_exhausted"  # wall-clock deadline expired


@dataclass(frozen=True)
class MachineOutcome:
    """How one compiled-code execution finished."""

    kind: OutcomeKind
    #: R0 at halt (the result register).
    result: int = 0
    #: BRK marker id for STOPPED outcomes.
    marker: int = 0
    #: Trampoline name for TRAMPOLINE outcomes.
    trampoline: str | None = None
    fault_reason: str | None = None
    steps: int = 0
    #: Machine operand stack contents at halt, bottom to top.
    stack: tuple = ()

    def describe(self) -> str:
        if self.kind == OutcomeKind.TRAMPOLINE:
            return f"trampoline {self.trampoline}"
        if self.kind == OutcomeKind.FAULT:
            return f"fault {self.fault_reason}"
        if self.kind == OutcomeKind.STOPPED:
            return f"stop #{self.marker}"
        if self.kind == OutcomeKind.DIVERGED:
            return f"diverged after {self.steps} steps"
        if self.kind == OutcomeKind.BUDGET_EXHAUSTED:
            return f"budget exhausted after {self.steps} steps"
        return self.kind.value


class TrampolineTable:
    """Named trampolines at stable addresses outside the code region."""

    def __init__(self) -> None:
        self._by_name: dict[str, int] = {}
        self._by_address: dict[int, str] = {}
        self._services: dict[int, object] = {}
        self._next = TRAMPOLINE_BASE

    def exit_trampoline(self, name: str) -> int:
        """Address of a halting trampoline, allocating it if needed."""
        if name not in self._by_name:
            address = self._next
            self._next += 16
            self._by_name[name] = address
            self._by_address[address] = name
        return self._by_name[name]

    def service(self, name: str, handler) -> int:
        """Address of an in-line service routine."""
        if name not in self._by_name:
            address = self._next
            self._next += 16
            self._by_name[name] = address
            self._by_address[address] = name
            self._services[address] = handler
        return self._by_name[name]

    def lookup(self, address: int):
        """(name, handler_or_None) or None when not a trampoline."""
        name = self._by_address.get(address)
        if name is None:
            return None
        return name, self._services.get(address)


class MachineSimulator:
    """A 32-bit register machine sharing the VM heap."""

    def __init__(self, heap, code_cache: CodeCache, trampolines: TrampolineTable):
        self.heap = heap
        self.code_cache = code_cache
        self.trampolines = trampolines
        self.registers = {name: 0 for name in GENERAL_REGISTERS}
        self.fregisters = {name: 0.0 for name in FLOAT_REGISTERS}
        self._stack_words = [0] * STACK_WORDS
        self.flags = {"eq": False, "lt": False, "gt": False}
        self.pc = 0
        # The reflective getter table, derived from the register file so
        # no register is accidentally undescribable.  Mutants R10/R11
        # remove entries to re-seed the paper's Simulation Error family.
        self._fault_getters = {name: name for name in GENERAL_REGISTERS}

    # ------------------------------------------------------------------
    # register access

    def get(self, name: str) -> int:
        if name in self.registers:
            return self.registers[name]
        raise MachineError(f"unknown register {name}")

    def set(self, name: str, value: int) -> None:
        self.registers[name] = _signed32(value)

    def fget(self, name: str) -> float:
        return self.fregisters[name]

    def fset(self, name: str, value: float) -> None:
        self.fregisters[name] = float(value)

    def _describe_fault(self, instruction, address) -> str:
        base = instruction.b if instruction.b is not None else instruction.a
        if base is not None:
            getter = self._fault_getters.get(base)
            if getter is None:
                raise SimulationError(
                    f"fault describer has no reflective getter for {base}"
                )
            base_value = self.get(getter)
            return (
                f"{instruction.op} at address {address:#x} "
                f"(base {base}={base_value:#x})"
            )
        return f"{instruction.op} at address {address:#x}"

    # ------------------------------------------------------------------
    # memory routing

    def read_word(self, address: int) -> int:
        if STACK_BASE <= address < STACK_TOP and address % 4 == 0:
            return self._stack_words[(address - STACK_BASE) // 4]
        return self.heap.read_word(address)  # raises InvalidMemoryAccess

    def write_word(self, address: int, value: int) -> None:
        if STACK_BASE <= address < STACK_TOP and address % 4 == 0:
            self._stack_words[(address - STACK_BASE) // 4] = value & _WORD_MASK
            return
        self.heap.write_word(address, value)

    # ------------------------------------------------------------------
    # operand stack view (for the differential comparison)

    def stack_contents(self) -> tuple:
        """Values between SP and the stack top, bottom to top."""
        sp = self.get("SP")
        if not STACK_BASE <= sp <= STACK_TOP:
            return ()
        count = (STACK_TOP - sp) // 4
        values = []
        for index in range(count):
            values.append(self._stack_words[(sp - STACK_BASE) // 4 + index])
        return tuple(reversed(values))

    # ------------------------------------------------------------------
    # execution

    def reset(self) -> None:
        for name in self.registers:
            self.registers[name] = 0
        for name in self.fregisters:
            self.fregisters[name] = 0.0
        self._stack_words = [0] * STACK_WORDS
        self.flags = {"eq": False, "lt": False, "gt": False}
        self.set("SP", STACK_TOP)

    def run(self, entry: int, max_steps: int = 20_000,
            deadline=None) -> MachineOutcome:
        """Execute from *entry* until a halt condition.

        ``max_steps`` is the hard fuel limit — pathological compiled
        code halts with a :data:`OutcomeKind.DIVERGED` outcome rather
        than looping forever.  ``deadline`` (a
        :class:`repro.robustness.budgets.Deadline`) additionally bounds
        wall-clock time, yielding :data:`OutcomeKind.BUDGET_EXHAUSTED`.
        """
        self.pc = entry
        steps = 0
        while steps < max_steps:
            steps += 1
            if deadline is not None and steps % 128 == 0 and deadline.expired:
                return self._halt(OutcomeKind.BUDGET_EXHAUSTED, steps)
            try:
                instruction, size = self.code_cache.instruction_at(self.pc)
            except MachineError as error:
                return self._halt(OutcomeKind.FAULT, steps, fault=str(error))
            next_pc = self.pc + size
            try:
                halted = self._execute(instruction, next_pc)
            except InvalidMemoryAccess as error:
                reason = self._describe_fault(instruction, error.address)
                return self._halt(OutcomeKind.FAULT, steps, fault=reason)
            except MachineError as error:
                return self._halt(OutcomeKind.FAULT, steps, fault=str(error))
            if halted is not None:
                kind, marker, trampoline = halted
                return self._halt(
                    kind, steps, marker=marker, trampoline=trampoline
                )
        return self._halt(OutcomeKind.DIVERGED, steps)

    def _halt(self, kind, steps, marker=0, trampoline=None, fault=None):
        return MachineOutcome(
            kind=kind,
            result=self.get("R0"),
            marker=marker,
            trampoline=trampoline,
            fault_reason=fault,
            steps=steps,
            stack=self.stack_contents(),
        )

    # ------------------------------------------------------------------

    def _push(self, value: int) -> None:
        sp = self.get("SP") - 4
        if sp < STACK_BASE:
            raise MachineError("machine stack overflow")
        self.set("SP", sp)
        self.write_word(sp, value & _WORD_MASK)

    def _pop(self) -> int:
        sp = self.get("SP")
        if sp >= STACK_TOP:
            raise MachineError("machine stack underflow")
        value = self.read_word(sp)
        self.set("SP", sp + 4)
        return value

    def _set_flags(self, value: int) -> None:
        value = _signed32(value)
        self.flags = {"eq": value == 0, "lt": value < 0, "gt": value > 0}

    def _compare(self, left: int, right: int) -> None:
        left, right = _signed32(left), _signed32(right)
        self.flags = {"eq": left == right, "lt": left < right, "gt": left > right}

    def _fcompare(self, left: float, right: float) -> None:
        if left != left or right != right:  # NaN: unordered
            self.flags = {"eq": False, "lt": False, "gt": False}
            return
        self.flags = {"eq": left == right, "lt": left < right, "gt": left > right}

    _BRANCH_TESTS = {
        "JE": lambda f: f["eq"],
        "JNE": lambda f: not f["eq"],
        "JL": lambda f: f["lt"],
        "JLE": lambda f: f["lt"] or f["eq"],
        "JG": lambda f: f["gt"],
        "JGE": lambda f: f["gt"] or f["eq"],
    }

    def _execute(self, instruction, next_pc):
        """Execute one instruction; returns halt info or None."""
        op = instruction.op
        a, b, imm = instruction.a, instruction.b, instruction.imm
        registers = self

        if op == "MOV_RR":
            registers.set(a, registers.get(b))
        elif op == "MOV_RI":
            registers.set(a, imm)
        elif op == "LOAD":
            registers.set(a, self.read_word(_signed32(registers.get(b) + imm)))
        elif op == "STORE":
            self.write_word(_signed32(registers.get(b) + imm), registers.get(a))
        elif op == "PUSH":
            self._push(registers.get(a))
        elif op == "POP":
            registers.set(a, self._pop())
        elif op in ("ADD", "ADD_RI", "SUB", "SUB_RI", "MUL", "AND", "AND_RI",
                    "OR", "OR_RI", "XOR", "SHL_RI", "SHR_RI", "SAR_RI",
                    "SHL_RR", "SHR_RR", "SAR_RR", "IDIV", "IREM", "NEG"):
            self._alu(op, a, b, imm)
        elif op == "CMP":
            self._compare(registers.get(a), registers.get(b))
        elif op == "CMP_RI":
            self._compare(registers.get(a), imm)
        elif op == "TST_RI":
            self._set_flags(registers.get(a) & imm)
        elif op == "JMP":
            self.pc = next_pc + imm
            return None
        elif op in self._BRANCH_TESTS:
            if self._BRANCH_TESTS[op](self.flags):
                self.pc = next_pc + imm
            else:
                self.pc = next_pc
            return None
        elif op == "CALL":
            target = imm & _WORD_MASK
            hit = self.trampolines.lookup(target)
            if hit is not None:
                name, handler = hit
                if handler is None:
                    return (OutcomeKind.TRAMPOLINE, 0, name)
                handler(self)  # service routine; continue inline
            else:
                self._push(next_pc)
                self.pc = target
                return None
        elif op == "RET":
            address = self._pop() & _WORD_MASK
            if address == END_SENTINEL:
                return (OutcomeKind.RETURNED, 0, None)
            self.pc = address
            return None
        elif op == "BRK":
            return (OutcomeKind.STOPPED, imm, None)
        elif op == "NOP":
            pass
        elif op == "FLOAD":
            base = _signed32(registers.get(b) + imm)
            high = self.read_word(base)
            low = self.read_word(base + 4)
            bits = ((high & _WORD_MASK) << 32) | (low & _WORD_MASK)
            self.fset(a, struct.unpack("<d", struct.pack("<Q", bits))[0])
        elif op == "FSTORE":
            base = _signed32(registers.get(b) + imm)
            bits = struct.unpack("<Q", struct.pack("<d", self.fget(a)))[0]
            self.write_word(base, (bits >> 32) & _WORD_MASK)
            self.write_word(base + 4, bits & _WORD_MASK)
        elif op == "FMOV":
            self.fset(a, self.fget(b))
        elif op in ("FADD", "FSUB", "FMUL", "FDIV"):
            self._falu(op, a, b)
        elif op == "FCMP":
            self._fcompare(self.fget(a), self.fget(b))
        elif op == "FSQRT":
            value = self.fget(b)
            if value < 0.0 or value != value:
                raise MachineError("square root of a negative value")
            self.fset(a, value**0.5)
        elif op == "CVT_IF":
            self.fset(a, float(registers.get(b)))
        elif op == "CVT_FI":
            value = self.fget(b)
            if value != value or abs(value) >= 2**63:
                raise MachineError("float-to-int conversion out of range")
            registers.set(a, int(value))
        else:  # pragma: no cover - OPCODES is exhaustive
            raise MachineError(f"unimplemented op {op}")
        self.pc = next_pc
        return None

    def _alu(self, op, a, b, imm):
        left = self.get(a)
        right = self.get(b) if b is not None else imm
        if op in ("ADD", "ADD_RI"):
            result = left + right
        elif op in ("SUB", "SUB_RI"):
            result = left - right
        elif op == "MUL":
            result = left * right
        elif op in ("AND", "AND_RI"):
            result = (left & _WORD_MASK) & (right & _WORD_MASK)
        elif op in ("OR", "OR_RI"):
            result = (left & _WORD_MASK) | (right & _WORD_MASK)
        elif op == "XOR":
            result = (left & _WORD_MASK) ^ (right & _WORD_MASK)
        elif op in ("SHL_RI", "SHL_RR"):
            result = (left & _WORD_MASK) << (right & 63)
        elif op in ("SHR_RI", "SHR_RR"):
            result = (left & _WORD_MASK) >> (right & 63)
        elif op in ("SAR_RI", "SAR_RR"):
            result = _signed32(left) >> (right & 63)
        elif op == "IDIV":
            if right == 0:
                raise MachineError("integer division by zero")
            quotient = abs(left) // abs(right)
            result = -quotient if (left < 0) != (right < 0) else quotient
        elif op == "IREM":
            if right == 0:
                raise MachineError("integer division by zero")
            quotient = abs(left) // abs(right)
            signed_quotient = -quotient if (left < 0) != (right < 0) else quotient
            result = left - signed_quotient * right
        elif op == "NEG":
            result = -left
        else:  # pragma: no cover
            raise MachineError(f"bad ALU op {op}")
        self.set(a, result)
        self._set_flags(self.get(a))

    def _falu(self, op, a, b):
        left, right = self.fget(a), self.fget(b)
        if op == "FADD":
            result = left + right
        elif op == "FSUB":
            result = left - right
        elif op == "FMUL":
            result = left * right
        else:  # FDIV
            if right == 0.0:
                raise MachineError("float division by zero")
            result = left / right
        self.fset(a, result)
