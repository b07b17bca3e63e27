"""Machine substrate tests: encoders, simulator semantics, faults."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.jit.machine import (
    Arm32Backend,
    CodeCache,
    MachineSimulator,
    OutcomeKind,
    TrampolineTable,
    X86Backend,
)
from repro.jit.machine.isa import label, mi
from repro.jit.machine.simulator import END_SENTINEL, STACK_TOP
from repro.memory.heap import Heap

BACKENDS = [X86Backend(), Arm32Backend()]


def run_code(instructions, backend, *, heap=None, setup=None, max_steps=5000):
    heap = heap or Heap(size_words=256)
    cache = CodeCache()
    trampolines = TrampolineTable()
    code = cache.install(instructions, backend)
    sim = MachineSimulator(heap, cache, trampolines)
    sim.reset()
    sim._push(END_SENTINEL)
    if setup:
        setup(sim)
    outcome = sim.run(code.base_address, max_steps=max_steps)
    return outcome, sim


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
class TestEncoding:
    def test_round_trip(self, backend):
        instructions = [
            mi("MOV_RI", "R0", imm=42),
            mi("ADD_RI", "R0", imm=-2),
            mi("RET"),
        ]
        code = backend.assemble(instructions, 0x1000)
        decoded = [entry[1] for entry in backend.decode(code, 0x1000)]
        assert [d.op for d in decoded] == ["MOV_RI", "ADD_RI", "RET"]
        assert decoded[0].imm == 42
        assert decoded[1].imm == -2

    def test_label_resolution(self, backend):
        instructions = [
            mi("MOV_RI", "R0", imm=0),
            mi("JMP", label="end"),
            mi("MOV_RI", "R0", imm=99),
            label("end"),
            mi("RET"),
        ]
        outcome, _ = run_code(instructions, backend)
        assert outcome.kind == OutcomeKind.RETURNED
        assert outcome.result == 0

    def test_undefined_label_raises(self, backend):
        from repro.errors import MachineError

        with pytest.raises(MachineError):
            backend.assemble([mi("JMP", label="nowhere")], 0x1000)


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
class TestArithmetic:
    def test_add_loop(self, backend):
        # sum 1..5 via a loop
        instructions = [
            mi("MOV_RI", "R0", imm=0),
            mi("MOV_RI", "R1", imm=5),
            label("loop"),
            mi("CMP_RI", "R1", imm=0),
            mi("JE", label="done"),
            mi("ADD", "R0", "R1"),
            mi("SUB_RI", "R1", imm=1),
            mi("JMP", label="loop"),
            label("done"),
            mi("RET"),
        ]
        outcome, _ = run_code(instructions, backend)
        assert outcome.result == 15

    def test_signed_32bit_wrap(self, backend):
        instructions = [
            mi("MOV_RI", "R0", imm=0x7FFFFFFF),
            mi("ADD_RI", "R0", imm=1),
            mi("RET"),
        ]
        outcome, _ = run_code(instructions, backend)
        assert outcome.result == -(2**31)

    def test_idiv_truncates(self, backend):
        instructions = [
            mi("MOV_RI", "R0", imm=-7),
            mi("MOV_RI", "R1", imm=2),
            mi("IDIV", "R0", "R1"),
            mi("RET"),
        ]
        outcome, _ = run_code(instructions, backend)
        assert outcome.result == -3

    def test_division_by_zero_faults(self, backend):
        instructions = [
            mi("MOV_RI", "R0", imm=1),
            mi("MOV_RI", "R1", imm=0),
            mi("IDIV", "R0", "R1"),
            mi("RET"),
        ]
        outcome, _ = run_code(instructions, backend)
        assert outcome.kind == OutcomeKind.FAULT

    def test_shifts(self, backend):
        instructions = [
            mi("MOV_RI", "R0", imm=-16),
            mi("SAR_RI", "R0", imm=2),
            mi("RET"),
        ]
        outcome, _ = run_code(instructions, backend)
        assert outcome.result == -4

    def test_comparison_branches(self, backend):
        instructions = [
            mi("MOV_RI", "R0", imm=3),
            mi("CMP_RI", "R0", imm=5),
            mi("JL", label="less"),
            mi("MOV_RI", "R0", imm=0),
            mi("RET"),
            label("less"),
            mi("MOV_RI", "R0", imm=1),
            mi("RET"),
        ]
        outcome, _ = run_code(instructions, backend)
        assert outcome.result == 1


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
class TestMemoryAndStack:
    def test_heap_load_store(self, backend):
        heap = Heap(size_words=16)
        address = heap.allocate(2)
        instructions = [
            mi("MOV_RI", "R1", imm=address),
            mi("MOV_RI", "R0", imm=1234),
            mi("STORE", "R0", "R1", imm=4),
            mi("LOAD", "R2", "R1", imm=4),
            mi("MOV_RR", "R0", "R2"),
            mi("RET"),
        ]
        outcome, _ = run_code(instructions, backend, heap=heap)
        assert outcome.result == 1234
        assert heap.read_word(address + 4) == 1234

    def test_push_pop(self, backend):
        instructions = [
            mi("MOV_RI", "R0", imm=7),
            mi("PUSH", "R0"),
            mi("MOV_RI", "R0", imm=0),
            mi("POP", "R1"),
            mi("MOV_RR", "R0", "R1"),
            mi("RET"),
        ]
        outcome, _ = run_code(instructions, backend)
        assert outcome.result == 7

    def test_stack_contents_reported(self, backend):
        instructions = [
            mi("MOV_RI", "R0", imm=1),
            mi("PUSH", "R0"),
            mi("MOV_RI", "R0", imm=2),
            mi("PUSH", "R0"),
            mi("BRK", imm=0),
        ]
        outcome, _ = run_code(instructions, backend)
        # END_SENTINEL sits at the bottom; values above it.
        assert outcome.stack[-2:] == (1, 2)

    def test_wild_load_faults(self, backend):
        instructions = [
            mi("MOV_RI", "R1", imm=0x0DEAD000),
            mi("LOAD", "R0", "R1", imm=0),
            mi("RET"),
        ]
        outcome, _ = run_code(instructions, backend)
        assert outcome.kind == OutcomeKind.FAULT
        assert "base R1" in outcome.fault_reason

    def test_fault_through_r10_is_described(self, backend):
        """The getter table is derived from the register file, so a
        fault addressed through R10/R11 is *described*, not a crash."""
        instructions = [
            mi("MOV_RI", "R10", imm=0x0DEAD000),
            mi("LOAD", "R0", "R10", imm=0),
            mi("RET"),
        ]
        outcome, _ = run_code(instructions, backend)
        assert outcome.kind == OutcomeKind.FAULT
        assert "base R10" in outcome.fault_reason

    def test_injected_describer_gap_is_simulation_error(self, backend):
        """The historical R10/R11 defect stays injectable, through
        mutants R10/R11, for the paper-fidelity benchmarks."""
        from repro.mutation import activated

        instructions = [
            mi("MOV_RI", "R10", imm=0x0DEAD000),
            mi("LOAD", "R0", "R10", imm=0),
            mi("RET"),
        ]
        heap = Heap(size_words=16)
        cache = CodeCache()
        code = cache.install(instructions, backend)
        with activated(("R10", "R11")):
            sim = MachineSimulator(heap, cache, TrampolineTable())
        sim.reset()
        sim._push(END_SENTINEL)
        with pytest.raises(SimulationError):
            sim.run(code.base_address)


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
class TestControl:
    def test_brk_reports_marker(self, backend):
        outcome, _ = run_code([mi("BRK", imm=3)], backend)
        assert outcome.kind == OutcomeKind.STOPPED
        assert outcome.marker == 3

    def test_exit_trampoline_halts(self, backend):
        heap = Heap(size_words=16)
        cache = CodeCache()
        trampolines = TrampolineTable()
        send = trampolines.exit_trampoline("send:+/1")
        code = cache.install([mi("CALL", imm=send), mi("RET")], backend)
        sim = MachineSimulator(heap, cache, trampolines)
        sim.reset()
        sim._push(END_SENTINEL)
        outcome = sim.run(code.base_address)
        assert outcome.kind == OutcomeKind.TRAMPOLINE
        assert outcome.trampoline == "send:+/1"

    def test_service_trampoline_continues(self, backend):
        heap = Heap(size_words=16)
        cache = CodeCache()
        trampolines = TrampolineTable()

        def double_r0(sim):
            sim.set("R0", sim.get("R0") * 2)

        service = trampolines.service("double", double_r0)
        code = cache.install(
            [mi("MOV_RI", "R0", imm=21), mi("CALL", imm=service), mi("RET")],
            backend,
        )
        sim = MachineSimulator(heap, cache, trampolines)
        sim.reset()
        sim._push(END_SENTINEL)
        outcome = sim.run(code.base_address)
        assert outcome.kind == OutcomeKind.RETURNED
        assert outcome.result == 42

    def test_call_and_ret_within_code(self, backend):
        instructions = [
            mi("MOV_RI", "R0", imm=1),
            mi("CALL", label="sub"),
            mi("ADD_RI", "R0", imm=1),
            mi("RET"),
            label("sub"),
            mi("ADD_RI", "R0", imm=10),
            mi("RET"),
        ]
        outcome, _ = run_code(instructions, backend)
        assert outcome.result == 12

    def test_diverged_on_infinite_loop(self, backend):
        instructions = [label("spin"), mi("JMP", label="spin")]
        outcome, _ = run_code(instructions, backend, max_steps=100)
        assert outcome.kind == OutcomeKind.DIVERGED


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
class TestFloats:
    def test_float_load_compute_store(self, backend):
        import struct

        heap = Heap(size_words=16)
        address = heap.allocate(4)
        bits = struct.unpack("<Q", struct.pack("<d", 2.5))[0]
        heap.write_word(address, (bits >> 32) & 0xFFFFFFFF)
        heap.write_word(address + 4, bits & 0xFFFFFFFF)
        instructions = [
            mi("MOV_RI", "R1", imm=address),
            mi("FLOAD", "F0", "R1", imm=0),
            mi("FADD", "F0", "F0"),
            mi("FSTORE", "F0", "R1", imm=8),
            mi("RET"),
        ]
        outcome, sim = run_code(instructions, backend, heap=heap)
        assert outcome.kind == OutcomeKind.RETURNED
        high = heap.read_word(address + 8)
        low = heap.read_word(address + 12)
        value = struct.unpack("<d", struct.pack("<Q", (high << 32) | low))[0]
        assert value == 5.0

    def test_int_to_float_conversion(self, backend):
        instructions = [
            mi("MOV_RI", "R1", imm=-3),
            mi("CVT_IF", "F0", "R1"),
            mi("FMOV", "F1", "F0"),
            mi("FMUL", "F1", "F0"),
            mi("CVT_FI", "R0", "F1"),
            mi("RET"),
        ]
        outcome, _ = run_code(instructions, backend)
        assert outcome.result == 9

    def test_fcmp_branches(self, backend):
        instructions = [
            mi("MOV_RI", "R1", imm=1),
            mi("CVT_IF", "F0", "R1"),
            mi("MOV_RI", "R1", imm=2),
            mi("CVT_IF", "F1", "R1"),
            mi("FCMP", "F0", "F1"),
            mi("JL", label="less"),
            mi("MOV_RI", "R0", imm=0),
            mi("RET"),
            label("less"),
            mi("MOV_RI", "R0", imm=1),
            mi("RET"),
        ]
        outcome, _ = run_code(instructions, backend)
        assert outcome.result == 1
