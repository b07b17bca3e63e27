"""Linear-scan register allocation unit tests."""

from __future__ import annotations

import pytest

from repro.errors import CompilerError
from repro.jit.machine import TrampolineTable
from repro.jit.machine.registers import ALLOCATABLE_REGS
from repro.jit.register_allocating import RegisterAllocatingCogit
from repro.memory.bootstrap import bootstrap_memory


@pytest.fixture
def cogit():
    memory, _ = bootstrap_memory(heap_words=1024)
    instance = RegisterAllocatingCogit(memory, TrampolineTable())
    from repro.jit.ir import IRBuilder

    instance.ir = IRBuilder()
    instance.begin_stack()
    return instance


class TestLinearScan:
    def test_virtuals_map_to_allocatable_pool(self, cogit):
        ir = cogit.ir
        ir.move_const("T0", 1)
        ir.move_const("T1", 2)
        ir.alu("add", "T0", "T1")
        mapping = cogit._register_map()
        assert set(mapping) == {"T0", "T1"}
        assert all(reg in ALLOCATABLE_REGS for reg in mapping.values())
        assert mapping["T0"] != mapping["T1"]  # live ranges overlap

    def test_expired_intervals_release_registers(self, cogit):
        ir = cogit.ir
        # T0 dies before T1 is born: they may share a register.
        ir.move_const("T0", 1)
        ir.move("R1", "T0")  # last use of T0
        ir.move_const("T1", 2)
        ir.move("R2", "T1")
        mapping = cogit._register_map()
        assert mapping["T0"] == mapping["T1"] == ALLOCATABLE_REGS[0]

    def test_pressure_beyond_pool_raises(self, cogit):
        ir = cogit.ir
        count = len(ALLOCATABLE_REGS) + 1
        for index in range(count):
            ir.move_const(f"T{index}", index)
        # Keep all alive simultaneously: one instruction using them all.
        for index in range(count):
            ir.alu("add", f"T{index}", f"T{(index + 1) % count}")
        with pytest.raises(CompilerError, match="register pressure"):
            cogit._register_map()

    def test_pool_capacity_is_sufficient(self, cogit):
        ir = cogit.ir
        for index in range(len(ALLOCATABLE_REGS)):
            ir.move_const(f"T{index}", index)
        for index in range(len(ALLOCATABLE_REGS)):
            ir.alu("add", f"T{index}", f"T{(index + 1) % len(ALLOCATABLE_REGS)}")
        mapping = cogit._register_map()
        assert len(set(mapping.values())) == len(ALLOCATABLE_REGS)

    def test_fresh_virtuals_are_unique(self, cogit):
        first = cogit._fresh_virtual()
        second = cogit._fresh_virtual()
        assert first != second


class TestTempCaching:
    def test_temp_register_loads_once(self, cogit):
        reg_a = cogit._temp_register(0)
        reg_b = cogit._temp_register(0)
        assert reg_a == reg_b
        loads = [i for i in cogit.ir.instructions if i.op == "load_frame_temp"]
        assert len(loads) == 1

    def test_distinct_temps_distinct_virtuals(self, cogit):
        assert cogit._temp_register(0) != cogit._temp_register(1)
