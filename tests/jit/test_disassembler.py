"""Machine disassembler tests."""

from __future__ import annotations

import pytest

from repro.jit.machine import Arm32Backend, CodeCache, TrampolineTable, X86Backend
from repro.jit.machine.disassembler import (
    disassemble_code_object,
    format_disassembly,
)
from repro.jit.machine.isa import label, mi

BACKENDS = [X86Backend(), Arm32Backend()]


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
class TestDisassembler:
    def install(self, instructions, backend):
        cache = CodeCache()
        return cache.install(instructions, backend)

    def test_renders_every_instruction(self, backend):
        code = self.install(
            [mi("MOV_RI", "R0", imm=7), mi("ADD", "R0", "R1"), mi("RET")],
            backend,
        )
        lines = disassemble_code_object(code, backend)
        assert len(lines) == 3
        assert "mov_ri" in lines[0].mnemonic
        assert "#7" in lines[0].mnemonic

    def test_branch_targets_are_absolute(self, backend):
        code = self.install(
            [mi("JMP", label="end"), mi("NOP"), label("end"), mi("RET")],
            backend,
        )
        lines = disassemble_code_object(code, backend)
        jump = lines[0]
        assert jump.target == lines[2].address

    def test_call_annotated_with_trampoline_name(self, backend):
        trampolines = TrampolineTable()
        address = trampolines.exit_trampoline("send:+/1")
        code = self.install([mi("CALL", imm=address), mi("RET")], backend)
        lines = disassemble_code_object(code, backend, trampolines)
        assert lines[0].annotation == "send:+/1"

    def test_format_disassembly_header(self, backend):
        code = self.install([mi("RET")], backend)
        text = format_disassembly(code, backend)
        assert text.startswith(f"; {backend.name} code object")
        assert "ret" in text


class TestDisplayRegisters:
    def test_x86_names(self):
        backend = X86Backend()
        code = CodeCache().install([mi("MOV_RR", "R0", "FP")], backend)
        lines = disassemble_code_object(code, backend)
        assert "EAX" in lines[0].mnemonic
        assert "EBP" in lines[0].mnemonic

    def test_arm_names(self):
        backend = Arm32Backend()
        code = CodeCache().install([mi("MOV_RR", "R0", "SP")], backend)
        lines = disassemble_code_object(code, backend)
        assert "r0" in lines[0].mnemonic
        assert "sp" in lines[0].mnemonic

    def test_compiled_instruction_is_readable(self):
        """End to end: disassemble what a Cogit actually generated."""
        from tests.jit.test_compilers import JitWorld
        from repro.jit.stack_to_register import StackToRegisterCogit

        world = JitWorld()
        unit = world.bytecode_unit(
            "bytecodePrimAdd",
            input_stack=[world.memory.integer_object_of(1),
                         world.memory.integer_object_of(2)],
        )
        compiler = StackToRegisterCogit(
            world.memory, world.trampolines, world.symbols
        )
        code = world.code_cache.install(compiler.compile(unit), world.backend)
        text = format_disassembly(code, world.backend, world.trampolines)
        assert "tst_ri" in text  # the checkSmallInteger lowering
        assert "send:+/1" in text  # annotated slow-path call
        assert "brk" in text  # the epilogue markers
