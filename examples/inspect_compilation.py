#!/usr/bin/env python3
"""Inspect what each compiler generates for the same byte-codes.

Compiles an instruction (or sequence) once with each of the three
byte-code compilers, encodes the program on both back-ends and prints
the disassembled machine code side by side.  The interesting comparison is the *code size*: the
StackToRegister compilers eliminate the machine-stack traffic the
simple compiler emits — and a push immediately consumed by a pop
compiles to nothing at all.

Run:  python examples/inspect_compilation.py
"""

from __future__ import annotations

from repro.bytecode.methods import MethodBuilder, SymbolTable
from repro.concolic.sequences import sequence_spec
from repro.jit.compiler import CompilationUnit
from repro.jit.machine import Arm32Backend, CodeCache, TrampolineTable, X86Backend
from repro.jit.machine.disassembler import format_disassembly
from repro.jit.register_allocating import RegisterAllocatingCogit
from repro.jit.simple_stack import SimpleStackBasedCogit
from repro.jit.stack_to_register import StackToRegisterCogit
from repro.memory.bootstrap import bootstrap_memory

COGITS = (SimpleStackBasedCogit, StackToRegisterCogit, RegisterAllocatingCogit)


def compile_and_print(spec) -> None:
    memory, _known = bootstrap_memory(heap_words=2048)
    symbols = SymbolTable(memory)
    trampolines = TrampolineTable()
    trampolines.service("ceAllocateFloat", lambda sim: None)
    method = spec.build_method(memory, symbols)
    unit = CompilationUnit(method=method, sequence=tuple(spec.sequence))
    # The front ends know no ISA: each lowers the unit once, and every
    # back-end encodes that same program.
    lowered = {
        cogit_class.name: cogit_class(memory, trampolines, symbols).compile(unit)
        for cogit_class in COGITS
    }
    for backend in (X86Backend(), Arm32Backend()):
        print("=" * 72)
        print(f"{spec.name}  [{backend.name}]")
        print("=" * 72)
        sizes = {}
        for name, program in lowered.items():
            code = CodeCache().install(program, backend)
            sizes[name] = len(code.code)
            print(f"\n--- {name} ({len(code.code)} bytes)")
            print(format_disassembly(code, backend, trampolines))
        print("\ncode sizes:", ", ".join(f"{k}={v}B" for k, v in sizes.items()))
        simple = sizes["SimpleStackBasedCogit"]
        s2r = sizes["StackToRegisterCogit"]
        if s2r < simple:
            print(f"=> the parse-time stack saved {simple - s2r} bytes "
                  f"({100 * (simple - s2r) / simple:.0f}%)")
        print()


def main() -> None:
    for entries in (
        ("pushTrue", "popStackTop"),
        ("pushOne", "pushTwo", "bytecodePrimAdd"),
    ):
        compile_and_print(sequence_spec(*entries))


if __name__ == "__main__":
    main()
