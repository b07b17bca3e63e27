"""The JIT compilers under test and their machine substrate.

Mirrors the Pharo VM compiler stack the paper evaluates (Section 4.1):

* a common IR (:mod:`repro.jit.ir`) produced by all front-ends;
* three byte-code front-ends — :class:`SimpleStackBasedCogit`,
  :class:`StackToRegisterCogit`, :class:`RegisterAllocatingCogit` — that
  parse byte-code through abstract interpretation with different stack
  handling strategies;
* a template-based native-method compiler
  (:mod:`repro.jit.native_templates`);
* two machine back-ends (x86-like and ARM32-like encodings) and a CPU
  simulator (:mod:`repro.jit.machine`) standing in for Unicorn.

The compilers contain the *defect corpus* documented in DESIGN.md §6:
genuine code differences with the interpreter that the differential
tester must discover blindly.
"""

from repro.jit.ir import IRInstruction, IRBuilder
from repro.jit.compiler import CompilationUnit
from repro.jit.simple_stack import SimpleStackBasedCogit
from repro.jit.stack_to_register import StackToRegisterCogit
from repro.jit.register_allocating import RegisterAllocatingCogit
from repro.jit.native_templates import NativeMethodCompiler

__all__ = [
    "IRInstruction",
    "IRBuilder",
    "CompilationUnit",
    "SimpleStackBasedCogit",
    "StackToRegisterCogit",
    "RegisterAllocatingCogit",
    "NativeMethodCompiler",
]
