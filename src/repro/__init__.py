"""repro — Interpreter-guided differential JIT compiler unit testing.

A from-scratch reproduction of *"Interpreter-guided Differential JIT
Compiler Unit Testing"* (Polito, Tesone, Ducasse — PLDI 2022): a
Pharo-style VM substrate (tagged object memory, byte-code interpreter,
native methods), a concolic meta-interpretation engine with its own
constraint solver, four JIT compiler front-ends over a simulated 32-bit
machine (x86-like and ARM32-like encodings), and the differential test
harness that compares interpreted and compiled behaviour path by path.

Quickstart::

    from repro import explore_bytecode, bytecode_named

    result = explore_bytecode(bytecode_named("bytecodePrimAdd"))
    for path in result.paths:
        print(path.describe())

and differentially::

    from repro import (BytecodeInstructionSpec, StackToRegisterCogit,
                       test_instruction)

    spec = BytecodeInstructionSpec(bytecode_named("bytecodePrimAdd"))
    report = test_instruction(spec, StackToRegisterCogit)
    print(report.differing_paths, "differing paths")

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
scripts regenerating every table and figure of the paper.
"""

from repro.bytecode.opcodes import bytecode_named, testable_bytecodes
from repro.concolic.explorer import (
    BytecodeInstructionSpec,
    ConcolicExplorer,
    ExplorationResult,
    NativeMethodSpec,
    PathResult,
    explore_bytecode,
    explore_native_method,
)
from repro.concolic.sequences import (
    BytecodeSequenceSpec,
    interesting_sequences,
    sequence_spec,
)
from repro.difftest.defects import DefectCategory, classify, group_causes
from repro.difftest.harness import ComparisonResult, DifferentialTester, Status
from repro.difftest.runner import (
    CampaignConfig,
    CompilerReport,
    run_campaign,
    test_instruction,
)
from repro.interpreter.exits import ExitCondition, ExitResult
from repro.interpreter.frame import Frame
from repro.interpreter.interpreter import Interpreter
from repro.interpreter.primitives import primitive_named, testable_primitives
from repro.jit.native_templates import NativeMethodCompiler
from repro.jit.register_allocating import RegisterAllocatingCogit
from repro.jit.simple_stack import SimpleStackBasedCogit
from repro.jit.stack_to_register import StackToRegisterCogit
from repro.memory.bootstrap import bootstrap_memory

__version__ = "1.0.0"

__all__ = [
    "bytecode_named",
    "testable_bytecodes",
    "BytecodeInstructionSpec",
    "ConcolicExplorer",
    "ExplorationResult",
    "NativeMethodSpec",
    "PathResult",
    "explore_bytecode",
    "explore_native_method",
    "BytecodeSequenceSpec",
    "interesting_sequences",
    "sequence_spec",
    "DefectCategory",
    "classify",
    "group_causes",
    "ComparisonResult",
    "DifferentialTester",
    "Status",
    "CampaignConfig",
    "CompilerReport",
    "run_campaign",
    "test_instruction",
    "ExitCondition",
    "ExitResult",
    "Frame",
    "Interpreter",
    "primitive_named",
    "testable_primitives",
    "NativeMethodCompiler",
    "RegisterAllocatingCogit",
    "SimpleStackBasedCogit",
    "StackToRegisterCogit",
    "bootstrap_memory",
    "__version__",
]
