"""Property-based differential equivalence on defect-free instructions.

The strongest invariant in the system: for every instruction *without* a
seeded defect, the interpreter and the compiled code must agree on
*arbitrary* inputs — not only on the solver's witnesses.  Hypothesis
drives the random-input generator through the full differential harness.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bytecode.opcodes import bytecode_named
from repro.concolic.explorer import BytecodeInstructionSpec, NativeMethodSpec
from repro.difftest.fuzz import RandomInputGenerator
from repro.difftest.harness import DifferentialTester, Status
from repro.interpreter.primitives import primitive_named
from repro.jit.machine.x86 import X86Backend
from repro.jit.native_templates import NativeMethodCompiler
from repro.jit.stack_to_register import StackToRegisterCogit
from repro.concolic.solver.model import SolverContext

#: Instructions with no seeded defect on the given compiler: any
#: disagreement here is a genuine bug in this reproduction.
CLEAN_BYTECODES = (
    "pushTrue", "pushReceiver", "duplicateTop", "popStackTop",
    "storeTemporaryVariable1", "popIntoTemporaryVariable0", "returnTop",
    "shortJumpIfFalse2", "bytecodePrimIdenticalTo", "sendAt",
)
CLEAN_NATIVES = (
    "primitiveAdd", "primitiveSubtract", "primitiveLessThan",
    "primitiveMultiply", "primitiveDiv", "primitiveAt", "primitiveSize",
    "primitiveIdentical", "primitiveClass", "primitiveNegated",
)


class _Path:
    """Minimal stand-in for a PathResult: the harness needs .model."""

    def __init__(self, model):
        self.model = model
        self.constraints = []


def run_random_inputs(spec, compiler_class, seed, count=6):
    tester = DifferentialTester(spec, compiler_class, [X86Backend()])
    context = SolverContext.from_memory(tester.memory)
    generator = RandomInputGenerator(context, seed=seed)
    outcomes = []
    for _ in range(count):
        model = generator.random_model()
        outcomes += tester.run_path(_Path(model))
    return outcomes


class TestRandomisedEquivalence:
    @pytest.mark.parametrize("name", CLEAN_BYTECODES)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_clean_bytecodes_never_differ(self, name, seed):
        spec = BytecodeInstructionSpec(bytecode_named(name))
        for outcome in run_random_inputs(spec, StackToRegisterCogit, seed):
            assert outcome.status != Status.DIFFERENCE, outcome.describe()

    @pytest.mark.parametrize("name", CLEAN_NATIVES)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_clean_natives_never_differ(self, name, seed):
        spec = NativeMethodSpec(primitive_named(name))
        for outcome in run_random_inputs(spec, NativeMethodCompiler, seed):
            assert outcome.status != Status.DIFFERENCE, outcome.describe()
