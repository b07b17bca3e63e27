"""Differential harness tests: per-instruction verdicts.

These are the integration tests of the whole pipeline: concolic
exploration -> solving -> materialization -> interpreter execution ->
compilation -> machine execution -> comparison.
"""

from __future__ import annotations

import pytest

from repro.bytecode.opcodes import bytecode_named
from repro.concolic.explorer import BytecodeInstructionSpec, NativeMethodSpec
from repro.difftest.harness import Status
from repro.difftest.runner import CampaignConfig
from repro.difftest.runner import test_instruction as run_instruction_test
from repro.interpreter.primitives import primitive_named
from repro.jit.machine.arm32 import Arm32Backend
from repro.jit.machine.x86 import X86Backend
from repro.jit.native_templates import NativeMethodCompiler
from repro.jit.register_allocating import RegisterAllocatingCogit
from repro.jit.simple_stack import SimpleStackBasedCogit
from repro.jit.stack_to_register import StackToRegisterCogit

X86_ONLY = CampaignConfig(backends=(X86Backend,))


def run(name, compiler, kind="bytecode", config=X86_ONLY):
    if kind == "bytecode":
        spec = BytecodeInstructionSpec(bytecode_named(name))
    else:
        spec = NativeMethodSpec(primitive_named(name))
    return run_instruction_test(spec, compiler, config)


def statuses(result):
    counts = {}
    for comparison in result.comparisons:
        counts[comparison.status] = counts.get(comparison.status, 0) + 1
    return counts


class TestEquivalentInstructions:
    """Instructions without seeded defects must match on every path."""

    @pytest.mark.parametrize("name", [
        "pushTrue", "pushReceiver", "duplicateTop", "popStackTop",
        "storeReceiverVariable1", "popIntoTemporaryVariable0",
        "returnTop", "returnNil", "shortJump2", "longJumpIfTrue",
        "bytecodePrimIdenticalTo", "bytecodePrimBitShift", "sendAtPut",
        "sendLiteralSelector1Arg0", "nop",
    ])
    @pytest.mark.parametrize(
        "compiler",
        [SimpleStackBasedCogit, StackToRegisterCogit, RegisterAllocatingCogit],
        ids=lambda c: c.name,
    )
    def test_no_differences(self, name, compiler):
        result = run(name, compiler)
        assert result.differing_paths == 0

    @pytest.mark.parametrize("name", [
        "primitiveAdd", "primitiveSubtract", "primitiveLessThan",
        "primitiveMultiply", "primitiveDivide", "primitiveDiv",
        "primitiveQuo", "primitiveNegated", "primitiveSign",
        "primitiveAt", "primitiveAtPut", "primitiveSize",
        "primitiveStringAt", "primitiveNew", "primitiveNewWithArg",
        "primitiveInstVarAt", "primitiveIdentical", "primitiveClass",
    ])
    def test_correct_native_templates_match(self, name):
        result = run(name, NativeMethodCompiler, kind="native")
        assert result.differing_paths == 0, [
            c.describe() for c in result.differences()
        ]


class TestSeededDefectsAreFound:
    def test_float_arithmetic_not_inlined(self):
        result = run("bytecodePrimAdd", StackToRegisterCogit)
        diffs = result.differences()
        assert len(diffs) == 1
        assert "trampoline send:+/1" in diffs[0].detail

    def test_simple_misses_integer_prediction_too(self):
        result = run("bytecodePrimAdd", SimpleStackBasedCogit)
        assert result.differing_paths == 2  # int path + float path

    def test_as_float_missing_interpreter_check(self):
        result = run("primitiveAsFloat", NativeMethodCompiler, kind="native")
        diffs = result.differences()
        assert len(diffs) == 1
        assert diffs[0].difference_kind == "exit_mismatch"
        assert "interpreter succeeded" in diffs[0].detail

    def test_float_add_missing_compiled_check_faults(self):
        result = run("primitiveFloatAdd", NativeMethodCompiler, kind="native")
        kinds = {d.difference_kind for d in result.differences()}
        assert "machine_fault" in kinds

    def test_bitand_behavioural_difference(self):
        result = run("primitiveBitAnd", NativeMethodCompiler, kind="native")
        diffs = result.differences()
        assert diffs
        assert all("machine returned" in d.detail for d in diffs)

    def test_mod_wrong_results(self):
        result = run("primitiveMod", NativeMethodCompiler, kind="native")
        kinds = {d.difference_kind for d in result.differences()}
        assert "output_mismatch" in kinds

    def test_ffi_missing_functionality(self):
        result = run("primitiveFFIReadInt32", NativeMethodCompiler, kind="native")
        diffs = result.differences()
        assert diffs
        assert all(d.difference_kind == "compile_missing" for d in diffs)

    def test_simulation_error_with_seeded_describer_gap(self):
        """With the historical R10/R11 describer defect re-seeded, the
        truncation template's wild access surfaces as simulation_error.

        ``test_instruction`` activates ``config.mutants`` itself: no
        caller has to wrap it in ``activated()``."""
        config = CampaignConfig(backends=(X86Backend,),
                                mutants=("R10", "R11"))
        result = run("primitiveFloatTruncated", NativeMethodCompiler,
                     kind="native", config=config)
        kinds = {d.difference_kind for d in result.differences()}
        assert "simulation_error" in kinds
        assert "machine_fault" not in kinds

    def test_machine_fault_on_truncated_with_fixed_describer(self):
        """With the default (fixed) describer table the same defect is
        reported as an ordinary described machine fault."""
        result = run("primitiveFloatTruncated", NativeMethodCompiler,
                     kind="native")
        kinds = {d.difference_kind for d in result.differences()}
        assert "machine_fault" in kinds


class TestExpectedFailures:
    def test_invalid_frame_paths_not_compared(self):
        result = run("duplicateTop", StackToRegisterCogit)
        assert Status.EXPECTED_FAILURE in statuses(result)

    def test_invalid_memory_paths_not_compared(self):
        result = run("pushReceiverVariable3", StackToRegisterCogit)
        assert Status.EXPECTED_FAILURE in statuses(result)


class TestCrossISA:
    def test_differences_shared_across_backends(self):
        """Front-end bugs fail on both back-ends (paper Section 5.3)."""
        config = CampaignConfig(backends=(X86Backend, Arm32Backend))
        result = run("bytecodePrimAdd", StackToRegisterCogit, config=config)
        by_backend = {}
        for comparison in result.comparisons:
            if comparison.is_difference:
                by_backend.setdefault(comparison.backend, 0)
                by_backend[comparison.backend] += 1
        assert by_backend.get("x86") == by_backend.get("arm32") == 1
