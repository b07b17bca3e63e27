"""Test generation: serialized models, rendered modules, round trips."""

from __future__ import annotations

import pathlib
import re
import subprocess
import sys

import pytest

from repro.bytecode.opcodes import bytecode_named
from repro.concolic.explorer import BytecodeInstructionSpec, NativeMethodSpec
from repro.concolic.solver.model import Kind, KindTag, Model, SolverContext
from repro.concolic.sequences import sequence_spec
from repro.difftest.testgen import (
    GeneratedSuite,
    _slugify,
    generate_test_module,
    write_test_suite,
)
from repro.interpreter.primitives import primitive_named
from repro.jit.native_templates import NativeMethodCompiler
from repro.jit.stack_to_register import StackToRegisterCogit
from repro.memory.bootstrap import bootstrap_memory
from repro.stitch.spec import stitched_spec_named


class TestModelSerialization:
    def test_round_trip(self):
        memory, known = bootstrap_memory(heap_words=256)
        context = SolverContext.from_memory(memory)
        model = Model(
            context=context,
            kinds={
                "recv": Kind(KindTag.SMALL_INT, value=-3),
                "stack0": Kind(KindTag.OBJECT, class_index=known.array.index,
                               num_slots=2),
                "stack1": Kind(KindTag.FLOAT),
            },
            float_values={"stack1": 2.5},
            int_values={"stack_size": 2},
            aliases={"b": "recv"},
        )
        rebuilt = Model.from_dict(context, model.to_dict())
        assert rebuilt.kinds == model.kinds
        assert rebuilt.float_values == model.float_values
        assert rebuilt.int_values == model.int_values
        assert rebuilt.representative("b") == "recv"

    def test_dict_is_literal(self):
        memory, _ = bootstrap_memory(heap_words=256)
        context = SolverContext.from_memory(memory)
        model = Model(context=context,
                      kinds={"a": Kind(KindTag.SMALL_INT, value=1)})
        data = model.to_dict()
        assert eval(repr(data)) == data  # embeddable in generated source


class TestGeneration:
    def test_bytecode_module(self):
        spec = BytecodeInstructionSpec(bytecode_named("bytecodePrimAdd"))
        suite = generate_test_module(spec, StackToRegisterCogit)
        assert suite.test_count >= 5
        assert suite.xfail_count >= 1  # the float optimisation difference
        assert "def test_path_000" in suite.source
        assert "xfail" in suite.source
        compile(suite.source, "<generated>", "exec")  # valid Python

    def test_native_module(self):
        spec = NativeMethodSpec(primitive_named("primitiveAdd"))
        suite = generate_test_module(spec, NativeMethodCompiler)
        assert suite.xfail_count == 0  # no seeded defect in primitiveAdd
        compile(suite.source, "<generated>", "exec")

    def test_write_suite_creates_files(self, tmp_path):
        suites = write_test_suite(
            tmp_path,
            [BytecodeInstructionSpec(bytecode_named("pushTrue"))],
            [StackToRegisterCogit],
        )
        assert len(suites) == 1
        files = list(tmp_path.glob("test_*.py"))
        assert len(files) == 1
        assert (tmp_path / "__init__.py").exists()

    def test_stitched_names_sharing_a_prefix_write_distinct_files(
            self, tmp_path):
        specs = [
            stitched_spec_named(
                "stitch:pushTrue+popStackTop+pushOne+pushTwo+" + tail
            )
            for tail in ("bytecodePrimAdd", "bytecodePrimSubtract")
        ]
        assert _slugify(specs[0].name) == _slugify(specs[1].name)
        suites = write_test_suite(tmp_path, specs, [StackToRegisterCogit])
        assert len(suites) == 2
        assert len(list(tmp_path.glob("test_*.py"))) == 2

    def test_generated_suite_passes_under_pytest(self, tmp_path):
        """End-to-end: generated modules run green under pytest, for a
        primitive, a sequence and a stitched method alike."""
        suites = write_test_suite(
            tmp_path,
            [NativeMethodSpec(primitive_named("primitiveBitAnd"))],
            [NativeMethodCompiler],
        )
        suites += write_test_suite(
            tmp_path,
            [sequence_spec("pushTrue", "popStackTop"),
             stitched_spec_named(
                 "stitch:pushOne+longJump.1+nop+pushTwo+bytecodePrimAdd")],
            [StackToRegisterCogit],
        )
        completed = subprocess.run(
            [sys.executable, "-m", "pytest", str(tmp_path), "-q",
             "--no-header", "-p", "no:cacheprovider"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "xfailed" in completed.stdout  # defects surfaced as xfail
        # Every generated test ran: one per curated path and backend.
        ran = sum(
            int(count) for count in re.findall(
                r"(\d+) (?:passed|xfailed)", completed.stdout.splitlines()[-1]
            )
        )
        assert ran == 2 * sum(suite.test_count for suite in suites) > 0
