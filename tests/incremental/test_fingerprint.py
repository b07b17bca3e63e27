"""Semantic fingerprints: determinism and sensitivity.

A fingerprint must be stable across processes (the store is persistent)
and must move exactly when a cell's semantics could move: budget knobs
that change results, the spec's operand shape, the backend set.  Scope
knobs that merely select cells must *not* move it — or narrowing a
campaign would needlessly invalidate the cache.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace

import pytest

from repro.concolic.explorer import BytecodeInstructionSpec, NativeMethodSpec
from repro.bytecode.opcodes import bytecode_named
from repro.difftest.runner import CampaignConfig, campaign_rows
from repro.incremental import cell_fingerprint, plan_fingerprints
from repro.interpreter.primitives import primitive_named
from repro.jit.machine.arm32 import Arm32Backend
from repro.jit.machine.x86 import X86Backend
from repro.jit.stack_to_register import StackToRegisterCogit

CONFIG = CampaignConfig(backends=(X86Backend,))
SPEC = BytecodeInstructionSpec(bytecode_named("bytecodePrimAdd"))


def fingerprint(config=CONFIG, spec=SPEC, compiler=StackToRegisterCogit):
    return cell_fingerprint(spec, compiler, config)


class TestDeterminism:
    def test_stable_within_process(self):
        assert fingerprint() == fingerprint()

    def test_stable_across_processes(self):
        """The store is persistent: a fresh interpreter re-deriving the
        same cell must land on the same hash (no id()/repr addresses,
        no hash randomization leaking in)."""
        script = (
            "from repro.concolic.explorer import BytecodeInstructionSpec\n"
            "from repro.bytecode.opcodes import bytecode_named\n"
            "from repro.difftest.runner import CampaignConfig\n"
            "from repro.incremental import cell_fingerprint\n"
            "from repro.jit.machine.x86 import X86Backend\n"
            "from repro.jit.stack_to_register import StackToRegisterCogit\n"
            "spec = BytecodeInstructionSpec(bytecode_named('bytecodePrimAdd'))\n"
            "config = CampaignConfig(backends=(X86Backend,))\n"
            "print(cell_fingerprint(spec, StackToRegisterCogit, config))\n"
        )
        import os
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        runs = set()
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            )
            runs.add(proc.stdout.strip())
        assert runs == {fingerprint()}

    def test_plan_fingerprints_cover_every_cell(self):
        from repro.parallel.shard import plan_cells

        rows = campaign_rows(CONFIG)
        fps = plan_fingerprints(rows, CONFIG)
        assert set(fps) == {cell.key for cell in plan_cells(rows)}
        assert all(len(fp) == 64 for fp in fps.values())


class TestSensitivity:
    def test_distinct_cells_distinct_fingerprints(self):
        rows = campaign_rows(CONFIG)
        fps = plan_fingerprints(rows, CONFIG)
        assert len(set(fps.values())) == len(fps)

    @pytest.mark.parametrize("knob", [
        dict(max_paths_per_instruction=8),
        dict(max_iterations=7),
        dict(max_sim_steps=123),
        dict(boundary_witnesses=True),
        dict(raw_explorer=True),
        dict(backends=(X86Backend, Arm32Backend)),
        dict(fault_describer_gaps=("R10",)),
    ])
    def test_budget_knobs_invalidate(self, knob):
        assert fingerprint(replace(CONFIG, **knob)) != fingerprint()

    @pytest.mark.parametrize("knob", [
        dict(max_bytecodes=3),
        dict(max_natives=1),
        dict(only=("bytecodePrimAdd",)),
        dict(deadline_seconds=30.0),
        dict(fail_fast=True),
        dict(profile=True),
    ])
    def test_scope_knobs_do_not_invalidate(self, knob):
        """Narrowing or instrumenting a campaign selects cells; it never
        changes what one cell computes."""
        assert fingerprint(replace(CONFIG, **knob)) == fingerprint()

    def test_spec_shape_matters(self):
        add = fingerprint(spec=BytecodeInstructionSpec(
            bytecode_named("bytecodePrimAdd")))
        push = fingerprint(spec=BytecodeInstructionSpec(
            bytecode_named("pushTrue")))
        native = fingerprint(spec=NativeMethodSpec(
            primitive_named("primitiveAdd")))
        assert len({add, push, native}) == 3

    def test_same_family_different_operator_differs(self):
        """primitiveAdd and primitiveSubtract share one factory-made
        code object and differ only in the captured operator — the
        closure-cell hashing must tell them apart."""
        add = fingerprint(spec=NativeMethodSpec(primitive_named("primitiveAdd")))
        sub = fingerprint(spec=NativeMethodSpec(
            primitive_named("primitiveSubtract")))
        assert add != sub

    def test_compiler_matters(self):
        from repro.jit.simple_stack import SimpleStackBasedCogit

        assert fingerprint(compiler=SimpleStackBasedCogit) != fingerprint()

    def test_patched_handler_moves_only_its_cells(self, monkeypatch):
        """``Interpreter.step`` finds handlers by name at run time, so
        the closure walk cannot reach them through it: each cell's own
        ``bc_<family>`` root must carry the patch, and only that one."""
        from repro.interpreter.interpreter import Interpreter

        config = replace(CONFIG, only=("pushTrue", "pushFalse",
                                       "bytecodePrimAdd", "primitiveAdd"))
        rows = campaign_rows(config)
        before = plan_fingerprints(rows, config)
        original = Interpreter.bc_pushTrue

        def patched(self, frame, bytecode, operands):
            return original(self, frame, bytecode, operands)

        monkeypatch.setattr(Interpreter, "bc_pushTrue", patched)
        after = plan_fingerprints(rows, config)
        moved = {key for key in before if before[key] != after[key]}
        assert moved == {key for key in before if key.endswith("::pushTrue")}
        assert len(moved) == 3
