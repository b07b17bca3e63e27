"""The recorded reference is the reference.

The harness checks every compiled run against the exit and output that
exploration recorded for the path (``PathResult.exit`` /
``PathResult.output``) instead of interpreting the path again.  That
is sound only while the explorer's capture equals a real run.  This
suite interprets every curated path's model afresh in a
:class:`~repro.concolic.explorer.VMWorld`, through the interpretation
the harness itself falls back on, and demands the same exit, stack,
temps, pc, heap writes and returned value.  It also demands a world
whose base heap is the explorer's word for word, so that object
addresses agree.
"""

from __future__ import annotations

import pytest

from repro.concolic.explorer import ConcolicExplorer, VMWorld
from repro.difftest.curation import curate_paths
from repro.difftest.runner import (
    CampaignConfig,
    bytecode_specs,
    native_specs,
    sequence_campaign_rows,
)
from repro.mutation import activated

CONFIG = CampaignConfig()

#: A fixed sample of the instructions whose exploration each
#: interpreter mutant changes (I1 and I3 change no others).
MUTANT_SAMPLES = {
    "I1": ("bytecodePrimAdd", "bytecodePrimSubtract", "bytecodePrimMultiply"),
    "I2": ("primitiveAdd", "primitiveBitShift", "primitiveAt",
           "primitiveAtPut", "primitiveNewWithArg", "primitiveAsFloat",
           "pushReceiverVariable3", "storeReceiverVariable0",
           "bytecodePrimAdd", "bytecodePrimLessThan"),
    "I3": ("primitiveAdd", "primitiveSubtract", "primitiveMultiply",
           "primitiveDivide", "primitiveDiv", "primitiveQuo",
           "primitiveBitShift", "primitiveNegated", "primitiveAbs"),
}


def main_specs() -> list:
    return native_specs(CONFIG) + bytecode_specs(CONFIG)


def observed(exit_result, output) -> dict:
    """Everything the harness compares a compiled run against."""
    return {
        "exit": (exit_result.condition, exit_result.selector,
                 exit_result.argument_count),
        "stack": [value.concrete for value in output.stack],
        "temps": [None if value is None else value.concrete
                  for value in output.temps],
        "pc": output.pc,
        "heap_writes": output.heap_writes,
        "returned": (None if output.returned is None
                     else output.returned.concrete),
    }


def check_recorded_references(specs) -> list:
    """Re-interpret every curated path of *specs* in one fresh world per
    instruction; returns each instruction's ``(signature, exit)`` list."""
    explored = []
    for spec in specs:
        explorer = ConcolicExplorer(
            spec,
            max_iterations=CONFIG.max_iterations,
            max_paths=CONFIG.max_paths_per_instruction,
        )
        explorer_base = explorer.memory.heap.snapshot()
        exploration = explorer.explore()
        world = VMWorld(spec)
        assert world.memory.heap.snapshot() == explorer_base, spec.name
        for path in curate_paths(exploration.paths):
            frame, input_mark = world.materialize(path.model)
            fresh = observed(*world.interpret(frame, input_mark))
            assert fresh == observed(path.exit, path.output), (
                spec.name, path.describe()
            )
        explored.append([
            (path.signature, path.exit.condition) for path in exploration.paths
        ])
    return explored


class TestRecordedReference:
    def test_main_corpus(self):
        explored = check_recorded_references(main_specs())
        assert len(explored) == 299

    def test_sequence_corpus(self):
        specs = sequence_campaign_rows(CONFIG)[0].specs
        explored = check_recorded_references(specs)
        assert len(explored) == len(specs) > 0

    @pytest.mark.parametrize("mutant", sorted(MUTANT_SAMPLES))
    def test_under_interpreter_mutants(self, mutant):
        names = MUTANT_SAMPLES[mutant]
        specs = [spec for spec in main_specs() if spec.name in names]
        assert len(specs) == len(names)
        with activated((mutant,)):
            mutated = check_recorded_references(specs)
        baseline = check_recorded_references(specs)
        # The sample stays meaningful: the mutant reshapes every one of
        # these explorations.
        for spec, before, after in zip(specs, baseline, mutated):
            assert after != before, spec.name
