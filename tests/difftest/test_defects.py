"""Defect classification tests: the encoded manual analysis."""

from __future__ import annotations

import pytest

from repro.concolic.explorer import PathResult
from repro.concolic.solver.model import Model, SolverContext
from repro.concolic.snapshots import OutputSnapshot
from repro.difftest.defects import (
    DefectCategory,
    category_summary,
    classify,
    group_causes,
)
from repro.difftest.harness import ComparisonResult, Status, operand_shape_of
from repro.interpreter.exits import ExitCondition, ExitResult
from repro.jit.machine.simulator import MachineOutcome, OutcomeKind
from repro.memory.bootstrap import bootstrap_memory


@pytest.fixture(scope="module")
def context():
    memory, _ = bootstrap_memory(heap_words=256)
    return SolverContext.from_memory(memory)


def make_path(context, constraints=()):
    from repro.concolic.trace import PathConstraint
    from repro.concolic.terms import Sort, kind_predicate, var

    recorded = [
        PathConstraint(kind_predicate(pred, var(name, Sort.OOP)), taken)
        for pred, name, taken in constraints
    ]
    return PathResult(
        instruction="x",
        kind="bytecode",
        constraints=recorded,
        model=Model(context=context),
        exit=ExitResult.success(),
        output=OutputSnapshot(),
    )


def comparison(kind, difference_kind, interp=None, machine=None, detail="",
               instruction="primitiveFoo", path=None):
    return ComparisonResult(
        instruction=instruction,
        kind=kind,
        compiler="c",
        backend="x86",
        status=Status.DIFFERENCE,
        difference_kind=difference_kind,
        interpreter_condition=None if interp is None else interp.condition,
        outcome_kind=None if machine is None else machine.kind,
        detail=detail,
        operand_shape=(
            "unknown" if path is None else operand_shape_of(path.constraints)
        ),
    )


class TestClassification:
    def test_compile_missing(self):
        defect = classify(
            comparison("native", "compile_missing",
                       instruction="primitiveFFIReadInt8")
        )
        assert defect.category == DefectCategory.MISSING_FUNCTIONALITY
        assert defect.cause == "primitiveFFIReadInt8"

    def test_simulation_error_extracts_register(self):
        defect = classify(
            comparison(
                "native", "simulation_error",
                detail="fault describer has no reflective getter for R11",
            )
        )
        assert defect.category == DefectCategory.SIMULATION_ERROR
        assert defect.cause == "missing-getter:R11"

    def test_machine_fault_is_missing_compiled_check(self):
        defect = classify(
            comparison(
                "native", "machine_fault",
                interp=ExitResult.failure("receiver must be a Float"),
                machine=MachineOutcome(OutcomeKind.FAULT),
            )
        )
        assert defect.category == DefectCategory.MISSING_COMPILED_TYPE_CHECK

    def test_interpreter_laxer_than_compiled(self):
        defect = classify(
            comparison(
                "native", "exit_mismatch",
                interp=ExitResult.success(),
                machine=MachineOutcome(OutcomeKind.STOPPED, marker=1),
                instruction="primitiveAsFloat",
            )
        )
        assert defect.category == DefectCategory.MISSING_INTERPRETER_TYPE_CHECK

    def test_compiled_accepts_more(self):
        defect = classify(
            comparison(
                "native", "exit_mismatch",
                interp=ExitResult.failure("negative operands"),
                machine=MachineOutcome(OutcomeKind.RETURNED),
                instruction="primitiveBitAnd",
            )
        )
        assert defect.category == DefectCategory.BEHAVIOURAL_DIFFERENCE

    def test_wrong_result_is_behavioural(self):
        defect = classify(
            comparison(
                "native", "output_mismatch",
                interp=ExitResult.success(),
                machine=MachineOutcome(OutcomeKind.RETURNED),
                instruction="primitiveMod",
            )
        )
        assert defect.category == DefectCategory.BEHAVIOURAL_DIFFERENCE

    def test_bytecode_send_instead_of_inline(self, context):
        path = make_path(
            context, [("is_small_int", "stack0", True)]
        )
        defect = classify(
            comparison(
                "bytecode", "exit_mismatch",
                interp=ExitResult.success(),
                machine=MachineOutcome(OutcomeKind.TRAMPOLINE,
                                       trampoline="send:+/1"),
                instruction="bytecodePrimAdd",
                path=path,
            )
        )
        assert defect.category == DefectCategory.OPTIMISATION_DIFFERENCE
        assert defect.cause == "bytecodePrimAdd:int-not-inlined"

    def test_bytecode_float_shape(self, context):
        path = make_path(context, [("is_float", "stack0", True)])
        defect = classify(
            comparison(
                "bytecode", "exit_mismatch",
                interp=ExitResult.success(),
                machine=MachineOutcome(OutcomeKind.TRAMPOLINE,
                                       trampoline="send:+/1"),
                instruction="bytecodePrimAdd",
                path=path,
            )
        )
        assert defect.cause == "bytecodePrimAdd:float-not-inlined"

    def test_family_strips_embedded_index(self, context):
        path = make_path(context)
        defect = classify(
            comparison(
                "bytecode", "exit_mismatch",
                interp=ExitResult.success(),
                machine=MachineOutcome(OutcomeKind.TRAMPOLINE,
                                       trampoline="send:x/0"),
                instruction="someFamily7",
                path=path,
            )
        )
        assert defect.cause.startswith("someFamily:")

    def test_match_cannot_be_classified(self):
        result = comparison("native", None)
        result.status = Status.MATCH
        with pytest.raises(ValueError):
            classify(result)


class TestGrouping:
    def test_same_cause_counted_once(self):
        results = [
            comparison("native", "compile_missing", instruction="p")
            for _ in range(5)
        ]
        causes = group_causes(results)
        assert len(causes) == 1
        (defect, grouped), = causes.items()
        assert len(grouped) == 5

    def test_category_summary_counts_causes_not_paths(self):
        results = [
            comparison("native", "compile_missing", instruction="p1"),
            comparison("native", "compile_missing", instruction="p1"),
            comparison("native", "compile_missing", instruction="p2"),
        ]
        summary = category_summary(results)
        assert summary[DefectCategory.MISSING_FUNCTIONALITY] == 2

    def test_non_differences_ignored(self):
        result = comparison("native", None)
        result.status = Status.MATCH
        assert group_causes([result]) == {}


class TestRecordRoundTrip:
    """Classification must survive the journal / worker-pipe format."""

    def _difference(self):
        return ComparisonResult(
            instruction="bytecodePrimAdd",
            kind="bytecode",
            compiler="StackToRegisterCogit",
            backend="x86",
            status=Status.DIFFERENCE,
            difference_kind="exit_mismatch",
            interpreter_condition=ExitCondition.SUCCESS,
            outcome_kind=OutcomeKind.TRAMPOLINE,
            detail="interp success vs trampoline",
            operand_shape="int",
            path_signature=(),
        )

    def replay(self, record):
        return ComparisonResult.from_record(
            record, instruction="bytecodePrimAdd", kind="bytecode",
            compiler="StackToRegisterCogit",
        )

    def test_classify_equal_after_round_trip(self):
        original = self._difference()
        replayed = self.replay(original.to_record())
        assert replayed == original
        assert classify(replayed) == classify(original)

    def test_empty_path_condition_is_a_signature(self):
        """``()`` is the empty path condition, and survives the record;
        only a record without the key carries no signature."""
        record = self._difference().to_record()
        assert record["path_signature"] == []
        assert self.replay(record).path_signature == ()
        del record["path_signature"]
        assert self.replay(record).path_signature is None
        assert "path_signature" not in self.replay(record).to_record()

    def test_pre_existing_records_without_exit_fields_still_load(self):
        """Journals written before the exit fields existed must replay."""
        legacy = {
            "backend": "x86",
            "status": "difference",
            "difference_kind": "exit_mismatch",
            "detail": "old journal line",
        }
        replayed = self.replay(legacy)
        assert replayed.is_difference
        assert replayed.exit_pair == "- x -"
        assert replayed.operand_shape == "unknown"
        assert replayed.path_signature is None
