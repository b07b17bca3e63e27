"""Defect identification: grouping differences by root cause.

The paper performed this analysis manually ("we performed defect
identification by manually inspecting and debugging the source code",
Section 5.3) and organized the 91 causes into six families (Table 3).
This module encodes that manual analysis as classification rules:
"because many paths do fail because of a same defect, we count a defect
only once regardless of how many execution paths it lead to a failure".
"""

from __future__ import annotations

import enum
import re
from collections import defaultdict
from dataclasses import dataclass

from repro.difftest.harness import ComparisonResult
from repro.interpreter.exits import ExitCondition
from repro.jit.machine.simulator import OutcomeKind


class DefectCategory(enum.Enum):
    """The six defect families of the paper's Table 3."""

    MISSING_INTERPRETER_TYPE_CHECK = "missing interpreter type check"
    MISSING_COMPILED_TYPE_CHECK = "missing compiled type check"
    OPTIMISATION_DIFFERENCE = "optimisation difference"
    BEHAVIOURAL_DIFFERENCE = "behavioural difference"
    MISSING_FUNCTIONALITY = "missing functionality"
    SIMULATION_ERROR = "simulation error"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class Defect:
    """One classified difference."""

    category: DefectCategory
    #: Stable key identifying the root cause; differences sharing a key
    #: are counted as one defect.
    cause: str


def _family_of(result: ComparisonResult) -> str:
    """Instruction family: strips the embedded index from the name."""
    return result.instruction.rstrip("0123456789")


def classify(result: ComparisonResult) -> Defect:
    """Map one difference to its defect family and cause key."""
    if not result.is_difference:
        raise ValueError("only differences can be classified")

    if result.difference_kind == "compile_missing":
        return Defect(DefectCategory.MISSING_FUNCTIONALITY, result.instruction)

    if result.difference_kind == "simulation_error":
        match = re.search(r"getter for (\w+)", result.detail)
        register = match.group(1) if match else "unknown-register"
        return Defect(
            DefectCategory.SIMULATION_ERROR, f"missing-getter:{register}"
        )

    interp = result.interpreter_condition
    outcome = result.outcome_kind

    if result.difference_kind == "machine_fault":
        # Compiled code crashed where the (safe) interpreter did not:
        # a type/shape check is missing in the compiled code.
        return Defect(
            DefectCategory.MISSING_COMPILED_TYPE_CHECK,
            f"{result.instruction}:unchecked-access",
        )

    if result.kind == "native":
        if interp == ExitCondition.SUCCESS and outcome == OutcomeKind.STOPPED:
            # The compiled code is stricter than the interpreter: the
            # interpreter ran a path it should have rejected.
            return Defect(
                DefectCategory.MISSING_INTERPRETER_TYPE_CHECK,
                f"{result.instruction}:assertion-removed",
            )
        if interp == ExitCondition.FAILURE and outcome == OutcomeKind.RETURNED:
            # Compiled code accepts operands the interpreter rejects.
            return Defect(
                DefectCategory.BEHAVIOURAL_DIFFERENCE,
                f"{result.instruction}:accepts-more",
            )
        if result.difference_kind in ("output_mismatch", "heap_effect_mismatch"):
            # Both engines "succeed" with different results.
            return Defect(
                DefectCategory.BEHAVIOURAL_DIFFERENCE,
                f"{result.instruction}:wrong-result",
            )
        if (
            interp == ExitCondition.SUCCESS
            and outcome is not None
            and outcome != OutcomeKind.RETURNED
        ):
            return Defect(
                DefectCategory.MISSING_COMPILED_TYPE_CHECK,
                f"{result.instruction}:unchecked-access",
            )
        return Defect(DefectCategory.UNCLASSIFIED, result.describe())

    # byte-code differences
    if interp == ExitCondition.SUCCESS and outcome == OutcomeKind.TRAMPOLINE:
        # The interpreter inlines this path; the compiler emits a send:
        # "optimizations exist ... on the interpreter instruction" but
        # not in the compiler.  The cause is per instruction family and
        # operand shape, shared across compilers.
        return Defect(
            DefectCategory.OPTIMISATION_DIFFERENCE,
            f"{_family_of(result)}:{result.operand_shape}-not-inlined",
        )
    if result.difference_kind in ("output_mismatch", "heap_effect_mismatch"):
        return Defect(
            DefectCategory.BEHAVIOURAL_DIFFERENCE,
            f"{result.instruction}:wrong-result",
        )
    return Defect(DefectCategory.UNCLASSIFIED, result.describe())


def group_causes(results) -> dict:
    """Group differences into {Defect -> [ComparisonResult, ...]}."""
    groups: dict[Defect, list] = defaultdict(list)
    for result in results:
        if result.is_difference:
            groups[classify(result)].append(result)
    return dict(groups)


def category_summary(results) -> dict:
    """Category -> number of distinct causes (the paper's Table 3)."""
    causes = group_causes(results)
    summary: dict[DefectCategory, set] = defaultdict(set)
    for defect in causes:
        summary[defect.category].add(defect.cause)
    return {category: len(keys) for category, keys in summary.items()}
