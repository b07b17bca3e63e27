"""Delta-debugging shrinker for confirmed divergences.

Two passes over the exemplar path, both re-validated by fresh
differential executions through :func:`TriageLab.run_trial` and both
accepting a trial only when it reproduces the **same** defect
classification and exit pair (:func:`repro.triage.lab.matches`):

1. **Constraint-prefix shrinking.**  Greedy one-at-a-time removal over
   the path condition, iterated to a fixpoint: drop a constraint,
   re-solve the remaining conjunction through the memoized incremental
   solver, re-run.  Constraints whose removal makes the condition
   unsolvable or the defect vanish are kept.
2. **Shape shrinking.**  The surviving model is minimized
   structurally: operand-stack depth and temp count walk down toward
   zero, and abstract-value kind assignments that the defect does not
   depend on are dropped (their variables fall back to the solver's
   deterministic default witnesses).

Every step is deterministic — fixed iteration order, deterministic
solver, deterministic simulator — so the shrunken shape is
byte-identical across ``-j`` values and repeated runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.concolic.solver import Model, solve
from repro.triage.lab import matches


@dataclass
class ShrinkOutcome:
    """The minimal reproducing input for one cause bucket."""

    #: The surviving path constraints, in original order.
    constraints: tuple
    #: The minimal input model (still satisfies ``constraints``).
    model: Model
    original_count: int
    trials: int

    @property
    def shape(self) -> str:
        """Human-readable shrunken constraint shape for the report."""
        rendered = " AND ".join(str(c) for c in self.constraints)
        return rendered or "(unconstrained)"


def _clone_model(model: Model) -> Model:
    return Model(
        context=model.context,
        kinds=dict(model.kinds),
        float_values=dict(model.float_values),
        int_values=dict(model.int_values),
        aliases=dict(model.aliases),
    )


def _shrink_constraints(lab, candidate, constraints, model):
    """Pass 1: minimal constraint subset, greedy to a fixpoint."""
    context = model.context
    trials = 0
    changed = True
    while changed:
        changed = False
        for index in range(len(constraints)):
            trial = constraints[:index] + constraints[index + 1:]
            trial_model = solve([c.literal for c in trial], context)
            if trial_model is None:
                continue
            trials += 1
            result = lab.run_trial(candidate, trial, trial_model)
            if matches(candidate, result):
                constraints, model = trial, trial_model
                changed = True
                break
    return constraints, model, trials


def _shrink_shape(lab, candidate, constraints, model):
    """Pass 2: minimal operand stack / receiver shape."""
    literals = [c.literal for c in constraints]
    trials = 0

    # Walk frame-size variables down toward zero.
    for var in ("stack_size", "temp_count"):
        current = model.int_values.get(var)
        if not isinstance(current, int) or current <= 0:
            continue
        for value in range(current):
            trial_model = _clone_model(model)
            trial_model.int_values[var] = value
            if not trial_model.satisfies(literals):
                continue
            trials += 1
            result = lab.run_trial(candidate, constraints, trial_model)
            if matches(candidate, result):
                model = trial_model
                break

    # Drop kind assignments the defect does not depend on; the freed
    # variables fall back to deterministic default witnesses.
    for name in sorted(model.kinds):
        trial_model = _clone_model(model)
        del trial_model.kinds[name]
        trial_model.float_values.pop(name, None)
        if not trial_model.satisfies(literals):
            continue
        trials += 1
        result = lab.run_trial(candidate, constraints, trial_model)
        if matches(candidate, result):
            model = trial_model

    return model, trials


def shrink_candidate(lab, candidate, path) -> ShrinkOutcome:
    """Shrink one exemplar path to its minimal reproducing input.

    ``path`` is the relocated :class:`PathResult`; the returned outcome
    always reproduces the candidate's defect (in the worst case it *is*
    the original path, untouched).
    """
    original = tuple(path.constraints)
    constraints, model, trials_a = _shrink_constraints(
        lab, candidate, original, path.model
    )
    model, trials_b = _shrink_shape(lab, candidate, constraints, model)
    return ShrinkOutcome(
        constraints=tuple(constraints),
        model=model,
        original_count=len(original),
        trials=trials_a + trials_b,
    )
