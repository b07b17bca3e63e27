"""Runtime support for emitted standalone reproducers.

An emitted ``repros/<signature>.py`` embeds nothing but plain data —
the cell identity, the expected defect classification, the shrunken
path condition (as recorded text) and the minimal solver model.  This
module turns that data back into one differential execution: rebuild
the frame from the model, run the interpreter and the JIT side by side
in a fresh world, classify the outcome, and compare it against the
expected signature.  No campaign machinery (runner, journal, pool) is
involved — only the harness itself.

Exit-status convention of the generated scripts: **1** when the
divergence reproduces (mirroring ``repro test``, which exits 1 on
differing paths), **0** when it has vanished.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.difftest.defects import classify
from repro.difftest.runner import run_from_data
from repro.triage.signature import exit_pair


class RecordedConstraint:
    """A path constraint replayed from recorded text.

    Renders exactly like the live :class:`PathConstraint` it was
    recorded from, so operand-shape classification and path signatures
    agree between live and replayed runs.
    """

    __slots__ = ("term", "taken")

    def __init__(self, term: str, taken: bool) -> None:
        self.term = term
        self.taken = bool(taken)

    def __str__(self) -> str:
        return self.term if self.taken else f"not({self.term})"

    def __repr__(self) -> str:
        return f"RecordedConstraint({self.term!r}, {self.taken!r})"


@dataclass
class ReplayVerdict:
    """Outcome of replaying one emitted reproducer."""

    reproduced: bool
    expected: dict
    comparison: object = None

    def describe(self) -> str:
        expect = self.expected
        head = (
            f"{expect['instruction']} [{expect['compiler']}/"
            f"{expect['backend']}] expecting {expect['category']} "
            f"({expect['cause']})"
        )
        if self.comparison is None:
            return f"{head}\n  replay crashed before a verdict"
        observed = self.comparison.describe()
        verdict = (
            "DIVERGENCE REPRODUCED" if self.reproduced
            else "divergence vanished"
        )
        return f"{head}\n  observed: {observed}\n  {verdict}"


def replay(expect: dict, model_data: dict, constraints, *,
           max_sim_steps: int = 20_000,
           mutants: tuple = ()) -> ReplayVerdict:
    """One standalone interpreter-vs-JIT execution from recorded data.

    ``mutants`` names registry mutants (docs/MUTATION.md) to activate
    around the execution: a divergence triaged out of a mutated
    campaign only reproduces under the same mutated semantics, so the
    emitted reproducer embeds the campaign's mutant tuple and replays
    it here.
    """
    from repro.mutation import activated

    with activated(tuple(mutants)):
        return _replay_activated(
            expect, model_data, constraints, max_sim_steps=max_sim_steps
        )


def _replay_activated(expect: dict, model_data: dict, constraints, *,
                      max_sim_steps: int) -> ReplayVerdict:
    try:
        comparison = run_from_data(
            expect["instruction"], expect["compiler"], expect["backend"],
            model_data,
            [RecordedConstraint(term, taken) for term, taken in constraints],
            max_sim_steps=max_sim_steps,
        )
    except Exception:
        return ReplayVerdict(reproduced=False, expected=expect)
    reproduced = False
    if comparison.is_difference:
        defect = classify(comparison)
        interp = comparison.interpreter_exit
        outcome = comparison.machine_outcome
        pair = exit_pair(
            None if interp is None else interp.condition.value,
            None if outcome is None else outcome.kind.value,
        )
        reproduced = (
            defect.category.value == expect["category"]
            and defect.cause == expect["cause"]
            and (comparison.difference_kind or "") == expect["difference_kind"]
            and pair == expect["exit_pair"]
        )
    return ReplayVerdict(
        reproduced=reproduced, expected=expect, comparison=comparison
    )
