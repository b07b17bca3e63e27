"""The triage lab: fresh-world re-execution of failing cells.

Confirmation and shrinking both need to re-run a divergence from
nothing but its serialized candidate facts.  The lab resolves the cell
identity (spec, compiler, backend) from names, re-explores the
instruction deterministically to relocate the failing path by its
constraint signature, and runs each trial in a **fresh**
:class:`DifferentialTester` — fresh heap, fresh simulator, fresh code
cache — so a confirmation run can never be contaminated by state left
behind by the campaign or by a previous trial.

Exploration is cached per instruction (it depends only on the
instruction, as in the campaign engines) but runs with the campaign's
own budgets, so the relocated path is the exact path the campaign
tested.
"""

from __future__ import annotations

from dataclasses import replace

from repro.concolic.explorer import ExplorationCache, PathResult
from repro.difftest.curation import curate_paths
from repro.difftest.defects import classify
from repro.difftest.runner import (
    COMPILERS_BY_NAME,
    execute_cell,
    explore_instruction,
    run_from_data,
    spec_named,
)
from repro.robustness.budgets import Deadline
from repro.robustness.errors import CampaignError, classify_crash, guard


def matches(candidate, comparison) -> bool:
    """Does this fresh execution reproduce the candidate's defect?

    The defect is defined by its full classification — category, cause,
    difference kind — plus the interpreter-exit × machine-outcome pair.
    This is the shrinker's acceptance predicate, so a shrunken input is
    guaranteed to carry the *same* defect signature as the original.
    """
    if comparison is None or not comparison.is_difference:
        return False
    if (comparison.difference_kind or "") != candidate.difference_kind:
        return False
    defect = classify(comparison)
    return (
        defect.category.value == candidate.category
        and defect.cause == candidate.cause
        and comparison.exit_pair == candidate.exit_pair
    )


class TriageLab:
    """Shared resolution + exploration state for one triage pass."""

    def __init__(self, config) -> None:
        # Triage trials must never re-raise into the campaign: crashes
        # during a trial simply mean "did not reproduce".
        self.config = replace(config, fail_fast=False)
        self._explorations = ExplorationCache()

    # ------------------------------------------------------------------
    # path relocation

    def explore(self, instruction: str):
        """Cached full-budget exploration; None if the name does not
        resolve or exploring crashes."""
        try:
            with guard("explorer"):
                spec = spec_named(instruction)
                exploration = self._explorations.get(spec)
                if exploration is None:
                    exploration = explore_instruction(spec, self.config)
                    self._explorations.put(spec, exploration)
        except CampaignError:
            return None
        return exploration

    def locate(self, candidate) -> PathResult | None:
        """Relocate the candidate's failing path by constraint signature.

        Exploration is deterministic, so the relocated path carries the
        same input model the campaign tested.  ``None`` when the record
        carries no path signature or the path no longer appears; an
        empty signature is the empty path condition, and relocates.
        """
        if candidate.path_signature is None:
            return None
        exploration = self.explore(candidate.instruction)
        if exploration is None:
            return None
        for path in curate_paths(exploration.paths):
            if path.signature == candidate.path_signature:
                return path
        return None

    # ------------------------------------------------------------------
    # fresh-world execution

    def run_trial(self, candidate, constraints, model):
        """One differential execution in a brand-new world.

        Returns the :class:`ComparisonResult`, or ``None`` when the
        pipeline itself crashed (a crash is "did not reproduce", never
        a triage failure).

        Runs under the config's active mutants (reference-counted, so
        the activation the triage engine already holds nests): a trial
        replayed against unmutated semantics would never reproduce a
        mutant-seeded defect.
        """
        from repro.mutation import activated

        try:
            with activated(getattr(self.config, "mutants", ())):
                return run_from_data(
                    candidate.instruction, candidate.compiler,
                    candidate.backend, model, constraints,
                    max_sim_steps=self.config.max_sim_steps,
                )
        except CampaignError:
            return None
        except Exception:
            return None

    def run_cell(self, candidate):
        """One fresh full-cell execution (crash confirmation).

        Returns the cell's quarantine entry, or the error it raised,
        when it crashed (confirmation compares their ``error_class``);
        ``None`` if it completed cleanly this time.
        """
        try:
            spec = spec_named(candidate.instruction)
            compiler_class = COMPILERS_BY_NAME[candidate.compiler]
        except Exception:
            return None
        try:
            return execute_cell(
                self.config, Deadline(None), spec, compiler_class,
                ExplorationCache(),
            ).quarantined
        except CampaignError as exc:
            return exc
        except Exception as exc:  # pragma: no cover - guards net these
            return classify_crash(exc, "harness")
