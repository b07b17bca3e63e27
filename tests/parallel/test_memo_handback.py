"""Pool workers hand the solver memo entries they learned back.

A ``-j N`` campaign's workers exit with the campaign.  Their final
``done`` message carries the component memo entries they added since
their fork; the parent puts them in its own memo, and the next
campaign's workers inherit them through ``fork`` — what the one
process of a ``-j 1`` run already does.  A memo entry is a pure
function of its key (DESIGN.md §13), so reports cannot move; that
stays true only while no mutant patches the solver or the terms it
renders into keys.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from dataclasses import replace

from repro.concolic import solver, terms
from repro.concolic.solver.incremental import clear_default_cache
from repro.difftest.report import format_table2, format_table3
from repro.difftest.runner import CampaignConfig, run_campaign
from repro.jit.machine.x86 import X86Backend
from repro.mutation import MUTANTS, activated
from tests.robustness.test_campaign_resilience import cell_summaries

CONFIG = CampaignConfig(max_bytecodes=2, max_natives=1,
                        backends=(X86Backend,))

#: The modules a memo key or entry is computed by.
SOLVER_PACKAGES = ("repro.concolic.solver", "repro.concolic.terms")


def memo_misses(result) -> int:
    return result.perf["counters"].get("solver.memo_misses", 0)


class TestHandBack:
    def test_next_campaign_inherits_what_workers_solved(self):
        clear_default_cache()
        profiled = replace(CONFIG, profile=True)
        first = run_campaign(profiled, jobs=2)
        second = run_campaign(profiled, jobs=2)
        assert memo_misses(first) > 0
        assert memo_misses(second) == 0
        clear_default_cache()
        sequential = run_campaign(CONFIG)
        for result in (first, second):
            assert format_table2(result) == format_table2(sequential)
            assert format_table3(result) == format_table3(sequential)
            assert cell_summaries(result) == cell_summaries(sequential)


def _solver_attributes() -> dict:
    """(module, name) -> object for every module-level attribute of the
    solver and terms modules, and every attribute of their classes."""
    modules = [terms, solver] + [
        importlib.import_module(f"{solver.__name__}.{info.name}")
        for info in pkgutil.iter_modules(solver.__path__)
    ]
    found = {}
    for module in modules:
        for name, value in vars(module).items():
            found[(module.__name__, name)] = value
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    found[(module.__name__, f"{name}.{attr}")] = member
    return found


class TestNoMutantPatchesTheSolver:
    """The memo spans every mutant campaign of a run, at any ``-j``:
    sound only while a mutant cannot change what the solver answers."""

    def test_no_target_lies_in_the_solver(self):
        for mutant in MUTANTS.values():
            assert not mutant.target.startswith(SOLVER_PACKAGES), mutant.id

    def test_activation_leaves_the_solver_untouched(self):
        before = _solver_attributes()
        for mutant_id in MUTANTS:
            with activated((mutant_id,)):
                during = _solver_attributes()
            changed = [key for key, value in before.items()
                       if during.get(key) is not value]
            assert not changed, (mutant_id, changed)
