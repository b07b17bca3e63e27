"""A from-scratch constraint solver for concolic path conditions.

The paper uses an external solver with two documented gaps: integers cap
at 56-bit precision and bit-wise operations are unsupported (Section
4.3).  The offline environment here has no SMT solver at all, so this
package implements one scoped to exactly the constraint language the
concolic engine produces: a *conjunction* of literals over

* kind predicates (``is_small_int(v)``, ``is_float(v)``, ...),
* comparisons between integer terms built from ``int_value_of(v)``,
  ``class_index_of(v)``, ``slot_count_of(v)``, frame-size variables and
  arithmetic over them,
* comparisons between float terms,
* identity literals between abstract values.

Decision procedure: enumerate kind assignments (domains are tiny),
resolve class-dependent attributes, refute assignments whose interval
bounds already falsify a comparison, then find witnesses for the
residual numeric constraints by candidate-pool search seeded from the
constants appearing in the constraints.  The solver is sound (every
model is checked by evaluation before being returned) but deliberately
incomplete: a path whose witnesses are not found is reported
unsatisfiable and curated out, mirroring the paper's own curation step.

The public ``solve()`` / ``solve_status()`` entry points go through the
incremental layer (:mod:`repro.concolic.solver.incremental`): canonical
independence slicing, a bounded component memo, and optional prefix
warm-starting (:func:`solve_with_hint`).  The raw single-shot engine
stays importable as ``solve_raw`` / ``solve_status_raw`` for ablations
and strategy-agreement tests.
"""

from repro.concolic.solver.incremental import (
    clear_default_cache,
    default_cache,
    solve,
    solve_status,
    solve_with_hint,
)
from repro.concolic.solver.memo import MemoCache, MemoEntry
from repro.concolic.solver.model import Kind, KindTag, Model, SolverContext
from repro.concolic.solver.solver import UNSAT, SolveStats
from repro.concolic.solver.solver import solve as solve_raw
from repro.concolic.solver.solver import solve_status as solve_status_raw

__all__ = [
    "Kind",
    "KindTag",
    "MemoCache",
    "MemoEntry",
    "Model",
    "SolveStats",
    "SolverContext",
    "clear_default_cache",
    "default_cache",
    "solve",
    "solve_raw",
    "solve_status",
    "solve_status_raw",
    "solve_with_hint",
    "UNSAT",
]
