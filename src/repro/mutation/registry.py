"""The mutant registry: named, reversible semantic mutation operators.

A :class:`Mutant` is one seeded defect in the system under test — an
interpreter handler, a compiler front-end, or the machine simulator —
installed by monkey-patching the live classes and reverted by
restoring the saved originals.  Mutants are the ground truth of the
detection-recall benchmark (``repro mutate``, see docs/MUTATION.md):
each one is a defect we *know* exists, so "does the campaign report
change?" becomes a measurable recall question.

Design rules every operator follows:

* **Deterministic.**  Applying a mutant is a pure class-attribute swap;
  mutated semantics depend only on the mutant id, never on wall-clock,
  process id or import order.
* **Reversible.**  ``install()`` returns an undo closure that restores
  the exact original attribute objects.  ``activated()`` asserts this
  by construction: originals are captured before patching and restored
  in reverse order, even when the body raises.
* **Reference-counted.**  Activation nests.  The campaign engine
  activates around every cell (:func:`repro.difftest.runner
  .execute_cell`), the triage engine around the whole
  confirm/shrink/emit pass, and replayed reproducers around their
  single execution — any of these may already run inside an outer
  activation (same process, or inherited across ``fork`` by a pool
  worker).  A per-id counter applies the patch only on the 0→1
  transition and reverts on 1→0, so nesting is safe and idempotent.

The operators themselves live in sibling modules
(:mod:`repro.mutation.interpreter_ops`, :mod:`~repro.mutation
.compiler_ops`, :mod:`~repro.mutation.simulator_ops`) and register
here at import time.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from repro import perf

#: The operator families, in report order (paper Table 3 groups the
#: defect corpus the same way: interpreter checks, compiled code,
#: simulation errors).
FAMILIES = ("interpreter", "compiler", "simulator")


@dataclass(frozen=True)
class Mutant:
    """One named, reversible semantic mutation operator.

    ``install`` performs the patch and returns the undo closure; it is
    only ever called through :func:`activated`, which guarantees
    balanced revert.
    """

    id: str
    family: str
    #: Dotted name of the patched attribute (documentation; the patch
    #: itself is whatever ``install`` does).
    target: str
    description: str
    install: Callable[[], Callable[[], None]] = field(repr=False)
    #: Whether the seeded corpus is expected to detect this mutant at
    #: the default budgets — the CI recall gate runs over exactly the
    #: ``expected_caught`` subset (see docs/MUTATION.md).
    expected_caught: bool = True
    #: Triage-convergence bound: the most *new* defect explanations
    #: (distinct (category, cause) pairs beyond the baseline's) this
    #: mutant may create when caught.  One seeded defect should yield
    #: one explanation (the gate default allows two); ``None`` opts a
    #: mutant out — e.g. a register clobber whose phenotype genuinely
    #: spans every generator that uses the register.
    convergence_bound: int | None = 2
    #: Which campaign corpus detects this mutant: ``"main"`` (the
    #: regular four-row evaluation) or ``"stitched"`` (the
    #: template-stitched method corpus, docs/STITCHING.md).  The recall
    #: sweep runs each mutant against its own corpus, with a matching
    #: unmutated baseline per corpus.
    corpus: str = "main"


#: id -> Mutant, in registration order (report order).
MUTANTS: dict[str, Mutant] = {}

_lock = threading.Lock()
#: id -> (active count, undo closure); guarded by ``_lock``.
_active: dict[str, list] = {}


def register(mutant: Mutant) -> Mutant:
    if mutant.id in MUTANTS:
        raise ValueError(f"duplicate mutant id {mutant.id!r}")
    if mutant.family not in FAMILIES:
        raise ValueError(f"unknown mutant family {mutant.family!r}")
    MUTANTS[mutant.id] = mutant
    return mutant


def get(mutant_id: str) -> Mutant:
    try:
        return MUTANTS[mutant_id]
    except KeyError:
        raise KeyError(
            f"unknown mutant {mutant_id!r} (registered: "
            f"{', '.join(all_ids())})"
        )


def all_ids() -> tuple:
    return tuple(MUTANTS)


def by_family(family: str) -> tuple:
    return tuple(m for m in MUTANTS.values() if m.family == family)


def active_ids() -> tuple:
    """Ids currently applied in this process (nesting collapsed)."""
    with _lock:
        return tuple(mid for mid, state in _active.items() if state[0] > 0)


def parse_mutants(values) -> tuple:
    """Validate and dedupe mutant ids from CLI input (order-preserving).

    Raises ``SystemExit`` with the registered inventory on a typo, so
    a misspelt id never runs a silently unmutated campaign (``--only``
    names get the same check in :func:`repro.cli.check_planned`).
    """
    seen: list[str] = []
    for value in values or ():
        for part in str(value).split(","):
            mid = part.strip()
            if not mid:
                continue
            if mid not in MUTANTS:
                raise SystemExit(
                    f"unknown mutant {mid!r}; registered mutants: "
                    + ", ".join(all_ids())
                )
            if mid not in seen:
                seen.append(mid)
    return tuple(seen)


def _apply(mutant_id: str) -> None:
    mutant = get(mutant_id)
    with _lock:
        state = _active.setdefault(mutant_id, [0, None])
        if state[0] == 0:
            state[1] = mutant.install()
            perf.incr("mutation.applied")
        state[0] += 1
        perf.gauge_max("mutation.active", sum(
            1 for entry in _active.values() if entry[0] > 0
        ))


def _revert(mutant_id: str) -> None:
    with _lock:
        state = _active.get(mutant_id)
        if state is None or state[0] == 0:
            raise RuntimeError(f"mutant {mutant_id!r} is not active")
        state[0] -= 1
        if state[0] == 0:
            undo, state[1] = state[1], None
            undo()
            perf.incr("mutation.reverted")


@contextmanager
def suspended():
    """Temporarily revert every active mutant; reapply on exit.

    Reference counts are preserved — only the patches come off — so
    nesting inside any depth of :func:`activated` is balanced.  Used by
    stitched-corpus derivation (:mod:`repro.stitch.corpus`): the corpus
    is a test *asset* and must be derived from unmutated semantics even
    when the surrounding campaign runs under a mutant, or baseline and
    mutated campaigns would execute different plans.

    Single-threaded by design (like activation itself): suspending
    while another thread races ``activated()`` is unsupported.
    """
    with _lock:
        ids = [mid for mid, state in _active.items() if state[0] > 0]
        for mid in reversed(ids):
            state = _active[mid]
            undo, state[1] = state[1], None
            undo()
    try:
        yield
    finally:
        with _lock:
            for mid in ids:
                _active[mid][1] = MUTANTS[mid].install()


@contextmanager
def activated(mutant_ids):
    """Apply *mutant_ids* in order; revert in reverse order on exit.

    Reference-counted per id: nesting (or activation inherited across
    ``fork``) never double-applies and never reverts early.  With an
    empty id tuple this is a no-op, so callers can wrap
    unconditionally with ``activated(config.mutants)``.
    """
    ids = tuple(mutant_ids or ())
    applied: list[str] = []
    try:
        for mid in ids:
            _apply(mid)
            applied.append(mid)
        yield
    finally:
        for mid in reversed(applied):
            _revert(mid)
