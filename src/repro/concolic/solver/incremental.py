"""Incremental solving: canonical slicing, memoization, warm-starting.

This module wraps the raw engine (:mod:`repro.concolic.solver.solver`)
behind the same ``solve()`` / ``solve_status()`` contract, adding three
reuse tiers:

1. **Independence slicing** — the conjunction is split into connected
   components over shared variables and each component is solved on its
   own (:mod:`repro.concolic.solver.canonical`).
2. **Component memoization** — component verdicts/models are cached in
   a bounded LRU keyed by canonical form + solver context + seed +
   constant pool (:mod:`repro.concolic.solver.memo`).  A cached UNSAT
   component short-circuits the whole prefix before any other component
   is solved (UNSAT-core-style reuse).
3. **Prefix warm-starting** (:func:`solve_with_hint`) — the explorer's
   negate-last loop passes the parent path's model; only the component
   containing the negated literal is re-solved, every other component
   reuses the parent's assignments.

Two invariants, both enforced structurally:

* **Determinism.**  Components are *always* solved in their canonical
  alpha-renamed form — cache hit or miss, cache enabled or disabled —
  and models are translated back afterwards.  Caching therefore changes
  only time, never which model is returned.
* **Soundness.**  Every merged model is re-verified against the full
  original conjunction (``model.satisfies``) before being returned; a
  verification failure falls back to a cold joint solve.  No unverified
  model ever escapes, mirroring the raw engine's step 6.

Ablation escape hatch: calls with a non-default ``strategy`` or an
explicit ``max_nodes`` budget bypass all three tiers and hit the raw
engine directly, so the ablation benchmark still measures the raw
search strategies.
"""

from __future__ import annotations

from repro import perf
from repro.concolic import terms
from repro.concolic.solver.canonical import CanonicalConjunction, canonicalize
from repro.concolic.solver.memo import MemoCache, MemoEntry
from repro.concolic.solver.model import Model, SolverContext
from repro.concolic.solver.solver import SolveStats
from repro.concolic.solver.solver import solve_status as raw_solve_status

#: Sentinel distinguishing "use the process-default cache" from an
#: explicit ``cache=None`` (memoization off).
_DEFAULT = object()

_default_cache = MemoCache(maxsize=8192)


def default_cache() -> MemoCache:
    """The process-global component memo used when no cache is passed."""
    return _default_cache


def clear_default_cache() -> None:
    _default_cache.clear()


def record_solver_gauges() -> None:
    """Publish table sizes to the perf recorder (if profiling is on)."""
    perf.gauge("solver.memo_size", len(_default_cache))
    perf.gauge("terms.intern_table_size", terms.intern_table_size())
    hits, misses = terms.intern_stats()
    perf.gauge("terms.intern_hits", hits)
    perf.gauge("terms.intern_misses", misses)


def _context_key(context: SolverContext) -> tuple:
    """Hashable fingerprint of a SolverContext, cached on the instance."""
    key = context.__dict__.get("_memo_key")
    if key is None:
        key = (
            context.small_integer_class_index,
            context.float_class_index,
            context.nil_class_index,
            context.true_class_index,
            context.false_class_index,
            tuple(sorted(context.class_formats.items())),
            tuple(sorted(context.class_is_variable.items())),
            tuple(sorted(context.fixed_slot_counts.items())),
            tuple(context.default_object_classes),
            context.precision_bits,
            context.max_slots,
            context.max_stack,
            context.max_temps,
        )
        object.__setattr__(context, "_memo_key", key)
    return key


def _translate(model_dict: dict, mapping: dict) -> dict:
    """Rename a ``Model.to_dict()`` payload through *mapping*."""

    def name(n):
        return mapping.get(n, n)

    return {
        "kinds": {name(k): v for k, v in model_dict["kinds"].items()},
        "float_values": {name(k): v for k, v in model_dict["float_values"].items()},
        "int_values": {name(k): v for k, v in model_dict["int_values"].items()},
        "aliases": {name(k): name(v) for k, v in model_dict["aliases"].items()},
    }


def _merge_models(context: SolverContext, parts: list) -> Model:
    """Disjoint union of component model dicts (original names)."""
    merged = {"kinds": {}, "float_values": {}, "int_values": {}, "aliases": {}}
    for part in parts:
        for section in merged:
            merged[section].update(part.get(section, {}))
    return Model.from_dict(context, merged)


def _solve_component(component, context, seed, constants, cache):
    """Solve one canonical component, via the memo when available."""
    key = (_context_key(context), seed, constants, component.key)
    if cache is not None:
        entry = cache.get(key)
        if entry is not None:
            perf.incr("solver.memo_hits")
            return entry
        perf.incr("solver.memo_misses")
    model, stats = raw_solve_status(
        list(component.canon_literals),
        context,
        seed,
        extra_constants=constants,
    )
    entry = MemoEntry(
        status=stats.status,
        model=model.to_dict() if model is not None else None,
        nodes=stats.nodes,
        truncated=stats.truncated,
        repair_used=stats.repair_used,
    )
    if cache is not None:
        cache.put(key, entry)
    return entry


def _lookup_components(canon: CanonicalConjunction, context, seed, cache):
    """Peek the memo for every component (one hit/miss count each)."""
    looked = []
    for component in canon.components:
        entry = None
        if cache is not None:
            key = (_context_key(context), seed, canon.constants, component.key)
            entry = cache.get(key)
            if entry is not None:
                perf.incr("solver.memo_hits")
            else:
                perf.incr("solver.memo_misses")
        looked.append((component, entry))
    return looked


def _finish_stats(stats: SolveStats, entries) -> SolveStats:
    for entry in entries:
        stats.nodes += entry.nodes
        stats.truncated = stats.truncated or entry.truncated
        stats.repair_used = stats.repair_used or entry.repair_used
    perf.incr("solver.witness_nodes", stats.nodes)
    return stats


def solve_status(
    literals,
    context: SolverContext,
    seed: int = 0xC0FFEE,
    strategy: str = "backtracking",
    max_nodes: int | None = None,
    extra_constants: tuple = (),
    *,
    cache=_DEFAULT,
) -> tuple:
    """Incremental ``(model, SolveStats)`` under the raw contract.

    ``cache`` selects the component memo: omitted = the process-default
    LRU, ``None`` = memoization disabled (components are still solved
    canonically, so the returned model is identical either way), or an
    explicit :class:`MemoCache`.
    """
    from repro.robustness.faults import maybe_inject

    maybe_inject("solve")
    if strategy != "backtracking" or max_nodes is not None or extra_constants:
        # Ablation / budgeted calls measure the raw engine.
        perf.incr("solver.raw_passthrough")
        return raw_solve_status(
            literals, context, seed, strategy, max_nodes, extra_constants
        )
    with perf.timer("solve"):
        return _solve_status_incremental(list(literals), context, seed, cache)


def _solve_status_incremental(literals, context, seed, cache):
    perf.incr("solver.solve_calls")
    stats = SolveStats()
    if not literals:
        stats.status = "sat"
        return Model(context=context), stats
    if cache is _DEFAULT:
        cache = _default_cache
    canon = canonicalize(literals)
    perf.incr("solver.components", len(canon.components))
    looked = _lookup_components(canon, context, seed, cache)

    # Tier: a cached UNSAT component kills the whole prefix before any
    # other component is solved.
    for component, entry in looked:
        if entry is not None and entry.status == "unsat":
            perf.incr("solver.unsat_shortcircuits")
            stats.status = "unsat"
            return None, _finish_stats(stats, [entry])

    entries = []
    parts = []
    unknown = False
    for component, entry in looked:
        if entry is None:
            entry = _solve_component_cold(component, context, seed, canon, cache)
        entries.append(entry)
        if entry.status == "unsat":
            stats.status = "unsat"
            return None, _finish_stats(stats, entries)
        if entry.status == "unknown":
            unknown = True
            continue
        parts.append(_translate(entry.model, component.inverse))
    if unknown:
        stats.status = "unknown"
        stats.truncated = True
        return None, _finish_stats(stats, entries)

    merged = _merge_models(context, parts)
    if merged.satisfies(literals):
        stats.status = "sat"
        return merged, _finish_stats(stats, entries)
    # Soundness net: component merge failed verification (e.g. aliasing
    # across a flattened hint) — fall back to a cold joint solve.
    perf.incr("solver.merge_fallbacks")
    return raw_solve_status(literals, context, seed)


def _solve_component_cold(component, context, seed, canon, cache):
    model, cstats = raw_solve_status(
        list(component.canon_literals),
        context,
        seed,
        extra_constants=canon.constants,
    )
    entry = MemoEntry(
        status=cstats.status,
        model=model.to_dict() if model is not None else None,
        nodes=cstats.nodes,
        truncated=cstats.truncated,
        repair_used=cstats.repair_used,
    )
    if cache is not None:
        key = (_context_key(context), seed, canon.constants, component.key)
        cache.put(key, entry)
    return entry


def solve(
    literals,
    context: SolverContext,
    seed: int = 0xC0FFEE,
    strategy: str = "backtracking",
    max_nodes: int | None = None,
    extra_constants: tuple = (),
    *,
    cache=_DEFAULT,
) -> Model | None:
    """Incremental drop-in for the raw :func:`solve`."""
    model, _stats = solve_status(
        literals, context, seed, strategy, max_nodes, extra_constants, cache=cache
    )
    return model


def _restrict_model(model: Model, names) -> dict:
    """Project *model* onto *names*, flattening aliases that leave the set."""
    kinds: dict = {}
    float_values: dict = {}
    int_values: dict = {}
    aliases: dict = {}
    for name in names:
        rep = model.representative(name)
        if rep != name and rep in names:
            aliases[name] = rep  # rep's data is copied when the loop visits it
        else:
            kind = model.kinds.get(rep)
            if kind is not None:
                kinds[name] = (
                    kind.tag.value, kind.value, kind.class_index, kind.num_slots
                )
            if rep in model.float_values:
                float_values[name] = model.float_values[rep]
        if name in model.int_values:
            int_values[name] = model.int_values[name]
    return {
        "kinds": kinds,
        "float_values": float_values,
        "int_values": int_values,
        "aliases": aliases,
    }


def solve_with_hint(
    literals,
    context: SolverContext,
    hint: Model | None,
    seed: int = 0xC0FFEE,
    *,
    cache=_DEFAULT,
) -> tuple:
    """Warm-started ``(model, SolveStats)`` for a negate-last child prefix.

    *hint* is the parent path's model: it satisfies every literal of the
    child prefix except (at most) the final, negated one.  Only the
    component containing that literal is re-solved; all other components
    reuse the parent's assignments.  The merged model is verified
    against the full prefix and any failure falls back to a full
    incremental solve — warm-starting can change time, never answers'
    soundness.
    """
    from repro.robustness.faults import maybe_inject

    maybe_inject("solve")
    literals = list(literals)
    if hint is None or not literals:
        return solve_status(literals, context, seed, cache=cache)
    with perf.timer("solve"):
        perf.incr("solver.solve_calls")
        if cache is _DEFAULT:
            cache = _default_cache
        canon = canonicalize(literals)
        perf.incr("solver.components", len(canon.components))
        negated = literals[-1]
        affected = None
        parts = []
        for component in canon.components:
            if affected is None and negated in component.literals:
                affected = component
            else:
                parts.append(_restrict_model(hint, sorted(component.var_names)))
        if affected is None:
            # Should not happen (the negated literal is in the prefix);
            # stay sound by doing the full solve.
            return solve_status(literals, context, seed, cache=cache)

        stats = SolveStats()
        entry = _solve_component(affected, context, seed, canon.constants, cache)
        if entry.status == "unsat":
            stats.status = "unsat"
            return None, _finish_stats(stats, [entry])
        if entry.status == "unknown":
            stats.status = "unknown"
            stats.truncated = True
            return None, _finish_stats(stats, [entry])
        parts.append(_translate(entry.model, affected.inverse))
        merged = _merge_models(context, parts)
        if merged.satisfies(literals):
            perf.incr("solver.warm_hits")
            stats.status = "sat"
            return merged, _finish_stats(stats, [entry])
    # The parent's assignments no longer fit (cross-component aliasing,
    # default-witness interactions): do the full incremental solve.
    perf.incr("solver.warm_fallbacks")
    return solve_status(literals, context, seed, cache=cache)
