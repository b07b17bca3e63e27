"""Render a perf snapshot as the ``campaign --profile`` report section."""

from __future__ import annotations


def _hit_rate(hits: int, misses: int) -> str:
    total = hits + misses
    if total == 0:
        return "n/a"
    return f"{hits / total:.1%}"


#: (label, hits counter, misses counter) per cache tier, in report order.
_CACHE_TIERS = (
    # The persistent cross-run store: a hit skips the whole cell —
    # exploration, compilation, execution (docs/INCREMENTAL.md).
    ("result cache", "cache.hits", "cache.misses"),
    ("exploration cache", "explore.cache_hits", "explore.cache_misses"),
    ("solver memo", "solver.memo_hits", "solver.memo_misses"),
    ("warm-start", "solver.warm_hits", "solver.warm_fallbacks"),
    # A "hit" is a worklist entry the path tree answered without
    # re-executing (subsumed prefix or replayed model); a "miss" is a
    # fresh concolic execution (= snapshot.create).
    ("snapshot reuse", "snapshot.reuse", "snapshot.create"),
)


def format_profile(snapshot: dict) -> str:
    """Multi-line profile section for the campaign report."""
    counters = snapshot.get("counters", {})
    timers = snapshot.get("timers", {})
    timer_calls = snapshot.get("timer_calls", {})
    gauges = snapshot.get("gauges", {})
    lines = ["Profile (--profile)"]

    lines.append("  cache tiers:")
    for label, hit_key, miss_key in _CACHE_TIERS:
        hits = counters.get(hit_key, 0)
        misses = counters.get(miss_key, 0)
        lines.append(
            f"    {label:<20} hits={hits:>7} misses={misses:>7}"
            f" hit-rate={_hit_rate(hits, misses)}"
        )

    lines.append("  counters:")
    for name in sorted(counters):
        lines.append(f"    {name:<34} {counters[name]:>10}")

    if timers:
        lines.append("  timers:")
        for stage in sorted(timers):
            calls = timer_calls.get(stage, 0)
            lines.append(
                f"    {stage:<20} {timers[stage]:>10.3f}s"
                f" over {calls} call(s)"
            )

    if gauges:
        lines.append("  gauges:")
        for name in sorted(gauges):
            lines.append(f"    {name:<34} {gauges[name]:>10}")

    return "\n".join(lines)


def solver_memo_hit_rate(snapshot: dict) -> float | None:
    """Solver memo hit rate in [0, 1], or None if the tier never ran.

    Used by the CI perf-smoke gate: a rate of exactly 0 over a
    non-trivial campaign means the memo layer silently broke.
    """
    counters = snapshot.get("counters", {})
    hits = counters.get("solver.memo_hits", 0)
    misses = counters.get("solver.memo_misses", 0)
    if hits + misses == 0:
        return None
    return hits / (hits + misses)


def snapshot_reuse_rate(snapshot: dict) -> float | None:
    """Path-tree snapshot reuse rate in [0, 1], or None if idle.

    ``snapshot.reuse`` counts worklist entries the tree answered without
    a concolic execution (subsumed prefixes + replayed models);
    ``snapshot.create`` counts fresh executions.  Used by the CI
    perf-smoke gate next to :func:`solver_memo_hit_rate`: a rate of
    exactly 0 over a non-trivial campaign means the path tree silently
    stopped sharing prefixes.
    """
    counters = snapshot.get("counters", {})
    reused = counters.get("snapshot.reuse", 0)
    created = counters.get("snapshot.create", 0)
    if reused + created == 0:
        return None
    return reused / (reused + created)
