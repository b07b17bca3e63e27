"""Campaign instrumentation: cheap counters, stage timers, and gauges.

The performance work of the incremental-solving layer (term interning,
conjunction memoization, prefix warm-starting, the exploration cache)
is only trustworthy if its effect is *observable*: a silently broken
cache looks exactly like a working one, just slower.  This package is
the observation layer.

Design constraints, in order:

1. **Off by default, near-free when off.**  Every hot-path hook
   (:func:`incr`, :func:`observe`, :func:`timer`) is one module-global
   load and a ``None`` check when profiling is disabled — cheap enough
   to leave in the solver's inner loops.
2. **Numbers only, never behavior.**  The recorder observes counts and
   wall-clock; it must never influence which model a solver returns or
   which paths an explorer finds.  Campaign reports are byte-identical
   with profiling on and off (asserted by ``tests/perf``).
3. **The same at every ``-j``.**  The campaign snapshots the parent's
   process-global recorder; each pool worker snapshots its own and
   ships the dict over its result pipe, where
   :func:`merge_snapshots` folds them with the parent's (counters and
   timers sum, gauges take the max across processes).

Snapshots are plain dicts (JSON-serializable) with four sections:
``counters`` (monotonic event counts), ``timers`` (seconds per stage),
``timer_calls`` (observations per stage) and ``gauges`` (point-in-time
values such as the term-intern table size).  ``campaign --profile``
renders them via :func:`repro.perf.report.format_profile` and can dump
the raw dict with ``--profile-json``.
"""

from repro.perf.recorder import (
    PerfRecorder,
    active,
    disable,
    enable,
    enabled,
    gauge,
    gauge_max,
    incr,
    merge_snapshots,
    observe,
    snapshot,
    timer,
)

__all__ = [
    "PerfRecorder",
    "active",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "gauge_max",
    "incr",
    "merge_snapshots",
    "observe",
    "snapshot",
    "timer",
]
