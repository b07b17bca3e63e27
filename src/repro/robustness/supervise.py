"""Supervision policy for the parallel engine's worker processes.

Three small, separately testable pieces, all consumed by
:mod:`repro.parallel`:

* :func:`effective_cell_timeout` — the per-cell wall-clock budget the
  parent enforces.  Explicit ``--cell-timeout`` wins; otherwise a
  campaign ``--deadline`` derives a default (a quarter of the
  deadline, floored at one second) so a single hung cell can never
  ride the run to its global budget; with neither, supervision is off.
  Under supervision, workers announce each cell with a ``cell_start``
  heartbeat over their result pipe; a worker whose announced cell is
  still unfinished after the timeout is SIGKILLed by the parent, the
  cell is charged one ``BudgetExhausted`` quarantine entry, and the
  rest of its shard is re-queued.  Unsupervised, workers send no
  heartbeat: nothing would read it.

* :class:`RespawnBackoff` — capped exponential backoff between worker
  respawns, so a systematically dying target (every cell segfaults,
  say) cannot turn the pool into a fork bomb.  The delay doubles on
  each consecutive worker loss and resets as soon as a replacement
  delivers a result.

* :func:`apply_worker_rlimits` — ``RLIMIT_AS``/``RLIMIT_CPU`` applied
  inside the forked child (``--worker-memory-mb``,
  ``--worker-cpu-seconds``).  A failed allocation raises MemoryError
  in-process and classifies as
  :class:`~repro.robustness.errors.WorkerResourceExceeded`; a CPU
  overrun kills the worker with SIGXCPU, which the parent recognizes
  by exit code and classifies the same way instead of as a generic
  ``WorkerCrash``.

At ``-j 1`` the shards run in process and rely on the cooperative
deadline checks; per-cell preemption needs process isolation and is
therefore a `-j N` feature.
"""

from __future__ import annotations

#: Fraction of the campaign deadline used as the derived cell timeout.
DEADLINE_FRACTION = 0.25

#: Floor for the derived timeout: never preempt sub-second cells just
#: because the operator asked for a short campaign deadline.
MIN_DERIVED_TIMEOUT = 1.0

#: First respawn delay after a worker loss, in seconds.
BACKOFF_BASE = 0.05

#: Ceiling on the respawn delay, in seconds.
BACKOFF_CAP = 2.0


def effective_cell_timeout(config) -> float | None:
    """The per-cell wall-clock budget, or None when supervision is off."""
    explicit = getattr(config, "cell_timeout_seconds", None)
    if explicit:
        return float(explicit)
    deadline = getattr(config, "deadline_seconds", None)
    if deadline:
        return max(MIN_DERIVED_TIMEOUT, float(deadline) * DEADLINE_FRACTION)
    return None


class RespawnBackoff:
    """Capped exponential backoff between worker respawns."""

    def __init__(self, base: float = BACKOFF_BASE,
                 cap: float = BACKOFF_CAP) -> None:
        self.base = base
        self.cap = cap
        self.consecutive_failures = 0
        self._ready_at = 0.0

    def current_delay(self) -> float:
        """The delay a failure recorded *now* would impose."""
        if self.consecutive_failures == 0:
            return 0.0
        return min(self.cap,
                   self.base * 2 ** (self.consecutive_failures - 1))

    def record_failure(self, now: float) -> None:
        """A worker was lost (crash, kill, preemption): back off."""
        self.consecutive_failures += 1
        self._ready_at = now + self.current_delay()

    def record_success(self) -> None:
        """A worker delivered a result: the fleet is healthy again."""
        self.consecutive_failures = 0
        self._ready_at = 0.0

    def ready(self, now: float) -> bool:
        return now >= self._ready_at

    def remaining(self, now: float) -> float:
        return max(0.0, self._ready_at - now)


def apply_worker_rlimits(config) -> list[str]:
    """Apply the operator's worker resource limits in a forked child.

    Returns the names of the limits actually applied (for tests and
    logging).  Platforms without the ``resource`` module, or kernels
    refusing the values, degrade to no limit — supervision still
    bounds the cell by wall clock.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX-only module
        return []
    applied = []
    memory_mb = getattr(config, "worker_memory_mb", None)
    if memory_mb:
        limit = int(memory_mb) * 1024 * 1024
        try:
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            applied.append("memory")
        except (ValueError, OSError):  # pragma: no cover - kernel refusal
            pass
    cpu_seconds = getattr(config, "worker_cpu_seconds", None)
    if cpu_seconds:
        # Soft limit delivers SIGXCPU (a recognizable exit code for the
        # parent); the hard limit one second later is the backstop.
        soft = int(cpu_seconds)
        try:
            resource.setrlimit(resource.RLIMIT_CPU, (soft, soft + 1))
            applied.append("cpu")
        except (ValueError, OSError):  # pragma: no cover - kernel refusal
            pass
    return applied
