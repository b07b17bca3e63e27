"""The campaign engine's shards: planning, running, merging.

Every campaign shards its (instruction x compiler x backend) cell grid
by instruction, runs each shard through one cell loop, and merges the
cell records back into the canonical plan order, so aggregate reports
are byte-identical across ``-j`` values.  At ``-j 1`` the shards run
in process; at ``-j N`` in forked worker processes
(:func:`repro.difftest.runner._run_shards` does the set-up, dispatch
and finish):

* :mod:`repro.parallel.shard` — the shard planner: one shard per
  instruction, carrying every compiler cell of that instruction so
  each instruction is explored exactly once (the exploration cache);
  and :func:`resolve_jobs`, the worker count;
* :mod:`repro.parallel.worker` — :func:`serve_shard`, the one cell
  loop (execute, quarantine, journal, store, send), and the worker
  process that pulls shards and serves them;
* :mod:`repro.parallel.pool` — the ``-j N`` scheduler: a
  work-stealing shard queue (idle workers pull the next shard; see
  docs/INCREMENTAL.md), per-worker deadlines, crash detection (a dead
  worker costs one cell; the rest of its shard is re-queued and a
  replacement spawned).  Only ``-j N`` imports it, and with it
  :mod:`multiprocessing`;
* :mod:`repro.parallel.merge` — the deterministic merge of cell
  records into :class:`~repro.difftest.runner.CampaignResult`.
"""

from repro.parallel.shard import (
    Cell,
    Shard,
    plan_cells,
    plan_shards,
    resolve_jobs,
)

__all__ = [
    "Cell",
    "Shard",
    "plan_cells",
    "plan_shards",
    "resolve_jobs",
]
