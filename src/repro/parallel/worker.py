"""The shard function, and the worker process that serves it.

:func:`serve_shard` is the one loop that runs campaign cells: for each
cell of a shard it calls the shared
:func:`~repro.difftest.runner.execute_cell`, which returns the cell
(quarantined when it kept crashing), takes the cell's record, appends
it to the journal (and a clean cell to the result store) and sends it
on.  At ``-j 1`` the parent calls it in process with its own message
handler as ``send``; at ``-j N`` each worker calls it with its pipe's
``conn.send``.

A worker owns a full OS process, so `guard()`'s in-process crash
isolation is upgraded to real process isolation: a segfault,
``os._exit`` or OOM kill takes out the worker, the parent notices the
dead process and charges exactly the in-flight cell (see
:mod:`repro.parallel.pool`).  Everything *recoverable* is still
handled in-worker with the same retry/quarantine policy as ``-j 1``.

Workers are *persistent pullers*: one process serves many shards,
requesting the next one from the parent's dynamic queue whenever it
goes idle (work stealing — see docs/INCREMENTAL.md).  Each shard gets
a fresh :class:`ExplorationCache`, so every instruction is explored
once whatever the worker count, and merge-order determinism is
untouched (the parent merges by plan order, never by arrival order).
A worker inherits the parent's plan rows through ``fork``.

Workers append their records to the shared journal themselves —
journal appends are concurrency-safe
(:mod:`repro.robustness.checkpoint`), and worker-side appends mean a
parent crash loses nothing a worker finished.  The shard function
syncs the journal once when a shard ends, and a worker closes (syncs)
it once when it stops.  With a result cache
attached (``cache_dir``), clean first-attempt cells are also appended
to the persistent store under their semantic fingerprint
(:mod:`repro.incremental.store` — same O_APPEND+CRC discipline, safe
under concurrent workers).

Wire protocol, all plain picklable data.  Shard function -> parent:

* ``("cell_start", key)`` — heartbeat: the cell about to run, sent
  only under supervision (``--cell-timeout``, or a ``--deadline`` that
  derives one: :func:`~repro.robustness.supervise.effective_cell_timeout`
  is not None).  The pool's supervisor starts the per-cell wall clock
  here; a cell whose record never follows within the timeout gets its
  worker SIGKILLed (:mod:`repro.robustness.supervise`).  Unsupervised,
  nothing reads a heartbeat, so none is sent;
* ``("cell", key, record)`` — one completed (or quarantined) cell.
  The record's comparison entries also carry the triage candidate
  payload (path constraint signatures, exit pairs, operand shapes,
  retry counts); the parent runs the whole ``--triage`` pipeline over
  these serialized records (:mod:`repro.triage`), which is what keeps
  triage output identical across ``-j`` values;
* ``("shard_done", cache_hits, cache_misses, stored)`` — one shard
  finished: its exploration-cache accounting and the cells it put in
  the result store.

Worker -> parent, around the shards:

* ``("next",)`` — the worker is idle and wants a shard;
* ``("budget", message)`` — the campaign deadline expired in-worker;
  the shard's remaining cells were not run;
* ``("fail", error_class, message)`` — ``fail_fast`` is set and a cell
  crashed; the parent re-raises;
* ``("done", perf_snapshot | None, learned)`` — the worker is exiting
  cleanly; the perf snapshot dict is present only under ``profile``.
  *learned* lists the ``(key, MemoEntry)`` pairs the worker added to
  the solver's component memo since its fork; the parent puts them in
  its own memo, so the next campaign's workers inherit them through
  ``fork`` as a ``-j 1`` run's later campaigns do.  An entry is a pure
  function of its key, so this changes time, never an answer.

Parent -> worker:

* ``("shard", shard, fingerprints)`` — run this shard; *fingerprints*
  maps the shard's cell keys to semantic fingerprints (empty when the
  result cache is off);
* ``("stop",)`` — no work left; send ``done`` and exit.
"""

from __future__ import annotations

from repro import perf
from repro.concolic.explorer import ExplorationCache
from repro.concolic.solver.incremental import (
    default_cache,
    record_solver_gauges,
)
from repro.difftest.runner import execute_cell
from repro.robustness.budgets import Deadline
from repro.robustness.checkpoint import CampaignJournal
from repro.robustness.errors import BudgetExhausted, CampaignError
from repro.robustness.supervise import (
    apply_worker_rlimits,
    effective_cell_timeout,
)


def run_worker(conn, rows, config, remaining_seconds, journal_path,
               cache_dir=None) -> None:
    """Serve shards pulled from *conn* until the parent says stop.

    ``config.mutants`` crosses the fork boundary with the config;
    activating it here (reference-counted, so the per-cell activation
    inside ``execute_cell`` nests) keeps the whole worker under the
    same mutated semantics as an in-process run of the same config
    (see docs/MUTATION.md).
    """
    from repro.mutation import activated

    with activated(getattr(config, "mutants", ())):
        _run_worker_activated(conn, rows, config, remaining_seconds,
                              journal_path, cache_dir)


def _run_worker_activated(conn, rows, config, remaining_seconds,
                          journal_path, cache_dir) -> None:
    apply_worker_rlimits(config)
    deadline = Deadline(remaining_seconds)
    memo = default_cache()
    inherited = memo.keys()
    journal = CampaignJournal(journal_path) if journal_path else None
    store = None
    if cache_dir:
        from repro.incremental import ResultStore

        store = ResultStore(str(cache_dir))
    if getattr(config, "profile", False):
        perf.enable()
    try:
        conn.send(("next",))
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return
            if message[0] == "stop":
                break
            _tag, shard, fingerprints = message
            try:
                serve_shard(conn.send, rows, config, deadline, journal,
                            store, shard, fingerprints)
            except BudgetExhausted as exc:
                conn.send(("budget", str(exc)))
                return
            except CampaignError as exc:
                # Only reachable with fail_fast: hand the classified
                # error to the parent for re-raising.
                conn.send(("fail", exc.error_class, str(exc)))
                return
            conn.send(("next",))
        snapshot = None
        if perf.enabled():
            record_solver_gauges()
            snapshot = perf.snapshot()
        conn.send(("done", snapshot, memo.entries_since(inherited)))
    finally:
        for log in (journal, store):
            if log is not None:
                log.close()
        conn.close()


def serve_shard(send, rows, config, deadline, journal, store, shard,
                fingerprints) -> None:
    """Run one shard's cells in plan order, sending each record (after
    a ``cell_start`` heartbeat when the cell is supervised).

    A campaign-scoped :class:`BudgetExhausted`, and under
    ``fail_fast`` a cell's crash, propagate to the caller.
    """
    # One cache per shard = one exploration per instruction, shared by
    # every compiler cell of the shard (the shard planner guarantees a
    # shard never spans instructions).
    cache = ExplorationCache()
    before = store.stats.stored if store is not None else 0
    supervised = effective_cell_timeout(config) is not None
    for cell in shard.cells:
        row = rows[cell.row_index]
        if supervised:
            send(("cell_start", cell.key))
        result = execute_cell(config, deadline, row.specs[cell.spec_index],
                              row.compiler_class, cache)
        record = result.to_record(cell.key)
        if journal is not None:
            journal.append(record)
        if store is not None and result.storable:
            fingerprint = fingerprints.get(cell.key)
            if fingerprint:
                store.put(fingerprint, record)
        send(("cell", cell.key, record))
    if journal is not None:
        journal.sync()
    perf.incr("explore.cache_hits", cache.hits)
    perf.incr("explore.cache_misses", cache.misses)
    stored = store.stats.stored - before if store is not None else 0
    send(("shard_done", cache.hits, cache.misses, stored))
