"""The process pool: a work-stealing shard queue with crash containment.

This is the ``-j N`` half of the campaign engine
(:func:`repro.difftest.runner._run_shards`): the set-up, the shard
function and the finish are the same as at ``-j 1``; only here the
shards run in forked workers instead of in process.  ``jobs``
persistent worker processes are spawned once; each pulls the
next shard from the parent's dynamic queue whenever it goes idle
(``("next",)`` -> ``("shard", ...)``), instead of the old static
one-process-per-shard assignment.  With a warm result cache most
shards vanish before scheduling (their cells were served from the
store), leaving a few expensive stragglers — a dynamic queue keeps
every worker busy until the queue is empty, so wall-clock tracks the
*remaining* work, not the unluckiest static assignment.  The parent
multiplexes over every worker's duplex pipe and process sentinel
(``multiprocessing.connection.wait``), so it reacts to pull requests,
completed cells and dying processes without polling loops.

Determinism is unaffected by scheduling: workers stream records keyed
by cell, and the parent merges them back into canonical plan order
(:mod:`repro.parallel.merge`) — reports are byte-identical across
``-j`` values, with or without cache hits, whatever order shards were
stolen in.

Failure semantics, composing with the PR-2 robustness layer:

* **Recoverable crashes** (exceptions at any pipeline stage) are
  handled *inside* the worker by the shared cell executor — retry with
  reduced budgets, then quarantine — identically to ``-j 1``.
* **Process death** (segfault, ``os._exit``, kill) is detected by the
  parent via the process sentinel: the first cell of the worker's
  *current* shard without a delivered record is charged as a
  ``WorkerCrash`` quarantine, the rest of that shard is re-queued, and
  a replacement worker is spawned while work remains.  A dead worker
  costs one cell, never the run.
* **Deadlines** are enforced twice: each worker rebuilds the remaining
  campaign budget at spawn (`Deadline.child` semantics — monotonic
  clocks do not cross ``fork``), and the parent uses the same deadline
  as its ``wait`` timeout, terminating workers that outlive it (a hung
  worker cannot outlive the budget).  Expiry stops the campaign
  cleanly with ``budget_exhausted`` set; a journal makes it resumable.
* **Per-cell supervision** (:mod:`repro.robustness.supervise`): when
  an effective ``--cell-timeout`` is set (explicit flag, or a quarter
  of the deadline), each worker announces the cell it is about to run
  with a ``cell_start`` heartbeat; unsupervised, it sends none.  When
  a cell outlives the timeout, the parent SIGKILLs the worker, charges
  that one cell a ``BudgetExhausted`` quarantine entry, re-queues the
  rest of the shard, and respawns under capped exponential backoff — a
  hung cell costs ``--cell-timeout``, not the whole campaign deadline.
  A worker killed by ``SIGXCPU`` (``--worker-cpu-seconds``) is
  classified ``WorkerResourceExceeded`` rather than a generic
  ``WorkerCrash``.
* **Checkpointing**: workers append their own records to the journal
  (appends are single-``write`` and checksummed, safe under concurrent
  writers); the parent journals only the ``WorkerCrash`` cells it
  synthesizes.  ``--resume`` therefore works on a journal written at
  any mix of ``-j`` values.
* **Result cache**: cache *lookups* happen in the parent before
  planning (a fully-warm campaign forks zero workers); cache-missed
  shards carry their cells' fingerprints to the worker, which appends
  clean results to the store itself (:mod:`repro.incremental.store`)
  and reports how many it stored with each ``shard_done``.
* **Solver memo**: a worker inherits the parent's component memo
  through ``fork``, and its final ``done`` message hands back the
  entries it added; the parent keeps them, so the next campaign's
  workers start with everything this one solved, as the later
  campaigns of a ``-j 1`` run do.  An entry is a pure function of its
  key, so only time moves.
* **Triage**: the pool never triages.  ``--triage`` confirmation,
  shrinking and reproducer emission all run in the parent after the
  merge, over the same serialized cell records the workers shipped
  (:mod:`repro.triage`).  Journaled triage state rides in the same
  file under ``triage::`` keys; the runner's planned-key filter keeps
  those records invisible to cell resume.
"""

from __future__ import annotations

import errno
import multiprocessing
import signal
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection

from repro import perf
from repro.concolic.solver.incremental import default_cache
from repro.robustness import errors as error_taxonomy
from repro.robustness.errors import (
    BudgetExhausted,
    CampaignError,
    WorkerCrash,
    WorkerResourceExceeded,
)
from repro.robustness.supervise import RespawnBackoff, effective_cell_timeout


#: Errnos a dying worker's pipe is expected to produce; anything else
#: on a drain/close path is still contained but counted and warned
#: about (``pool.unexpected_io_errors``) instead of silently swallowed.
EXPECTED_PIPE_ERRNOS = frozenset(
    {errno.EPIPE, errno.ECONNRESET, errno.ESHUTDOWN}
)

_PIPE_ERRORS = {"count": 0, "warned": False}


def unexpected_io_errors() -> int:
    """Unexpected pipe errors swallowed since the current run started."""
    return _PIPE_ERRORS["count"]


def _reset_pipe_errors() -> None:
    _PIPE_ERRORS["count"] = 0
    _PIPE_ERRORS["warned"] = False


def _note_pipe_error(error: BaseException, where: str) -> None:
    """Account for an error swallowed on a worker-pipe path.

    ``BrokenPipeError``/``ConnectionResetError``/``EOFError`` (and raw
    ``OSError`` with the matching errnos) are the modelled death throes
    of a worker pipe.  Anything else is unexpected: count it, warn once
    per run, and keep containing it — a bad pipe must never be worth
    more than the shard it interrupts.
    """
    if isinstance(error, (BrokenPipeError, ConnectionResetError, EOFError)):
        return
    if isinstance(error, OSError) and error.errno in EXPECTED_PIPE_ERRNOS:
        return
    _PIPE_ERRORS["count"] += 1
    perf.incr("pool.unexpected_io_errors")
    if not _PIPE_ERRORS["warned"]:
        _PIPE_ERRORS["warned"] = True
        print(
            f"warning: unexpected I/O error on a worker pipe ({where}): "
            f"{error!r}; containing (counted in pool.unexpected_io_errors)",
            file=sys.stderr,
        )


@dataclass
class _Worker:
    """Parent-side state of one live worker process."""

    process: object
    conn: object
    #: Shard currently assigned (None = idle or told to stop).
    current: object = None
    #: Keys of the current shard already delivered as records.
    received: set = field(default_factory=set)
    done: bool = False
    stopping: bool = False
    budget: str | None = None
    failure: tuple | None = None
    cache_hits: int = 0
    cache_misses: int = 0
    stored: int = 0
    perf: dict | None = None
    #: Key of the cell announced by the last ``cell_start`` heartbeat,
    #: and the parent-side monotonic instant it arrived; cleared when
    #: the cell's record (or the shard's completion) is delivered.
    cell_key: str | None = None
    cell_started: float | None = None


def _assign(entry: _Worker, pending: deque, fingerprints: dict) -> None:
    """Reply to a pull request: hand out the next shard, or stop."""
    if pending:
        shard = pending.popleft()
        shard_fingerprints = {
            cell.key: fingerprints[cell.key]
            for cell in shard.cells
            if cell.key in fingerprints
        }
        entry.current = shard
        entry.received = set()
        try:
            entry.conn.send(("shard", shard, shard_fingerprints))
        except (EOFError, OSError) as error:
            # The worker died between pulling and receiving; the shard
            # was never started — put it back, the sentinel handler
            # cleans up the process.
            _note_pipe_error(error, "assign")
            entry.current = None
            pending.appendleft(shard)
    else:
        entry.stopping = True
        entry.current = None
        try:
            entry.conn.send(("stop",))
        except (EOFError, OSError) as error:
            _note_pipe_error(error, "stop")


def _handle_message(entry: _Worker, message, records: dict, pending: deque,
                    fingerprints: dict) -> None:
    tag = message[0]
    if tag == "next":
        _assign(entry, pending, fingerprints)
    elif tag == "cell_start":
        entry.cell_key = message[1]
        entry.cell_started = time.monotonic()
        perf.incr("supervision.heartbeats")
    elif tag == "cell":
        _, key, record = message
        records[key] = record
        entry.received.add(key)
        entry.cell_key = None
        entry.cell_started = None
    elif tag == "shard_done":
        entry.cache_hits += message[1]
        entry.cache_misses += message[2]
        entry.stored += message[3]
        entry.current = None
        entry.cell_key = None
        entry.cell_started = None
    elif tag == "budget":
        entry.budget = message[1]
    elif tag == "fail":
        entry.failure = (message[1], message[2])
    elif tag == "done":
        _tag, snapshot, learned = message
        entry.done = True
        entry.perf = snapshot
        default_cache().update(learned)


def _drain(entry: _Worker, records: dict, pending: deque,
           fingerprints: dict) -> None:
    """Consume every message currently buffered on the worker's pipe."""
    try:
        while entry.conn.poll():
            _handle_message(entry, entry.conn.recv(), records, pending,
                            fingerprints)
    except (EOFError, OSError) as error:
        _note_pipe_error(error, "drain")


def _death_error(entry: _Worker, victim) -> CampaignError:
    """Classify a worker death by its exit status."""
    exitcode = entry.process.exitcode
    sigxcpu = getattr(signal, "SIGXCPU", None)
    what = f"while running {victim.instruction}/{victim.compiler}"
    if sigxcpu is not None and exitcode == -sigxcpu:
        return WorkerResourceExceeded(
            f"worker killed by SIGXCPU (RLIMIT_CPU via "
            f"--worker-cpu-seconds) {what}"
        )
    return WorkerCrash(
        f"worker process exited with code {exitcode} {what}"
    )


def _charge_lost_cell(entry: _Worker, rows, config, records: dict,
                      journal, pending: deque, error=None) -> None:
    """A worker died (or was preempted) mid-shard: quarantine the
    in-flight cell, re-queue the rest of its shard."""
    from repro.difftest.runner import CellResult

    shard = entry.current
    victim = next(
        (cell for cell in shard.cells if cell.key not in entry.received),
        None,
    )
    if victim is None:
        # Every record arrived but the final handshake was lost —
        # nothing to charge, nothing to re-run.
        return
    row = rows[victim.row_index]
    if error is None:
        error = _death_error(entry, victim)
    record = CellResult.crashed(
        row.specs[victim.spec_index], row.compiler_class, config, error,
        attempts=1,
    ).to_record(victim.key)
    records[victim.key] = record
    if journal is not None:
        journal.append(record)
    remainder = shard.remainder_after(victim)
    if remainder is not None:
        pending.appendleft(remainder)


def run_parallel_rows(config, rows, shards, records: dict, result, *,
                      jobs: int, deadline, journal, store, fingerprints,
                      cache_dir) -> None:
    """Serve *shards* from a pool of *jobs* forked workers.

    The parent's set-up and finish live in
    :func:`repro.difftest.runner._run_shards`; this is only the
    scheduler.  It adds every record a worker delivers (and every
    ``WorkerCrash`` record it synthesizes) to *records*, and the run's
    tallies to *result* and to *store*'s stats: workers append to the
    store through handles of their own, so their ``stored`` counts
    arrive in ``shard_done``.  See the module docstring.
    """
    from repro.parallel.worker import run_worker

    journal_path = journal.path if journal is not None else None
    cell_timeout = effective_cell_timeout(config)
    backoff = RespawnBackoff()
    _reset_pipe_errors()
    pending: deque = deque(shards)
    workers: dict = {}  # process sentinel -> _Worker
    context = multiprocessing.get_context("fork")
    budget_exhausted = False
    failure = None
    cache_hits = cache_misses = stored = 0
    preempted = respawned = 0
    initial_fleet_done = False
    perf_snapshots: list = []

    def spawn() -> None:
        nonlocal respawned
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=run_worker,
            args=(child_conn, rows, config, deadline.remaining(),
                  journal_path, cache_dir),
            daemon=True,
        )
        process.start()
        child_conn.close()
        workers[process.sentinel] = _Worker(process, parent_conn)
        if initial_fleet_done:
            respawned += 1
            perf.incr("supervision.respawned")

    def retire(entry: _Worker) -> None:
        """Fold a finished/kill-ed worker's state into the run totals."""
        nonlocal cache_hits, cache_misses, stored, failure, budget_exhausted
        _drain(entry, records, pending, fingerprints)
        try:
            entry.conn.close()
        except OSError as error:
            _note_pipe_error(error, "close")
        cache_hits += entry.cache_hits
        cache_misses += entry.cache_misses
        stored += entry.stored
        if entry.perf is not None:
            perf_snapshots.append(entry.perf)
        if entry.failure is not None:
            failure = entry.failure
        elif entry.budget is not None:
            budget_exhausted = True

    def preempt_overdue(now: float) -> None:
        """SIGKILL every worker whose announced cell outlived the
        timeout; charge that one cell, re-queue the rest of the shard."""
        nonlocal preempted
        for sentinel, entry in list(workers.items()):
            if entry.cell_started is None:
                continue
            elapsed = now - entry.cell_started
            if elapsed <= cell_timeout:
                continue
            workers.pop(sentinel)
            entry.process.kill()
            entry.process.join()
            # Records delivered before the hang are still on the pipe.
            retire(entry)
            if entry.done or entry.current is None:
                continue  # finished in the race window; nothing lost
            if entry.cell_key is None:
                # The overdue cell's record arrived while we were
                # killing: charge nothing, re-queue every cell the
                # dead worker never delivered.
                shard = entry.current
                rest = tuple(cell for cell in shard.cells
                             if cell.key not in entry.received)
                if rest:
                    pending.appendleft(type(shard)(shard.index, rest))
                continue
            error = BudgetExhausted(
                f"cell exceeded the {cell_timeout:g}s --cell-timeout; "
                f"worker preempted after {elapsed:.1f}s"
            )
            _charge_lost_cell(entry, rows, config, records, journal,
                              pending, error=error)
            preempted += 1
            perf.incr("supervision.preempted")
            backoff.record_failure(now)

    def wait_timeout(now: float) -> float | None:
        """Sleep until the next deadline/cell-timeout/backoff event."""
        candidates = []
        remaining = deadline.remaining()
        if remaining is not None:
            candidates.append(remaining)
        if cell_timeout is not None:
            for entry in workers.values():
                if entry.cell_started is not None:
                    due = entry.cell_started + cell_timeout - now
                    candidates.append(max(due, 0.01))
        if pending and len(workers) < jobs and not backoff.ready(now):
            candidates.append(backoff.remaining(now))
        return min(candidates) if candidates else None

    try:
        while pending or workers:
            if deadline.expired:
                budget_exhausted = True
                break
            # Keep the pool at strength while work remains: initial
            # spawn and replacements after crashes/preemptions both
            # land here, the latter gated by the respawn backoff.
            while (pending and len(workers) < jobs
                   and backoff.ready(time.monotonic())):
                spawn()
            initial_fleet_done = True
            now = time.monotonic()
            timeout = wait_timeout(now)
            by_conn = {entry.conn: entry for entry in workers.values()}
            handles = list(by_conn) + list(workers)
            if handles:
                ready = connection.wait(handles, timeout=timeout)
            else:
                # Whole fleet lost and respawn backed off: just sleep.
                time.sleep(min(timeout or 0.05, 0.05))
                ready = []
            progressed = len(records)
            exited = []
            for handle in ready:
                entry = by_conn.get(handle)
                if entry is not None:
                    _drain(entry, records, pending, fingerprints)
                elif handle in workers:
                    exited.append(handle)
            if len(records) > progressed:
                backoff.record_success()
            for sentinel in exited:
                entry = workers.pop(sentinel)
                entry.process.join()
                retire(entry)
                if (entry.failure is None and entry.budget is None
                        and not entry.done and entry.current is not None):
                    _charge_lost_cell(entry, rows, config, records,
                                      journal, pending)
                    backoff.record_failure(time.monotonic())
            if cell_timeout is not None:
                preempt_overdue(time.monotonic())
            if failure is not None or budget_exhausted:
                break
    finally:
        for entry in workers.values():
            entry.process.terminate()
        for entry in workers.values():
            entry.process.join()
            try:
                entry.conn.close()
            except OSError as error:
                _note_pipe_error(error, "close")

    if failure is not None:
        error_class, message = failure
        crash_class = getattr(error_taxonomy, error_class, CampaignError)
        raise crash_class(message)

    result.budget_exhausted = budget_exhausted
    result.cache_hits = cache_hits
    result.cache_misses = cache_misses
    result.preempted_cells = preempted
    result.respawned_workers = respawned
    result.unexpected_io_errors = unexpected_io_errors()
    if store is not None:
        store.stats.stored += stored
    if getattr(config, "profile", False):
        result.perf = perf.merge_snapshots(perf_snapshots)
