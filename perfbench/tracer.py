"""Spans around the program's layer entry points, kept in memory.

A traced sample (see probe.py) replaces each entry point below with a
wrapper that records one span per call: ``(id, name, start, end,
parent id, cell id)``.  Times are ``time.monotonic()`` — on Linux the
system-wide CLOCK_MONOTONIC, so they compare with the benchmark
process's own clock and across forked workers.  The wrappers are
installed from here, never by editing the program: each replaces the
name its callers look up, which for a ``from X import f`` copy is the
importing module's attribute, not ``X.f``.

Spans stay in memory and are written as one JSON file per process:
the main process at exit, each forked pool worker in the ``finally``
of its ``run_worker`` wrapper (workers leave through ``os._exit`` and
run no exit handlers).

No member a registry mutant patches is wrapped here; a mutant swaps
the attribute it patches, and would swap a wrapper out with it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter
from pathlib import Path

now = time.monotonic

#: ``(module, attribute, span name)`` — module-level functions, wrapped
#: at the module whose attribute the caller reads at call time.
FUNCTIONS = (
    ("repro.difftest.runner", "execute_cell", "runner.execute_cell"),
    ("repro.parallel.worker", "execute_cell", "runner.execute_cell"),
    ("repro.difftest.runner", "_run_rows", "runner.rows"),
    ("repro.difftest.runner", "curate_paths", "difftest.curate"),
    ("repro.concolic.explorer", "solve_status", "concolic.solve"),
    ("repro.concolic.explorer", "solve_with_hint", "concolic.solve"),
    ("repro.incremental", "plan_fingerprints", "incremental.fingerprint"),
    ("repro.parallel.pool", "run_parallel_rows", "parallel.rows"),
    ("repro.triage", "run_triage", "triage.run"),
    ("repro.mutation.recall", "run_recall", "mutation.recall"),
    ("repro.stitch.corpus", "build_stitched_corpus", "stitch.corpus"),
)

#: ``(module, class, method, span name)`` — wrapped on the class every
#: caller's instance resolves the method through.
METHODS = (
    ("repro.concolic.explorer", "ConcolicExplorer", "__init__",
     "concolic.setup"),
    ("repro.concolic.explorer", "ConcolicExplorer", "explore",
     "concolic.explore"),
    ("repro.concolic.explorer", "BytecodeInstructionSpec", "execute",
     "spec.execute"),
    ("repro.concolic.explorer", "NativeMethodSpec", "execute",
     "spec.execute"),
    ("repro.concolic.sequences", "BytecodeSequenceSpec", "execute",
     "spec.execute"),
    ("repro.concolic.materialize", "Materializer", "materialize_frame",
     "materialize"),
    ("repro.difftest.harness", "DifferentialTester", "__init__",
     "difftest.setup"),
    ("repro.difftest.harness", "DifferentialTester", "run_path",
     "difftest.run_path"),
    ("repro.jit.simple_stack", "SimpleStackBasedCogit", "compile",
     "jit.compile"),
    ("repro.jit.stack_to_register", "StackToRegisterCogit", "compile",
     "jit.compile"),
    ("repro.jit.register_allocating", "RegisterAllocatingCogit", "compile",
     "jit.compile"),
    ("repro.jit.native_templates", "NativeMethodCompiler", "compile",
     "jit.compile"),
    ("repro.jit.machine.simulator", "MachineSimulator", "run",
     "jit.simulate"),
    ("repro.incremental.store", "ResultStore", "load", "incremental.load"),
    ("repro.incremental.store", "ResultStore", "get", "incremental.get"),
    ("repro.incremental.store", "ResultStore", "put", "incremental.put"),
    ("repro.robustness.checkpoint", "CampaignJournal", "append",
     "robustness.journal_append"),
    ("repro.robustness.checkpoint", "CampaignJournal", "load",
     "robustness.journal_load"),
)


def _cell_of(config, deadline, spec, compiler_class, *rest, **kwargs):
    return f"{spec.kind}:{spec.name}/{compiler_class.name}"


def _count_curated(counts, args, result) -> None:
    counts["curate.in"] += len(args[0])
    counts["curate.out"] += len(result)


def _count_steps(counts, args, result) -> None:
    counts["simulate.steps"] += result.steps


def _count_hit(counts, args, result) -> None:
    if result is not None:
        counts["store.hits"] += 1


#: Span name -> ``after(counts, args, result)``: counts taken at the
#: same boundary as the span.
AFTER = {
    "difftest.curate": _count_curated,
    "jit.simulate": _count_steps,
    "incremental.get": _count_hit,
}


class Tracer:
    """The span recorder of one process."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.reset()

    def reset(self) -> None:
        """Forget everything, e.g. what a forked worker inherited."""
        self.pid = os.getpid()
        self.spans: list = []
        self.stack: list = []
        self.next_id = 0
        self.cell = None
        self.counts: Counter = Counter()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller, as a root."""
        sid = self.next_id
        self.next_id += 1
        self.spans.append((sid, name, start, end, None, None))

    def wrap(self, name: str, func, *, after=None, cell_of=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            stack = tracer.stack
            parent = stack[-1] if stack else None
            outer_cell = tracer.cell
            if cell_of is not None:
                tracer.cell = cell_of(*args, **kwargs)
            stack.append(sid)
            start = now()
            try:
                result = func(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                tracer.spans.append(
                    (sid, name, start, end, parent, tracer.cell)
                )
                tracer.cell = outer_cell
            if after is not None:
                after(tracer.counts, args, result)
            return result

        # The result store keys a cell by a hash of the live code it
        # reaches, unwrapping ``__func__`` to find a function's code.
        # Pointing it at the original keeps traced and untraced runs on
        # the same keys and the same invalidation by mutants.
        traced.__func__ = func
        return traced

    def wrap_worker(self, func):
        """The pool worker entry: fresh spans after fork, written at
        the end of the worker's life."""
        traced = self.wrap("parallel.worker", func)
        tracer = self

        @functools.wraps(func)
        def worker(*args, **kwargs):
            tracer.reset()
            try:
                return traced(*args, **kwargs)
            finally:
                tracer.dump()

        worker.__func__ = func
        return worker

    def install(self) -> None:
        """Wrap every entry point; import all targets before wrapping
        any, so that ``from X import f`` copies made at import time
        bind the same (unwrapped) object whatever the import order."""
        functions = [
            (importlib.import_module(module), attribute, name)
            for module, attribute, name in FUNCTIONS
        ]
        methods = [
            (getattr(importlib.import_module(module), cls), method, name)
            for module, cls, method, name in METHODS
        ]
        originals = [
            (owner, attribute, name, getattr(owner, attribute))
            for owner, attribute, name in functions + methods
        ]
        for owner, attribute, name, func in originals:
            setattr(owner, attribute, self.wrap(
                name, func, after=AFTER.get(name),
                cell_of=_cell_of if name == "runner.execute_cell" else None,
            ))
        worker = importlib.import_module("repro.parallel.worker")
        worker.run_worker = self.wrap_worker(worker.run_worker)

    def dump(self) -> None:
        """Write this process's spans and counts."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"spans-{self.pid}.json"
        path.write_text(json.dumps({
            "pid": self.pid,
            "spans": self.spans,
            "counts": dict(self.counts),
        }))
