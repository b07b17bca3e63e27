"""One sample: a fresh repro process, timed and measured from outside.

The sample runs ``probe.py`` (the repro CLI plus the benchmark's hooks)
in a new session with its output in files, so no pipe can fill up.
The benchmark waits on a pidfd, which wakes at the child's exit with
no polling, then reaps it with ``wait4``: the child's resource usage
reports the largest resident set of the child and of every worker it
reaped.  A sample that outlives its timeout is killed with its whole
process group.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import load_spans

PROBE = Path(__file__).resolve().parent / "probe.py"


@dataclass
class Sample:
    """What one fresh-process run of a workload's command left behind."""

    workdir: Path
    traced: bool
    launched: float
    ended: float
    exit_code: int
    #: User + system CPU seconds of the command and its reaped workers.
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    facts: dict | None
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    #: Position in its loop (WARMUP for the discarded warm-up).
    index: int = 0
    #: Reasons the report differs from the reference (empty = correct).
    problems: list = field(default_factory=list)

    @property
    def verdict_s(self) -> float:
        return self.ended - self.launched

    @property
    def setup_s(self) -> float | None:
        entered = (self.facts or {}).get("driver_entered")
        return None if entered is None else entered - self.launched

    def _total(self, key: str) -> int:
        return sum(c[key] for c in (self.facts or {}).get("campaigns", ()))

    @property
    def cells(self) -> int:
        """Plan cells given a verdict, executed or served."""
        return self._total("cells")

    @property
    def served(self) -> int:
        return self._total("served")

    @property
    def executed(self) -> int:
        return self.cells - self.served - self._total("resumed")

    @property
    def quarantined(self) -> int:
        return self._total("quarantined")

    @property
    def ran(self) -> bool:
        """The process exited cleanly and reported its campaigns."""
        return self.exit_code == 0 and self.facts is not None \
            and self.setup_s is not None

    @property
    def cells_per_s(self) -> float:
        return self.cells / (self.verdict_s - self.setup_s)


class Launcher:
    """Starts samples with a fixed environment under one scratch root."""

    def __init__(self, root: Path, scratch: Path) -> None:
        self.root = root
        self.scratch = scratch
        self.counter = 0
        tmp = scratch / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        # Bytecode is written, whatever the caller's environment says,
        # under the scratch directory: each run compiles once, in its
        # discarded warm-up, and timed samples start like an installed
        # CLI, from compiled modules.
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONPYCACHEPREFIX=str(scratch / "pycache"),
            REPRO_CACHE_DIR=str(scratch / "repro-cache"),
            XDG_CACHE_HOME=str(scratch / "xdg-cache"),
            TMPDIR=str(tmp),
        )
        for name in ("PYTHONDONTWRITEBYTECODE", "PERFBENCH_TRACE_DIR",
                     "PERFBENCH_SETUP_ONLY"):
            self.env.pop(name, None)

    def new_dir(self, label: str) -> Path:
        self.counter += 1
        path = self.scratch / f"{self.counter:03d}-{label}"
        path.mkdir(parents=True)
        return path

    def compile(self, *, timeout: float) -> list:
        """Write the bytecode of every module under ``src/`` and of the
        benchmark's own before any sample runs: a warm-up sample need
        not import them all.  Returns the problems (none when
        compileall exits cleanly)."""
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, "-m", "compileall", "-q",
             str(self.root / "src"), str(PROBE.parent)],
            self.env, file_actions=[
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            ], setsid=True)
        status, _ = _wait(pid, timeout)
        code = os.waitstatus_to_exitcode(status)
        return [] if code == 0 else [f"compileall exit code {code}"]

    def run(self, argv: list, workdir: Path, *, traced: bool,
            timeout: float, index: int = 0,
            setup_only: bool = False) -> Sample:
        """Run the command once; with *setup_only*, as a set-up probe
        that exits on entering the driver (probe.py)."""
        env = dict(self.env, PERFBENCH_FACTS=str(workdir / "facts.json"))
        if traced:
            env["PERFBENCH_TRACE_DIR"] = str(workdir / "spans")
        if setup_only:
            env["PERFBENCH_SETUP_ONLY"] = "1"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(workdir / "stdout"), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(workdir / "stderr"), flags, 0o644),
        ]
        launched = time.monotonic()
        pid = os.posix_spawn(sys.executable,
                             [sys.executable, str(PROBE), *argv], env,
                             file_actions=actions, setsid=True)
        status, rusage = _wait(pid, timeout)
        ended = time.monotonic()
        facts_path = workdir / "facts.json"
        facts = json.loads(facts_path.read_text()) \
            if facts_path.exists() else None
        sample = Sample(
            workdir=workdir,
            traced=traced,
            launched=launched,
            ended=ended,
            exit_code=os.waitstatus_to_exitcode(status),
            cpu_s=rusage.ru_utime + rusage.ru_stime,
            peak_rss_mb=rusage.ru_maxrss / 1024.0,
            stdout=(workdir / "stdout").read_text(errors="replace"),
            facts=facts,
            index=index,
        )
        if traced and (workdir / "spans").is_dir():
            sample.spans, sample.counts = load_spans(workdir / "spans")
        return sample


def _wait(pid: int, timeout: float):
    """Reap *pid*, killing its process group after *timeout* seconds,
    or at once if the benchmark itself is interrupted: the sample runs
    in its own session, so no terminal signal reaches it."""
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(0.0, timeout))
        if not ready:
            _kill_group(pid)
        _, status, rusage = os.wait4(pid, 0)
    except BaseException:
        _kill_group(pid)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
        raise
    finally:
        os.close(fd)
    _kill_group(pid)
    return status, rusage


def _kill_group(pgid: int) -> None:
    """SIGKILL whatever is left of the sample's session and wait
    until the group is empty (bounded)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
