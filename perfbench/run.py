"""The campaign benchmark: time to a verdict on two workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_full --seed 1 --trace 0
    python3 perfbench/run.py --workload all     # one row per workload

Each sample is a fresh ``repro`` process (workloads.py).  A run first
compiles every module under ``src/``, then discards one small warm-up
sample; then samples repeat, one at a time, for ``--seconds`` and until
the workload's minimum count is reached.  Every report is checked
against the reference.  Between the samples, ``SETUP_PROBES`` launches
of the same command exit on entering the driver, so that set-up is
timed many times in every run.

``--trace 0`` prints the end-to-end metrics: ``verdict_s`` (launch to
exit), ``setup_s`` (launch to entering the campaign or recall driver),
``cells_per_s`` (cells given a verdict / (verdict_s - setup_s)) and
``peak_rss_mb`` (largest resident set of the command's processes) as
medians with their tail percentile and n, plus ``failed_cell_ratio``
and ``wrong_report_ratio``.  ``--trace 1`` splits the time between
untraced samples and traced ones (tracer.py) and prints the per-layer
metrics of layers.py, medians over the traced samples.

The last line of the output is one JSON object with the keys
``correct``, ``attempted`` (samples timed), ``failed`` (samples that
did not exit cleanly or quarantined a cell) and ``metrics``.  The exit
code is 1 when a report differs from its reference or a sample failed,
and 2 when the command cannot run at all (no ``src/repro`` here).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import layers
from sampling import Launcher
from summary import summarize
from workloads import NAMES, WARMUP, make_workload

SCHEMA_VERSION = 1

#: End-to-end metrics: (name, unit).
END_TO_END = (
    ("verdict_s", "s"),
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
#: The ones BENCHMARK.json bounds and the result line reports.
#: cells_per_s is left out: at a workload's fixed cell count it
#: restates verdict_s and setup_s.
GATED = ("verdict_s", "setup_s", "peak_rss_mb")

#: The whole run, set-up included, ends within this many seconds.
RUN_LIMIT_S = 170.0

#: Set-up probes per run.  A run times only a few samples; the probes
#: time their set-up ten more times, at 0.2 s each, and setup_s is the
#: median over probes and samples.
SETUP_PROBES = 10
#: Probes before each sample, until SETUP_PROBES have run; the rest
#: run after the last sample.  The host's CPU speed drifts by a fifth
#: within a minute, so probes spread over the run time set-up at the
#: run's speed, not at that of its first two seconds.
PROBES_PER_GAP = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="campaign benchmark: time to verdict per workload",
    )
    parser.add_argument("--workload", default="all",
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time per run (default: 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# run metadata


def git_commit(root: Path) -> str | None:
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """sha256 over ``src/**/*.py``: identifies the code without git."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, seed: int) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# sampling


def take(workload, launcher, *, traced: bool, deadline: float,
         label: str, index: int = 0):
    """One sample, checked (the discarded warm-up only for a clean
    exit); its scratch directory removed after."""
    workdir = launcher.new_dir(label)
    sample = launcher.run(workload.argv(workdir, index), workdir,
                          traced=traced, timeout=deadline - time.monotonic(),
                          index=index)
    if sample.ran:
        sample.problems = [] if index == WARMUP else workload.check(sample)
    else:
        stderr = (workdir / "stderr").read_text(errors="replace")
        sample.problems = [f"exit code {sample.exit_code}: "
                           + stderr.strip()[-400:]]
    shutil.rmtree(workdir, ignore_errors=True)
    return sample


class SetupProbes:
    """Launches of the workload's command that exit on entering the
    driver: ``values`` holds the setup_s of each, ``problems`` why one
    did not run."""

    def __init__(self, workload, launcher, deadline: float) -> None:
        self.workload = workload
        self.launcher = launcher
        self.deadline = deadline
        self.values = []
        self.problems = []

    def take(self, count: int) -> None:
        """Up to *count* more probes, stopping at SETUP_PROBES."""
        for _ in range(min(count, SETUP_PROBES - len(self.values)
                           - len(self.problems))):
            index = len(self.values) + len(self.problems)
            workdir = self.launcher.new_dir("setup")
            probe = self.launcher.run(
                self.workload.argv(workdir, index), workdir, traced=False,
                index=index, setup_only=True,
                timeout=self.deadline - time.monotonic())
            if probe.ran:
                self.values.append(probe.setup_s)
            else:
                self.problems.append(
                    f"set-up probe exit code {probe.exit_code}")
            shutil.rmtree(workdir, ignore_errors=True)


def closed_loop(workload, launcher, *, seconds: float, traced: bool,
                deadline: float, min_samples: int = 1,
                probes: SetupProbes | None = None) -> list:
    """Samples one after another until *seconds* have passed and there
    are *min_samples*, stopping early if the next could not end before
    *deadline*.  With *probes*, PROBES_PER_GAP set-up probes run before
    each sample; their time does not count towards *seconds*."""
    samples = []
    began = time.monotonic()
    probing = 0.0
    label = "traced" if traced else "sample"
    while True:
        if probes is not None:
            before = time.monotonic()
            probes.take(PROBES_PER_GAP)
            probing += time.monotonic() - before
        samples.append(take(workload, launcher, traced=traced,
                            deadline=deadline, label=label,
                            index=len(samples)))
        if not samples[-1].ran:
            break
        now = time.monotonic()
        if now - began - probing >= seconds \
                and len(samples) >= min_samples:
            break
        if deadline - now < 2.0 * (now - began) / len(samples):
            break
    return samples


# ----------------------------------------------------------------------
# metrics


def end_to_end(samples, setups=()) -> dict:
    """name -> summary (median, tail percentile, n) over clean samples;
    ``setup_s`` also over the set-up probes' *setups*."""
    ran = [s for s in samples if s.ran]
    values = {
        "verdict_s": [s.verdict_s for s in ran],
        "setup_s": list(setups) + [s.setup_s for s in ran],
        "cells_per_s": [s.cells_per_s for s in ran],
        "peak_rss_mb": [s.peak_rss_mb for s in ran],
    }
    return {name: summarize(v) for name, v in values.items()}


def ratios(samples) -> dict:
    cells = sum(s.cells for s in samples)
    failed_cells = sum(s.quarantined for s in samples)
    wrong = sum(1 for s in samples if s.problems)
    return {
        "failed_cell_ratio": failed_cells / cells if cells else 1.0,
        "wrong_report_ratio": wrong / len(samples) if samples else 1.0,
    }


def traced_metrics(traced, untraced, jobs: int) -> tuple:
    """``(per-layer medians, span table of the last traced sample,
    problems)``."""
    per_sample = []
    problems = []
    table = []
    baselines = {s.index: s for s in untraced if s.ran}
    for sample in traced:
        if not sample.ran:
            continue
        index = layers.SpanIndex(sample.spans)
        profile = layers.merge_profiles(
            c["profile"] for c in sample.facts["campaigns"]
        )
        metrics = layers.layer_metrics(index, sample.counts, profile,
                                       jobs=jobs)
        metrics["trace.unattributed_s"] = layers.unattributed(
            sample.spans, sample.launched, sample.ended)
        per_sample.append(metrics)
        table = index.table()
        baseline = baselines.get(sample.index)
        if baseline is not None:
            seen = (metrics["runner.cells_executed"],
                    metrics["runner.cells_served"])
            expected = (baseline.executed, baseline.served)
            if seen != expected:
                problems.append(
                    f"traced run executed/served {seen[0]}/{seen[1]} "
                    f"cells, untraced {expected[0]}/{expected[1]}")
    medians = {
        name: statistics.median(m[name] for m in per_sample)
        for name in per_sample[0]
    } if per_sample else {}
    # Traced over untraced verdict, paired by index: the same input.
    slowdowns = [s.verdict_s / baselines[s.index].verdict_s
                 for s in traced if s.ran and s.index in baselines]
    if slowdowns:
        medians["trace.overhead_ratio"] = statistics.median(slowdowns) - 1.0
    return medians, table, problems


# ----------------------------------------------------------------------
# one workload


def run_workload(name: str, args, root: Path, scratch: Path) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    workload = make_workload(name)
    launcher = Launcher(root, scratch / name)
    record = {"workload": name, "command": workload.description,
              "cells": workload.cells, "jobs": workload.jobs,
              "environment": environment(root, args.seed)}
    problems = launcher.compile(timeout=deadline - time.monotonic())
    warmup = take(workload, launcher, traced=False, deadline=deadline,
                  label="warmup", index=WARMUP)
    problems += warmup.problems
    probes = SetupProbes(workload, launcher, deadline)
    if args.trace:
        probes.take(SETUP_PROBES)
        half = args.seconds / 2.0
        untraced = closed_loop(workload, launcher, seconds=half,
                               traced=False, deadline=deadline)
        traced = closed_loop(workload, launcher, seconds=half,
                             traced=True, deadline=deadline)
        samples = untraced + traced
        per_layer, table, trace_problems = traced_metrics(
            traced, untraced, workload.jobs)
        problems += trace_problems
        record["per_layer"] = per_layer
        record["spans"] = table
    else:
        samples = closed_loop(workload, launcher, seconds=args.seconds,
                              traced=False, deadline=deadline,
                              min_samples=workload.min_samples,
                              probes=probes)
        probes.take(SETUP_PROBES)
    problems += probes.problems
    setups = probes.values
    record["environment"]["loadavg_after"] = os.getloadavg()
    record["elapsed_s"] = time.monotonic() - started
    record["e2e"] = end_to_end((s for s in samples if not s.traced), setups)
    record["setup_probes"] = setups
    record["ratios"] = ratios(samples)
    record["samples"] = [
        {"traced": s.traced, "verdict_s": s.verdict_s, "setup_s": s.setup_s,
         "cpu_s": s.cpu_s, "peak_rss_mb": s.peak_rss_mb, "cells": s.cells,
         "executed": s.executed, "served": s.served,
         "quarantined": s.quarantined, "exit_code": s.exit_code,
         "problems": s.problems}
        for s in samples
    ]
    record["problems"] = problems + [p for s in samples for p in s.problems]
    record["attempted"] = len(samples)
    record["failed"] = sum(1 for s in samples
                           if not s.ran or s.quarantined)
    record["ran"] = any(s.ran for s in samples)
    return record


# ----------------------------------------------------------------------
# output


def _fmt(value, digits: int = 4) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def print_record(record: dict) -> None:
    env = record["environment"]
    print(f"== {record['workload']}: {record['command']} "
          f"({record['cells']} plan cells per sample)")
    print(f"   python {env['python']}, nproc {env['nproc']}, commit "
          f"{env['commit'] or 'n/a'}, src sha256 {env['source_sha256'][:12]}, "
          f"seed {env['seed']}, load {env['loadavg_before'][0]:.2f} -> "
          f"{env['loadavg_after'][0]:.2f}, {record['elapsed_s']:.1f} s")
    print(f"   {'metric':20s} {'median':>12s} {'tail':>18s} {'n':>4s}  unit")
    units = dict(END_TO_END)
    for name, summary in record["e2e"].items():
        tail = "n/a" if summary["tail_pct"] is None else \
            f"p{summary['tail_pct']:g} {_fmt(summary['tail'])}"
        print(f"   {name:20s} {_fmt(summary['median']):>12s} {tail:>18s} "
              f"{summary['n']:>4d}  {units[name]}")
    for name, value in record["ratios"].items():
        print(f"   {name:20s} {_fmt(value):>12s} {'':>18s} "
              f"{record['attempted']:>4d}  ratio")
    if "per_layer" in record:
        moves = {name: m for name, _u, _b, m in layers.METRICS}
        print(f"   {'per-layer metric':36s} {'value':>14s}  unit   moves")
        for name, _unit, _better, _moves in layers.METRICS:
            value = record["per_layer"].get(name)
            print(f"   {name:36s} {_fmt(value):>14s}  "
                  f"{layers.UNITS[name]:6s} {moves[name]}")
        print(f"   {'span (last traced sample)':36s} {'calls':>8s} "
              f"{'busy_s':>10s} {'self_s':>10s}")
        for name, calls, busy, own in record["spans"]:
            print(f"   {name:36s} {calls:>8d} {busy:>10.4f} {own:>10.4f}")
    for problem in record["problems"]:
        print(f"   PROBLEM: {problem}")


def print_rows(records: list) -> None:
    """One row per workload: end-to-end medians, then the two ratios."""
    names = [name for name, _unit in END_TO_END]
    header = ["workload"] + [f"{n} ({u})" for n, u in END_TO_END] + [
        "failed_cell_ratio", "wrong_report_ratio"]
    print("   ".join(f"{h:>18s}" for h in header))
    for record in records:
        cells = [record["workload"]]
        cells += [_fmt(record["e2e"][n]["median"]) for n in names]
        cells += [_fmt(v) for v in record["ratios"].values()]
        print("   ".join(f"{c:>18s}" for c in cells))


def result_line(records: list, trace: bool) -> dict:
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else record["workload"] + "."
        if trace:
            for name, _unit, _better, _moves in layers.METRICS:
                metrics[prefix + name] = {
                    "value": record["per_layer"].get(name, 0.0),
                    "unit": layers.UNITS[name],
                }
        else:
            for name, unit in END_TO_END:
                if name in GATED:
                    metrics[prefix + name] = {
                        "value": record["e2e"][name]["median"],
                        "unit": unit,
                    }
    return {
        "correct": all(not r["problems"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # Exit through the finally clauses that stop the running sample
    # (it is in its own session) and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("perfbench: src/repro/cli.py not found; run from the "
              "repository root", file=sys.stderr)
        return 2
    scratch = root / ".perfbench" / f"run-{os.getpid()}"
    names = NAMES if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args, root, scratch)
            print_record(record)
            records.append(record)
            if not record["ran"]:
                print(f"perfbench: no sample of {name} ran",
                      file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()  # only when no other run is using it
    if len(records) > 1:
        print_rows(records)
    print("run record: " + json.dumps(records, default=str))
    result = result_line(records, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
