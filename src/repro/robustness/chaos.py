"""The torn-run chaos harness: crash-consistency, tested adversarially.

The journal and the result store promise that a campaign killed at
*any* instant resumes to a byte-identical report and never serves a
corrupt record.  Hand-picked truncation tests check convenient
instants; this module checks hostile ones — it SIGKILLs a **real
campaign subprocess** immediately before durable writes, at seeded
randomized points, and proves the promise for each.

Two halves:

**Write points** (run inside the campaign under test).  Every durable
sink announces each write by calling :func:`write_point` immediately
before its ``write(2)``: the journal (site ``"journal"``), triage
cause records (site ``"triage"`` — same file, separate key namespace),
and the persistent result store (site ``"store"``).  Behaviour is
driven by environment variables so the hooks survive ``fork`` and
``exec`` and cost two dict lookups when disarmed:

* ``REPRO_CHAOS_TRACE=PATH`` — append one site name per write point to
  *PATH*; never kills.  Used to census a run's write schedule.
* ``REPRO_CHAOS_KILL_AFTER=K`` — SIGKILL the calling process at the
  K-th counted write point, *before* the durable write lands.
* ``REPRO_CHAOS_TEAR=1`` — before dying, append the first half of the
  record (no newline) to the sink: the torn line the CRC layer must
  skip — and the torn tail the next append must not glue onto.
* ``REPRO_CHAOS_SITES=a,b`` — count only these sites.

**The harness** (run from tests and the CI ``chaos-smoke`` job).
:func:`run_torn_campaign` runs one uninterrupted baseline campaign to
learn the write schedule, picks seeded kill points covering every
site, and for each point runs the campaign to its death, resumes it
with ``--resume``, and asserts (a) the resumed report is byte-identical
to the baseline (modulo resume status lines), and (b) the journal and
store files contain at most the one deliberately-torn line and no
other damage.  ``python -m repro.robustness.chaos`` drives it from the
command line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

#: The sinks that announce durable writes.
SITES = ("journal", "store", "triage")

#: Subprocess guard rail; a chaos campaign is seconds, not minutes.
RUN_TIMEOUT = 300

_WRITES_SEEN = 0


def write_point(site: str, path=None, data: bytes | None = None) -> None:
    """Announce one durable write (called just before the ``write(2)``).

    *path*/*data* let ``REPRO_CHAOS_TEAR`` leave a genuinely torn line
    behind before the SIGKILL.
    """
    env = os.environ
    trace = env.get("REPRO_CHAOS_TRACE")
    kill_after = env.get("REPRO_CHAOS_KILL_AFTER")
    if not trace and not kill_after:
        return
    sites = env.get("REPRO_CHAOS_SITES")
    if sites and site not in sites.split(","):
        return
    if trace:
        fd = os.open(trace, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, f"{site}\n".encode("utf-8"))
        finally:
            os.close(fd)
    if not kill_after:
        return
    global _WRITES_SEEN
    _WRITES_SEEN += 1
    if _WRITES_SEEN < int(kill_after):
        return
    if env.get("REPRO_CHAOS_TEAR") == "1" and path is not None and data:
        torn = bytes(data)[: max(1, len(bytes(data)) // 2)]
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, torn)
        finally:
            os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


# ----------------------------------------------------------------------
# The harness side.


def default_argv(resume: bool = False) -> list[str]:
    """A small campaign writing to all three sites.

    Two defective natives, one seeded by mutants R10/R11, produce
    triage causes (journal records under the triage namespace plus
    reproducer scripts); two bytecodes spread cells across all three
    byte-code compilers.  All paths are
    relative — the harness runs each campaign with ``cwd`` set to a
    fresh work directory so reports are byte-comparable across
    directories.
    """
    argv = [
        sys.executable, "-m", "repro", "campaign",
        "--only", "primitiveFloatTruncated", "--only", "primitiveMod",
        "--only", "pushReceiverVariable0", "--only", "pushReceiverVariable1",
        "--backend", "x86",
        "--mutant", "R10,R11",
        "--triage", "--confirm-runs", "1",
        "--repro-dir", "repros",
        "--journal", "run.jsonl",
        "--cache-dir", "cache",
    ]
    if resume:
        argv.append("--resume")
    return argv


#: Report lines that legitimately differ between an uninterrupted run
#: and a killed-then-resumed run (resume/cache/resilience status).
STATUS_PREFIXES = (
    "resumed ", "replayed ", "result cache:", "resilience:", "warning:",
)


def normalize_report(text: str) -> str:
    """Strip resume-status lines; collapse the blank lines they leave."""
    kept = [line for line in text.splitlines()
            if not line.startswith(STATUS_PREFIXES)]
    out: list[str] = []
    for line in kept:
        if line == "" and (not out or out[-1] == ""):
            continue
        out.append(line)
    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n"


@dataclass
class PointOutcome:
    """One kill point: where we killed, and every broken promise."""

    point: int
    tear: bool
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class ChaosReport:
    """The verdict of one seeded torn-run sweep."""

    baseline_writes: int
    site_counts: dict
    outcomes: list

    @property
    def ok(self) -> bool:
        covered = {site for site, count in self.site_counts.items() if count}
        return (all(outcome.ok for outcome in self.outcomes)
                and set(SITES) <= covered)

    def describe(self) -> str:
        lines = [
            "chaos: baseline campaign performed "
            f"{self.baseline_writes} durable writes ("
            + " ".join(f"{site}={self.site_counts.get(site, 0)}"
                       for site in SITES)
            + ")"
        ]
        for outcome in self.outcomes:
            label = f"kill@write {outcome.point:3d}" + (
                " +torn line" if outcome.tear else ""
            )
            if outcome.ok:
                lines.append(f"chaos: {label}: resumed byte-identical")
            else:
                lines.append(f"chaos: {label}: FAIL")
                lines.extend(f"chaos:   - {failure}"
                             for failure in outcome.failures)
        good = sum(1 for outcome in self.outcomes if outcome.ok)
        lines.append(f"chaos: {good}/{len(self.outcomes)} kill points ok")
        if set(SITES) - {s for s, c in self.site_counts.items() if c}:
            lines.append("chaos: FAIL: not every write site was exercised")
        return "\n".join(lines)


def _base_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_CHAOS_")}
    src = str(Path(__file__).resolve().parents[2])
    pythonpath = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + pythonpath if pythonpath else "")
    return env


def _run(argv, cwd, env) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT)


def _pick_points(site_sequence: list, points: int, rng: Random) -> list:
    """Seeded kill points: every site covered, the rest uniform."""
    by_site: dict = {}
    for index, site in enumerate(site_sequence):
        by_site.setdefault(site, []).append(index + 1)
    chosen: list = []
    for site in sorted(by_site):
        want = min(2, len(by_site[site]), max(0, points - len(chosen)))
        chosen.extend(rng.sample(by_site[site], want))
    while len(chosen) < points:
        chosen.append(rng.randint(1, len(site_sequence)))
    return chosen[:points]


def _check_sinks(workdir: Path, tear: bool) -> list:
    """Post-resume integrity of the journal and the result store."""
    from repro.incremental.store import ResultStore
    from repro.robustness.checkpoint import CampaignJournal

    failures = []
    budget = 1 if tear else 0
    journal = CampaignJournal(workdir / "run.jsonl")
    journal.load()
    if journal.replay.torn_lines > budget:
        failures.append(
            f"journal: {journal.replay.torn_lines} torn lines "
            f"(at most {budget} expected)"
        )
    if journal.replay.skipped_lines:
        failures.append(
            f"journal: {journal.replay.skipped_lines} foreign lines"
        )
    store = ResultStore(str(workdir / "cache"))
    store.load()
    if store.stats.corrupt_lines > budget:
        failures.append(
            f"store: {store.stats.corrupt_lines} corrupt lines "
            f"(at most {budget} expected)"
        )
    for fingerprint, cell in store.records().items():
        if "key" not in cell or "comparisons" not in cell:
            failures.append(f"store: fingerprint {fingerprint[:12]} serves "
                            "a structurally corrupt cell")
    return failures


def _run_point(argv, resume_argv, base_env, workdir: Path, point: int,
               tear: bool, baseline_report: str) -> PointOutcome:
    workdir.mkdir(parents=True, exist_ok=True)
    outcome = PointOutcome(point=point, tear=tear)
    env = dict(base_env, REPRO_CHAOS_KILL_AFTER=str(point))
    if tear:
        env["REPRO_CHAOS_TEAR"] = "1"
    killed = _run(argv, workdir, env)
    if killed.returncode != -signal.SIGKILL:
        outcome.failures.append(
            f"expected SIGKILL at write {point}, run exited "
            f"{killed.returncode}: {killed.stderr.strip()[-200:]}"
        )
        return outcome
    resumed = _run(resume_argv, workdir, base_env)
    if resumed.returncode != 0:
        outcome.failures.append(
            f"resume exited {resumed.returncode}: "
            f"{resumed.stderr.strip()[-300:]}"
        )
        return outcome
    report = normalize_report(resumed.stdout)
    if report != baseline_report:
        for got, want in zip(report.splitlines(),
                             baseline_report.splitlines()):
            if got != want:
                outcome.failures.append(
                    "resumed report differs from the uninterrupted "
                    f"baseline: {got!r} != {want!r}"
                )
                break
        else:
            outcome.failures.append(
                "resumed report differs from the uninterrupted baseline "
                "in length"
            )
    outcome.failures.extend(_check_sinks(workdir, tear))
    return outcome


def run_torn_campaign(points: int = 20, seed: int = 0, workdir=None,
                      argv=None, resume_argv=None,
                      tear_every: int = 2) -> ChaosReport:
    """One seeded torn-run sweep; see the module docstring."""
    # Absolute: REPRO_CHAOS_TRACE must resolve from inside subprocesses
    # whose cwd is the work directory itself.
    workdir = Path(workdir if workdir is not None else "chaos-out").resolve()
    argv = list(argv) if argv is not None else default_argv()
    resume_argv = (list(resume_argv) if resume_argv is not None
                   else default_argv(resume=True))
    base_env = _base_env()

    baseline_dir = workdir / "baseline"
    baseline_dir.mkdir(parents=True, exist_ok=True)
    trace = baseline_dir / "trace.txt"
    baseline = _run(argv, baseline_dir,
                    dict(base_env, REPRO_CHAOS_TRACE=str(trace)))
    if baseline.returncode != 0:
        raise RuntimeError(
            f"baseline chaos campaign failed ({baseline.returncode}):\n"
            f"{baseline.stderr}"
        )
    baseline_report = normalize_report(baseline.stdout)
    site_sequence = trace.read_text(encoding="utf-8").split()
    site_counts = {site: site_sequence.count(site) for site in SITES}

    rng = Random(seed)
    outcomes = []
    for index, point in enumerate(_pick_points(site_sequence, points, rng)):
        tear = bool(tear_every) and index % tear_every == 0
        outcomes.append(_run_point(
            argv, resume_argv, base_env, workdir / f"point{index:02d}",
            point, tear, baseline_report,
        ))
    return ChaosReport(baseline_writes=len(site_sequence),
                       site_counts=site_counts, outcomes=outcomes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.robustness.chaos",
        description="SIGKILL a live campaign at seeded durable-write "
                    "points; gate on byte-identical resumed reports and "
                    "uncorrupted sinks.",
    )
    parser.add_argument("--points", type=int, default=20,
                        help="number of seeded kill points (default 20)")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed for kill-point selection")
    parser.add_argument("--workdir", default="chaos-out",
                        help="scratch directory for the campaign runs")
    parser.add_argument("--tear-every", type=int, default=2,
                        help="leave a torn half-line behind at every Nth "
                             "kill point (0 = never)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the sweep result as JSON")
    args = parser.parse_args(argv)
    report = run_torn_campaign(points=args.points, seed=args.seed,
                               workdir=args.workdir,
                               tear_every=args.tear_every)
    print(report.describe())
    if args.json:
        payload = {
            "baseline_writes": report.baseline_writes,
            "site_counts": report.site_counts,
            "ok": report.ok,
            "outcomes": [
                {"point": outcome.point, "tear": outcome.tear,
                 "failures": outcome.failures}
                for outcome in report.outcomes
            ],
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n",
                                   encoding="utf-8")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
