"""The benchmark's workloads: command, warm-up and reference check.

Every workload is a closed loop with one client: a sample is one fresh
``repro`` process, and the next starts only after it exits.

* ``cold_full`` — ``repro campaign -j 1`` over the whole paper corpus
  with an empty result store and no journal: the evaluation as a user
  first runs it.  Exploration and differential testing do the work.
* ``recall_sweep`` — ``repro mutate -j 2 --budgets 16`` with triage, a
  fresh store and a journal directory, over every registry mutant: the
  detection loop CI runs, and the one workload with the worker pool,
  triage, mutants, the stitched corpus, the journal and result-store
  reads (each mutant campaign is served the cells its edit left valid).

Both run fixed inputs; the seed is recorded but changes nothing.
Reports are checked against references recorded at the commit that
introduced the benchmark (record_references.py).
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references"

#: 106 native methods + 193 byte-codes x 3 compilers.
MAIN_CELLS = 685
#: Stitched-corpus cells at the default stitch budget (24 methods x 3).
STITCHED_CELLS = 72

RECALL_BUDGET = 16
#: Worker processes of recall_sweep: the pool is measured nowhere else.
RECALL_JOBS = 2
#: The mutant of the recall warm-up: it runs the same layers as a
#: sample (stitched corpus, pool, triage, journal) in about a second.
RECALL_WARMUP_MUTANT = "C3"

#: Sample index of the discarded warm-up sample, which a workload makes
#: small: a run compiles every module before it (run.py), so it only
#: has to run each layer once.
WARMUP = -1


def _reference_tables() -> str:
    return (REFERENCES / "campaign_tables.txt").read_text()


class CampaignWorkload:
    """``repro campaign -j 1`` over the whole corpus, cold."""

    name = "cold_full"
    jobs = 1
    #: On a shared host, CPU speed drifts by a fifth over tens of
    #: seconds, so a run spans at least six samples whatever --seconds
    #: says.
    min_samples = 6

    def __init__(self) -> None:
        self.cells = MAIN_CELLS
        self.tables = _reference_tables()
        self.description = "repro campaign -j 1 (whole corpus)"

    def argv(self, workdir: Path, index: int) -> list:
        argv = ["campaign", "-j", "1", "--cache-dir", str(workdir / "store")]
        if index == WARMUP:
            argv += ["--max-bytecodes", "2", "--max-natives", "2"]
        return argv

    def check(self, sample) -> list:
        problems = []
        tables, found, stats = sample.stdout.partition("\nresult cache:")
        if tables != self.tables:
            problems.append("Table 2/3 differ from the reference")
        expected = (f"result cache: 0 hits / {self.cells} misses (0 stale)"
                    " -- hit rate 0.0%")
        if not found or "result cache:" + stats.splitlines()[0] != expected:
            problems.append(f"result-cache line is not {expected!r}")
        campaigns = (sample.facts or {}).get("campaigns", [])
        if len(campaigns) != 1:
            problems.append(f"{len(campaigns)} campaigns ran, expected 1")
        elif (campaigns[0]["cells"], campaigns[0]["served"]) != (
                self.cells, 0):
            problems.append("wrong cell accounting: "
                            f"{campaigns[0]['cells']} cells, "
                            f"{campaigns[0]['served']} served")
        elif campaigns[0]["stored"] != self.cells:
            problems.append(f"{campaigns[0]['stored']} cells stored, "
                            f"expected {self.cells}")
        return problems


class RecallWorkload:
    """``repro mutate`` over every mutant of the reference."""

    name = "recall_sweep"
    jobs = RECALL_JOBS
    #: A sample takes 20 to 30 s: two of them span the host's swings of
    #: CPU speed better than one.
    min_samples = 2

    def __init__(self) -> None:
        self.reference = json.loads(
            (REFERENCES / "recall_b16.json").read_text())
        # Registry order, as recorded; a mutant added later is not run.
        self.mutants = tuple(self.reference["mutants"])
        corpora = [self.reference["mutants"][m]["corpus"]
                   for m in self.mutants]
        # One baseline per corpus, then one campaign per mutant.
        corpora += sorted(set(corpora))
        self.campaigns = len(corpora)
        self.cells = sum(MAIN_CELLS if corpus == "main" else STITCHED_CELLS
                         for corpus in corpora)
        self.description = (f"repro mutate -j {self.jobs} --budgets "
                            f"{RECALL_BUDGET} --mutant "
                            f"{','.join(self.mutants)}")

    def argv(self, workdir: Path, index: int) -> list:
        return [
            "mutate", "-j", str(self.jobs),
            "--budgets", str(RECALL_BUDGET),
            "--mutant", (RECALL_WARMUP_MUTANT if index == WARMUP
                         else ",".join(self.mutants)),
            "--journal-dir", str(workdir / "journal"),
            "--cache-dir", str(workdir / "store"),
            "--json", str(workdir / "recall.json"),
        ]

    def check(self, sample) -> list:
        problems = []
        report = sample.workdir / "recall.json"
        if not report.exists():
            problems.append("no recall report written")
        elif json.loads(report.read_text()) != self.reference:
            problems.append("recall report differs from the reference")
        campaigns = (sample.facts or {}).get("campaigns", [])
        if len(campaigns) != self.campaigns:
            problems.append(f"{len(campaigns)} campaigns ran, "
                            f"expected {self.campaigns}")
        elif sample.cells != self.cells:
            problems.append(f"{sample.cells} cells given a verdict, "
                            f"expected {self.cells}")
        return problems


WORKLOADS = {"cold_full": CampaignWorkload, "recall_sweep": RecallWorkload}
NAMES = tuple(WORKLOADS)


def make_workload(name: str):
    return WORKLOADS[name]()
