"""Shared benchmark fixtures: the evaluation campaigns, run once, and
the golden files their artifacts must equal.

The paper's evaluation (Section 5) runs four experiments — the
native-method compiler plus three byte-code compilers — on two ISAs.
The ``campaign`` fixture executes the whole thing once per pytest
session (a few seconds) and every table/figure benchmark renders its
artifact from the cached results; ``extension_campaigns`` does the same
for the ``--sequences`` and ``--stitch`` plans.

Everything a run writes lands in ``benchmarks/results/``, which git
ignores: the rendered artifacts, their timings and the JSON twins.  A
deterministic artifact (Tables 1-3, Fig. 5, the coverage and recall
listings) must also equal its tracked golden in ``benchmarks/golden/``
byte for byte, and no golden holds a timing.  A golden changes only by
copying a reviewed artifact over it; the failure message names the
copy.
"""

from __future__ import annotations

import difflib
import json
import pathlib

import pytest

from repro.difftest.runner import (
    CampaignConfig,
    run_campaign,
    sequence_campaign_rows,
    stitched_campaign_rows,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


#: The benchmarks reproduce the paper's numbers, which include the
#: historical R10/R11 fault-describer defect ("Simulation Error" in
#: Table 3).  The shipped simulator fixes it, so the paper-fidelity
#: campaign re-seeds the gap with mutants R10/R11.
PAPER_DEFECTS = {"mutants": ("R10", "R11")}

#: The extension plans, unmutated, as ``repro campaign --sequences``
#: and ``repro campaign --stitch`` run them.
EXTENSION_PLANS = {
    "sequences": sequence_campaign_rows,
    "stitch": stitched_campaign_rows,
}


@pytest.fixture(scope="session")
def campaign():
    """All four compiler reports (paper Table 2 rows), fully executed."""
    return run_campaign(CampaignConfig(**PAPER_DEFECTS))


@pytest.fixture(scope="session")
def extension_campaigns():
    """``{plan: reports}`` for each of :data:`EXTENSION_PLANS`."""
    config = CampaignConfig()
    return {
        plan: run_campaign(config, rows(config))
        for plan, rows in EXTENSION_PLANS.items()
    }


@pytest.fixture(scope="session")
def instruction_cells(campaign):
    """One cell per instruction: each carries its instruction's
    exploration path count and time."""
    seen = {}
    for report in campaign:
        for result in report.results:
            seen[(result.kind, result.instruction)] = result
    return list(seen.values())


def write_artifact(name: str, content: str) -> None:
    """Persist a rendered table/figure and echo it to the terminal."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(content + "\n")
    print(f"\n----- {name} " + "-" * max(0, 60 - len(name)))
    print(content)


def check_golden(name: str, content: str) -> None:
    """Write artifact *name* and fail unless it equals its golden."""
    write_artifact(name, content)
    expected = (GOLDEN_DIR / name).read_text()
    actual = content + "\n"
    if actual != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            f"benchmarks/golden/{name}", f"benchmarks/results/{name}",
        ))
        pytest.fail(
            f"{name} differs from its golden. If the change is intended, "
            f"review it and copy it over the golden:\n"
            f"  cp benchmarks/results/{name} benchmarks/golden/{name}\n"
            f"{diff}",
            pytrace=False,
        )


def write_json_artifact(name: str, payload: dict) -> None:
    """Machine-readable twin of a timed artifact, written as
    ``BENCH_<name>.json`` next to the rendered text."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def distribution_payload(distributions) -> dict:
    """JSON-ready summary of a ``{label: Distribution}`` mapping."""
    return {
        label: {
            "n": len(dist.values),
            "min": round(dist.minimum, 6),
            "median": round(dist.median, 6),
            "mean": round(dist.mean, 6),
            "max": round(dist.maximum, 6),
            "total": round(sum(dist.values), 6),
        }
        for label, dist in distributions.items()
    }
