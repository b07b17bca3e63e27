"""Child side of one benchmark sample.

Usage: ``PYTHONPATH=src python3 perfbench/probe.py <repro arguments>``

Runs the repro CLI in this process, as ``python -m repro`` does, with
two hooks the benchmark needs to read a sample from outside:

* the driver mark — the monotonic time at which the campaign or recall
  driver is entered, where a sample's ``setup_s`` ends;
* campaign accounting around the runner's row dispatcher — per
  campaign, the cells given a verdict, served from the result store,
  resumed and quarantined.

Both are one wrapper call per campaign.  With ``PERFBENCH_TRACE_DIR``
set, the sample is traced as well: tracer.py wraps the layer entry
points, every campaign runs with ``CampaignConfig.profile`` on and its
profile snapshot is kept, and the spans are written to that directory.
With ``PERFBENCH_SETUP_ONLY`` set, the process exits at the driver
mark: a set-up probe, which times the set-up alone.  The facts go, as
JSON, to the file named by ``PERFBENCH_FACTS`` when the process exits.
"""

from __future__ import annotations

import atexit
import dataclasses
import functools
import importlib
import json
import os
import sys
import time

#: Subcommand -> (module, attribute) of the driver it enters.
DRIVERS = {
    "campaign": ("repro.cli", "run_campaign"),
    "mutate": ("repro.mutation.recall", "run_recall"),
}


def mark_driver(func, facts: dict, setup_only: bool):
    @functools.wraps(func)
    def driver(*args, **kwargs):
        if facts["driver_entered"] is None:
            facts["driver_entered"] = time.monotonic()
        if setup_only:
            write_facts(os.environ["PERFBENCH_FACTS"], facts, os.getpid())
            os._exit(0)
        return func(*args, **kwargs)

    return driver


def account_campaigns(func, facts: dict, profile: bool):
    @functools.wraps(func)
    def run_rows(config, rows, **kwargs):
        if profile:
            config = dataclasses.replace(config, profile=True)
        result = func(config, rows, **kwargs)
        facts["campaigns"].append({
            "cells": sum(len(report.results) for report in result),
            "served": result.cached_cells,
            "resumed": result.resumed_cells,
            "quarantined": len(result.quarantine),
            "stored": result.cache.stored if result.cache else 0,
            "profile": result.perf if profile else None,
        })
        return result

    return run_rows


def write_facts(path: str, facts: dict, owner: int) -> None:
    if os.getpid() == owner:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(facts, handle)


def main(argv: list) -> int:
    started = time.monotonic()
    import repro.cli
    import repro.difftest.runner as runner

    imported = time.monotonic()
    facts = {"import_s": imported - started, "driver_entered": None,
             "campaigns": []}
    atexit.register(write_facts, os.environ["PERFBENCH_FACTS"], facts,
                    os.getpid())
    module, attribute = DRIVERS[argv[0]]
    owner = importlib.import_module(module)
    setattr(owner, attribute, mark_driver(
        getattr(owner, attribute), facts,
        setup_only=bool(os.environ.get("PERFBENCH_SETUP_ONLY"))))
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    runner._run_rows = account_campaigns(runner._run_rows, facts,
                                         profile=bool(trace_dir))
    if trace_dir:
        from tracer import Tracer

        tracer = Tracer(trace_dir)
        tracer.add("cli.import", started, imported)
        tracer.install()
        atexit.register(
            lambda: os.getpid() == tracer.pid and tracer.dump()
        )
    return repro.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
