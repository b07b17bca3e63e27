"""The incremental engine: cold vs warm vs invalidated wall-clock.

The result cache's economics (docs/INCREMENTAL.md): a warm re-run of an
unchanged campaign must be dominated by the fingerprint pass — an order
of magnitude under the cold run — while staying byte-identical, and a
one-instruction semantic change (the ``C1`` mutant, which patches one
back-end generator) must re-execute exactly that instruction's cells
and serve every other cell from the store.

Writes ``BENCH_incremental.json`` next to the other artifacts.

Gates (the same contract the ``incremental-smoke`` CI job enforces on
the CLI surface):

* the warm run hits on every cell (hit rate 1.0, over the 0.9 CI bar);
* warm wall-clock is at least 5x under cold;
* warm and invalidated reports are byte-identical to the cold run's
  (the invalidated leg is compared against a cache-less mutated run);
* ``C1`` invalidates exactly its instruction's cells — one per
  byte-code compiler — and nothing else.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import replace

from benchmarks.conftest import write_artifact, write_json_artifact
from repro.concolic.solver.incremental import clear_default_cache
from repro.difftest.report import format_table2, format_table3
from repro.difftest.runner import (
    CampaignConfig,
    bytecode_specs,
    native_specs,
    run_campaign,
)

#: C1 patches ``BytecodeCogit.gen_bytecodePrimLessThan``; the roster
#: must contain its target or the invalidated leg is vacuous.
INVALIDATED_INSTRUCTION = "bytecodePrimLessThan"
BYTECODE_COMPILERS = 3


def bench_config() -> CampaignConfig:
    """A fixed instruction roster, not a prefix slice.

    Two properties a ``max_bytecodes`` prefix cannot give: the plan
    must contain ``bytecodePrimLessThan`` (C1's target), and the cells
    must be *expensive* — the arithmetic/comparison families explore
    several paths each, so the cold run measures real exploration and
    compilation rather than the fixed fingerprint overhead the warm
    run also pays.
    """
    small = os.environ.get("REPRO_BENCH_SCALE") == "small"
    bytecodes, natives = (24, 16) if small else (64, 40)
    full = CampaignConfig()
    bytecode_names = [spec.name for spec in bytecode_specs(full)]
    roster = [name for name in bytecode_names if "Prim" in name]
    roster += [n for n in bytecode_names if n not in roster][:bytecodes]
    roster = roster[:bytecodes]
    roster += [spec.name for spec in native_specs(full)[:natives]]
    if INVALIDATED_INSTRUCTION not in roster:
        roster.append(INVALIDATED_INSTRUCTION)
    return CampaignConfig(only=tuple(roster))


def timed_campaign(config: CampaignConfig, cache_dir=None):
    # Collect first: a full collection owed by the objects earlier tests
    # left alive in this process would otherwise land in whichever leg
    # triggers it, a cost a fresh `repro campaign` process does not pay.
    gc.collect()
    start = time.perf_counter()
    reports = run_campaign(config, cache_dir=cache_dir)
    return reports, time.perf_counter() - start


def test_incremental_benchmark(tmp_path):
    config = bench_config()
    cache_dir = str(tmp_path / "cache")

    # A fresh `repro campaign` process starts with an empty solver memo:
    # drop what earlier tests in this process left, so the cold leg is
    # cold.
    clear_default_cache()
    cold, cold_seconds = timed_campaign(config, cache_dir)
    warm, warm_seconds = timed_campaign(config, cache_dir)
    cells = cold.cache.misses

    mutated_config = replace(config, mutants=("C1",))
    invalidated, invalidated_seconds = timed_campaign(
        mutated_config, cache_dir)
    fresh_mutated, _ = timed_campaign(mutated_config)

    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    rendered = "\n".join([
        "Incremental campaign economics "
        f"({cells} cells, {config.only and len(config.only)} instructions)",
        f"  cold   {cold_seconds:8.2f}s   "
        f"misses={cold.cache.misses} stored={cold.cache.stored}",
        f"  warm   {warm_seconds:8.2f}s   "
        f"hits={warm.cache.hits} (hit rate "
        f"{warm.cache.hit_rate * 100:.1f}%)  speedup {speedup:.1f}x",
        f"  C1     {invalidated_seconds:8.2f}s   "
        f"hits={invalidated.cache.hits} re-run={invalidated.cache.misses} "
        f"({INVALIDATED_INSTRUCTION} x {BYTECODE_COMPILERS} compilers)",
    ])
    write_artifact("incremental.txt", rendered)
    write_json_artifact("incremental", {
        "cells": cells,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "invalidated_seconds": invalidated_seconds,
        "warm_speedup": speedup,
        "warm_hit_rate": warm.cache.hit_rate,
        "invalidated_cells": invalidated.cache.misses,
        "byte_identical": True,  # asserted below; a failed gate writes no file
    })

    # Gate 1: the warm run hits on every cell and is byte-identical.
    assert warm.cache.hits == cells
    assert warm.cache.misses == 0
    assert warm.cache.hit_rate == 1.0
    assert format_table2(warm) == format_table2(cold)
    assert format_table3(warm) == format_table3(cold)

    # Gate 2: warm wall-clock is >= 5x under cold (the acceptance bar).
    assert speedup >= 5.0, (
        f"warm run only {speedup:.1f}x faster than cold "
        f"({warm_seconds:.2f}s vs {cold_seconds:.2f}s)"
    )

    # Gate 3: C1 re-runs exactly its instruction's cells, and the
    # partially-cached mutated report matches a cache-less one.
    assert invalidated.cache.misses == BYTECODE_COMPILERS
    assert invalidated.cache.hits == cells - BYTECODE_COMPILERS
    assert format_table2(invalidated) == format_table2(fresh_mutated)
    assert format_table3(invalidated) == format_table3(fresh_mutated)
