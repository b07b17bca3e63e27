"""One world per instruction: shared by a shard's cells, isolated between them.

The campaign tests every compiler and backend of a shard in one
:class:`~repro.concolic.explorer.VMWorld`.  Sharing is sound only if no
comparison leaves state behind for the next.  These tests pin that on
the instructions that allocate (float results, new instances, points,
sends), where a leftover write or allocation would shift object
addresses and show in the verdict details.  They also pin the retry
rule: a quarantine retry tests in a private world.
"""

from __future__ import annotations

from dataclasses import replace

from repro.concolic.explorer import ExplorationCache, VMWorld
from repro.difftest import harness
from repro.difftest.runner import (
    BYTECODE_COMPILERS,
    CampaignConfig,
    bytecode_specs,
    execute_cell,
    explore_instruction,
    native_specs,
    run_campaign,
)
from repro.difftest.runner import test_instruction as run_instruction_test
from repro.jit.native_templates import NativeMethodCompiler
from repro.robustness.budgets import Deadline
from repro.robustness.checkpoint import CampaignJournal
from repro.robustness.faults import FaultPlan, inject_faults

CONFIG = CampaignConfig()

FLOAT_RESULTS = (
    "primitiveAsFloat", "primitiveFloatAbs", "primitiveFloatNegated",
    "primitiveFloatAdd", "primitiveFloatSubtract", "primitiveFloatMultiply",
    "primitiveFloatDivide", "primitiveFloatFractionPart",
    "primitiveFloatTimesTwoPower", "primitiveFloatSquareRoot",
    "primitiveFloatSin", "primitiveFloatArctan", "primitiveFloatLogN",
    "primitiveFloatExp", "primitiveFFIReadFloat32", "primitiveFFIReadFloat64",
)


def allocating_shards() -> list:
    """``(spec, compiler classes)`` of every shard whose instruction
    allocates."""
    shards = [
        (spec, (NativeMethodCompiler,))
        for spec in native_specs(CONFIG)
        if spec.name in FLOAT_RESULTS
        or spec.name.startswith("primitiveNew")
        or spec.name == "primitiveMakePoint"
    ]
    shards += [
        (spec, BYTECODE_COMPILERS)
        for spec in bytecode_specs(CONFIG)
        if spec.name.startswith("send")
    ]
    return shards


def comparable(record: dict) -> dict:
    """A serialized cell record without its wall-clock timings."""
    record = dict(record)
    del record["explore_seconds"], record["test_seconds"]
    return record


def shared_world_records(spec, compilers, exploration) -> list:
    """The shard as the campaign runs it: every cell in one world."""
    cache = ExplorationCache()
    cache.put(spec, exploration)
    records = []
    for compiler_class in compilers:
        result = execute_cell(CONFIG, Deadline(None), spec, compiler_class,
                              cache)
        assert result.quarantined is None, result.quarantined
        records.append(comparable(result.to_record(compiler_class.name)))
    return records


def fresh_world_records(spec, compilers, exploration) -> list:
    """Every cell, and every backend of it, in a world of its own."""
    records = []
    for compiler_class in compilers:
        parts = [
            run_instruction_test(spec, compiler_class,
                                 replace(CONFIG, backends=(backend,)),
                                 exploration, world=VMWorld(spec))
            for backend in CONFIG.backends
        ]
        result = parts[0]
        for part in parts[1:]:
            result.comparisons.extend(part.comparisons)
        records.append(comparable(result.to_record(compiler_class.name)))
    return records


class TestSharedWorldIsolation:
    def test_cells_in_one_world_serialize_as_in_fresh_worlds(self):
        shards = allocating_shards()
        assert len(shards) > 50
        differing = 0
        for spec, compilers in shards:
            exploration = explore_instruction(spec, CONFIG)
            shared = shared_world_records(spec, compilers, exploration)
            assert shared == fresh_world_records(
                spec, compilers, exploration
            ), spec.name
            differing += sum(record["differing_paths"] for record in shared)
        # Differences carry raw oops in their details: the comparison
        # above would see a shifted address.
        assert differing > 0


class TestRetryRule:
    INSTRUCTION = "bytecodePrimAdd"

    def run(self, journal_path):
        config = CampaignConfig(only=(self.INSTRUCTION,), profile=True)
        result = run_campaign(config, journal_path=journal_path)
        records = CampaignJournal(journal_path).load()
        return result, [comparable(records[key]) for key in sorted(records)]

    def test_retry_builds_a_private_world(self, tmp_path, monkeypatch):
        consulted = []
        original = harness.maybe_inject

        def counting(stage, *args, **kwargs):
            if stage == "harness":
                consulted.append(args)
            return original(stage, *args, **kwargs)

        monkeypatch.setattr(harness, "maybe_inject", counting)
        first = BYTECODE_COMPILERS[0].name
        plan = FaultPlan(stage="harness", times=1,
                         instruction=self.INSTRUCTION, compiler=first)
        with inject_faults(plan):
            faulted, faulted_records = self.run(tmp_path / "faulted.jsonl")
        faulted_calls = len(consulted)
        consulted.clear()
        clean, clean_records = self.run(tmp_path / "clean.jsonl")

        by_compiler = {record["compiler"]: record for record in faulted_records}
        assert by_compiler[first]["retries"] == 1
        assert by_compiler[first]["quarantined"] is None
        # The shard's world, plus the private one the retry built.
        assert faulted.perf["counters"]["test.worlds"] == 2
        assert clean.perf["counters"]["test.worlds"] == 1
        # The shard's other cells are untouched by the failed attempt.
        assert [r for r in faulted_records if r["compiler"] != first] == [
            r for r in clean_records if r["compiler"] != first
        ]
        # The plan is consulted once per path, whose one compile serves
        # every backend: the failed first attempt's single consultation,
        # then one per path of every comparison that completed.
        backends = len(CampaignConfig().backends)
        comparisons = sum(len(r["comparisons"]) for r in faulted_records)
        assert faulted_calls == 1 + comparisons // backends
        assert len(consulted) * backends == sum(
            len(r["comparisons"]) for r in clean_records
        )
