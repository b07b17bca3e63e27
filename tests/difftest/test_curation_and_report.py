"""Curation rules and report assembly tests."""

from __future__ import annotations

import pytest

from repro.bytecode.opcodes import bytecode_named
from repro.concolic.explorer import (
    BytecodeInstructionSpec,
    ExplorationResult,
    explore_bytecode,
)
from repro import perf
from repro.difftest.curation import curate_paths, is_curated_in
from repro.difftest.report import (
    Distribution,
    exploration_times,
    format_distributions,
    format_retries,
    format_table2,
    format_table3,
    in_milliseconds,
    paths_per_instruction,
    retried_cells,
    table2,
    table3,
)
from repro.difftest.runner import CampaignConfig, CompilerReport, run_campaign
from repro.jit.machine.x86 import X86Backend


class TestCuration:
    def test_real_paths_are_curated_in(self):
        result = explore_bytecode(bytecode_named("bytecodePrimAdd"))
        curated = curate_paths(result.paths)
        assert len(curated) == len(result.paths)

    def test_unsatisfiable_model_curated_out(self):
        result = explore_bytecode(bytecode_named("bytecodePrimAdd"))
        path = result.paths[1]
        # Corrupt the model so it no longer satisfies the constraints.
        path.model.int_values["stack_size"] = 0
        assert not is_curated_in(path)

    def test_unresolvable_selector_curated_out(self):
        from repro.interpreter.exits import ExitResult

        result = explore_bytecode(bytecode_named("pushTrue"))
        path = result.paths[0]
        object.__setattr__(path, "exit",
                           ExitResult.message_send("selector@0x123", 0))
        assert not is_curated_in(path)

    def test_dropped_paths_are_counted_not_silent(self):
        """Curation discards paths by design, but the discard must be
        observable: the `curation_dropped` perf counter records it."""
        result = explore_bytecode(bytecode_named("bytecodePrimAdd"))
        result.paths[1].model.int_values["stack_size"] = 0
        perf.enable()
        try:
            curated = curate_paths(result.paths)
            snap = perf.snapshot()
        finally:
            perf.disable()
        assert len(curated) == len(result.paths) - 1
        assert snap["counters"]["curation_dropped"] == 1

    def test_nothing_dropped_counts_nothing(self):
        result = explore_bytecode(bytecode_named("bytecodePrimAdd"))
        perf.enable()
        try:
            curate_paths(result.paths)
            snap = perf.snapshot()
        finally:
            perf.disable()
        assert "curation_dropped" not in snap["counters"]


@pytest.fixture(scope="module")
def small_campaign():
    config = CampaignConfig(
        max_bytecodes=12, max_natives=8, backends=(X86Backend,)
    )
    return run_campaign(config)


class TestReports:
    def test_table2_has_totals_row(self, small_campaign):
        rows = table2(small_campaign)
        assert len(rows) == 5
        assert rows[-1][0] == "Total"
        assert rows[-1][1] == sum(r.tested_instructions for r in small_campaign)

    def test_table2_formatting(self, small_campaign):
        text = format_table2(small_campaign)
        assert "Native Methods (primitives)" in text
        assert "Total" in text

    def test_table3_total_is_cause_sum(self, small_campaign):
        rows = table3(small_campaign)
        assert rows[-1][0] == "Total"
        assert rows[-1][1] == sum(count for _, count in rows[:-1])

    def test_table3_formatting(self, small_campaign):
        text = format_table3(small_campaign)
        assert "behavioural difference" in text

    def test_paths_per_instruction_partitions_by_kind(self, small_campaign):
        cells = [
            result for report in small_campaign for result in report.results
        ]
        distributions = paths_per_instruction(cells)
        assert set(distributions) == {"bytecode", "native"}
        assert distributions["native"].values

    def test_exploration_times_non_negative(self, small_campaign):
        cells = [
            result for report in small_campaign for result in report.results
        ]
        for dist in exploration_times(cells).values():
            assert all(value >= 0 for value in dist.values)


class TestDistribution:
    def test_statistics(self):
        dist = Distribution("d", [1, 2, 3, 10])
        assert dist.mean == 4.0
        assert dist.median == 2.5
        assert dist.minimum == 1
        assert dist.maximum == 10

    def test_empty_distribution(self):
        dist = Distribution("d")
        assert dist.mean == 0.0
        assert dist.median == 0.0

    def test_formatting(self):
        text = format_distributions("T", {"a": Distribution("a", [1.0])})
        assert text.startswith("T")
        assert "n=   1" in text

    def test_times_render_in_milliseconds(self):
        seconds = {"a": Distribution("a", [0.0011, 0.0021])}
        text = format_distributions("T (ms)", in_milliseconds(seconds))
        assert "median=    1.60" in text
        assert seconds["a"].values == [0.0011, 0.0021]


class TestRetrySection:
    @staticmethod
    def fake_reports(*cells):
        from types import SimpleNamespace

        return [SimpleNamespace(results=[
            SimpleNamespace(instruction=instr, compiler=comp, retries=retries)
            for instr, comp, retries in cells
        ])]

    def test_no_retries_renders_empty(self, small_campaign):
        # The clean scoped campaign retried nothing: section is silent.
        assert retried_cells(small_campaign) == []
        assert format_retries(small_campaign) == ""

    def test_retried_cells_are_listed(self):
        reports = self.fake_reports(
            ("primitiveAdd", "native", 0),
            ("primitiveMod", "native", 1),
            ("pushTrue", "SimpleStackBasedCogit", 2),
        )
        assert retried_cells(reports) == [
            ("primitiveMod", "native", 1),
            ("pushTrue", "SimpleStackBasedCogit", 2),
        ]
        text = format_retries(reports)
        assert "Retried cells: 2 (3 reduced-budget retries)" in text
        assert "primitiveMod [native] retries=1" in text
        assert "pushTrue [SimpleStackBasedCogit] retries=2" in text
        assert "primitiveAdd" not in text

    def test_results_without_retry_field_are_tolerated(self):
        """Pre-PR-5 journal records carry no retry count: they read back
        as clean first attempts."""
        from types import SimpleNamespace

        from repro.difftest.runner import CellResult

        record = CellResult(instruction="pushTrue", kind="bytecode",
                            compiler="native").to_record("key")
        del record["retries"]
        reports = [SimpleNamespace(results=[CellResult.from_record(record)])]
        assert retried_cells(reports) == []


class TestCompilerReport:
    def test_percentage(self):
        report = CompilerReport("c", curated_paths=200, differing_paths=10)
        assert report.difference_percentage == 5.0

    def test_zero_paths(self):
        report = CompilerReport("c")
        assert report.difference_percentage == 0.0

    def test_row_rendering(self):
        report = CompilerReport(
            "c", tested_instructions=1, interpreter_paths=2,
            curated_paths=2, differing_paths=1,
        )
        assert report.row() == ("c", 1, 2, 2, "1 (50.00%)")
