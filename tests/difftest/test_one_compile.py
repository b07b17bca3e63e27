"""One front end per path: a cell builds one tester, and each path is
compiled once, whatever the number of backends.

The backends are two encodings of one lowered micro-ISA program, so
materialization, IR generation and lowering run once per path; only
encoding, simulation and comparison repeat per backend.
"""

from __future__ import annotations

from collections import Counter

from repro.difftest import harness
from repro.difftest.harness import Status
from repro.difftest.runner import CampaignConfig, run_campaign
from repro.jit.compiler import BytecodeCogit
from repro.jit.native_templates import NativeMethodCompiler

SCOPE = CampaignConfig(max_bytecodes=8, max_natives=4)


def test_one_tester_per_cell_and_one_compile_per_path(monkeypatch):
    testers, compiles = Counter(), Counter()
    build = harness.DifferentialTester.__init__

    def counting_build(self, spec, compiler_class, *args, **kwargs):
        testers[spec.name, compiler_class.name] += 1
        build(self, spec, compiler_class, *args, **kwargs)

    monkeypatch.setattr(harness.DifferentialTester, "__init__",
                        counting_build)
    for compiler_class in (BytecodeCogit, NativeMethodCompiler):
        def counting_compile(self, unit, compile=compiler_class.compile):
            compiles[(unit.native or unit.bytecode).name, self.name] += 1
            return compile(self, unit)

        monkeypatch.setattr(compiler_class, "compile", counting_compile)

    result = run_campaign(SCOPE, jobs=1)
    cells = [cell for report in result for cell in report.results]
    first = SCOPE.backends[0].name
    compared = Counter({
        (cell.instruction, cell.compiler): sum(
            comparison.backend == first
            and comparison.status != Status.EXPECTED_FAILURE
            for comparison in cell.comparisons
        )
        for cell in cells
    })
    assert len(SCOPE.backends) == 2 and not result.quarantine
    assert testers == Counter(
        (cell.instruction, cell.compiler) for cell in cells
    )
    assert compiles == compared and compiles.total() > len(cells)
