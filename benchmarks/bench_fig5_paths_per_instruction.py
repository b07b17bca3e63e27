"""Figure 5 — paths per instruction, byte-codes vs native methods.

"Byte-code instructions present in average few more than 2 paths, while
native method instructions approach 10 paths in average" (paper
Section 5.3, Fig. 5 — log-scale box plot).

The distribution is rendered from the session campaign's cells, one per
instruction, and must equal its golden.
"""

from __future__ import annotations

from benchmarks.conftest import check_golden
from repro.difftest.report import format_distributions, paths_per_instruction


def test_fig5_paths_per_instruction(instruction_cells):
    distributions = paths_per_instruction(instruction_cells)
    check_golden(
        "fig5_paths_per_instruction.txt",
        format_distributions("Paths per instruction (Fig. 5)", distributions),
    )

    bytecode = distributions["bytecode"]
    native = distributions["native"]
    # The headline shape: native methods have several times the paths.
    assert native.mean > 2 * bytecode.mean
    # Byte-codes: "few more than 2 paths" on average.
    assert 1.0 <= bytecode.mean <= 5.0
    # Native methods: approaching 10 in the paper; >= 5 here.
    assert native.mean >= 5.0
    # Every instruction explored at least one path.
    assert bytecode.minimum >= 1
    assert native.minimum >= 1
