#!/usr/bin/env python3
"""Quickstart: concolic exploration + differential testing of one byte-code.

Reproduces the paper's guiding example (Listing 1 / Table 1 / Fig. 2):
the integer-addition byte-code is concolically explored against the
interpreter, the discovered paths are printed in the style of Table 1,
and each path is then executed differentially against the production
StackToRegister compiler on the simulated x86 machine.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    BytecodeInstructionSpec,
    CampaignConfig,
    StackToRegisterCogit,
    bytecode_named,
    explore_bytecode,
    test_instruction,
)
from repro.jit.machine.x86 import X86Backend


def show_exploration() -> None:
    print("=" * 72)
    print("Step 1 — concolic exploration of bytecodePrimAdd (paper Table 1)")
    print("=" * 72)
    result = explore_bytecode(bytecode_named("bytecodePrimAdd"))
    print(
        f"{result.iterations} concolic iterations discovered "
        f"{result.path_count} paths in {result.elapsed_seconds * 1000:.0f} ms\n"
    )
    for index, path in enumerate(result.paths, 1):
        print(f"Path #{index} — exit: {path.exit.describe()}")
        print(f"  inputs:      {path.model.describe() or '(default: empty frame)'}")
        print(f"  constraints: {' AND '.join(str(c) for c in path.constraints)}")
        print(f"  output:      {path.output.describe()}")
        print()


def show_differential_test() -> None:
    print("=" * 72)
    print("Steps 2-4 — differential test vs StackToRegisterCogit (x86)")
    print("=" * 72)
    spec = BytecodeInstructionSpec(bytecode_named("bytecodePrimAdd"))
    config = CampaignConfig(backends=(X86Backend,))
    report = test_instruction(spec, StackToRegisterCogit, config)
    for comparison in report.comparisons:
        print(f"  {comparison.describe()}")
    print()
    print(
        f"=> {report.differing_paths} differing path(s) out of "
        f"{report.curated_paths} curated paths"
    )
    print(
        "   (the difference is the paper's 'optimisation difference': the\n"
        "   interpreter inlines float arithmetic, the compiler emits a send)"
    )


def main() -> None:
    show_exploration()
    show_differential_test()


if __name__ == "__main__":
    main()
