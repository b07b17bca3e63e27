"""Table 1 — concolic execution paths of the addition byte-code.

Paper Table 1 lists the concrete arguments and the constraint path of
each exploration of ``bytecodePrimAdd`` (Listing 1).  The benchmark
runs one full concolic exploration of the instruction; the rendered
table must equal ``benchmarks/golden/table1.txt``, and the exploration's
run time goes to ``benchmarks/results/BENCH_table1_add_paths.json``.

Paper rows (for comparison):

    0 (integer)          0 (integer)  isInteger(a0), isInteger(a1), isInteger(a0+a1)
    0xFFFFFFFF (integer) 1 (integer)  isInteger(a0), isInteger(a1), isNotInteger(a0+a1)
    0 (integer)          object1      isInteger(a0), isNotInteger(a1)
    object1              0 (integer)  isNotInteger(a0), isInteger(a1)
    object1              object2      isNotInteger(a0), isNotInteger(a1)

Our engine additionally reports the invalid-frame bootstrap path
(Fig. 2 execution #1), the second overflow direction, and the
float-inlining paths of this interpreter.
"""

from __future__ import annotations

from benchmarks.conftest import check_golden, write_json_artifact
from repro import bytecode_named, explore_bytecode
from repro.interpreter.exits import ExitCondition


def render_table1(result) -> str:
    lines = [
        f"{'Inputs':44s} {'Exit':24s} Path",
        "-" * 110,
    ]
    for path in result.paths:
        inputs = path.model.describe() or "(empty frame)"
        constraints = " AND ".join(str(c) for c in path.constraints)
        lines.append(
            f"{inputs[:44]:44s} {path.exit.describe()[:24]:24s} {constraints}"
        )
    lines.append("")
    lines.append(
        f"{result.path_count} paths in {result.iterations} concolic "
        f"iterations"
    )
    return "\n".join(lines)


def test_table1_add_bytecode_paths():
    result = explore_bytecode(bytecode_named("bytecodePrimAdd"))
    check_golden("table1.txt", render_table1(result))
    write_json_artifact("table1_add_paths", {
        "elapsed_ms": round(result.elapsed_seconds * 1000, 3),
    })

    conditions = [path.exit.condition for path in result.paths]
    # Paper Table 1 structure: an all-integer success path, overflow
    # send paths, and mixed/object operand send paths.
    assert ExitCondition.SUCCESS in conditions
    assert conditions.count(ExitCondition.MESSAGE_SEND) >= 4
    assert ExitCondition.INVALID_FRAME in conditions
    # Both integer-typed and object-typed operand paths were explored.
    rendered = [" ".join(str(c) for c in path.constraints) for path in result.paths]
    assert any("not(is_small_int(stack0))" in r for r in rendered)
    assert any("not(is_small_int(stack1))" in r for r in rendered)
    assert any("not(le(add(" in r or "not(ge(add(" in r for r in rendered), (
        "an overflow path must be explored"
    )
