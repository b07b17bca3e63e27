"""Generated unit-test suites: the paper's concrete output artifact.

"Our approach generated in less than 10 minutes more than 4.5K tests"
— the concolic exploration's value is a *persistent* set of unitary,
fast, reproducible tests ("our tests are fast to run and easy to
debug", Section 6).  This module renders each curated path of an
instruction as one standalone pytest function: the generated module
rebuilds the input model from its serialized literal form, re-runs the
differential comparison through
:func:`~repro.difftest.runner.run_from_data` (as triage's reproducers
do), and asserts that interpreter and compiled code agree.

Paths that are *known differences* at generation time are emitted as
``xfail`` tests — they are the bug reports; when a VM developer fixes
the underlying defect the xfail flips and the test documents the fix.

Usage::

    from repro.difftest.testgen import generate_test_module, write_test_suite

    source = generate_test_module(spec, compiler_class)
    write_test_suite("generated_tests/", specs, compilers)

The generated modules depend only on the installed ``repro`` package.
"""

from __future__ import annotations

import hashlib
import pathlib
import re
from dataclasses import dataclass

from repro.concolic.explorer import ExplorationResult
from repro.difftest.curation import curate_paths
from repro.difftest.harness import DifferentialTester, Status
from repro.difftest.runner import CampaignConfig, explore_instruction
from repro.jit.machine.x86 import X86Backend

_MODULE_HEADER = '''\
"""Generated differential unit tests for {instruction}.

AUTOGENERATED by repro.difftest.testgen — do not edit by hand.
Each test materializes one concolically discovered input, runs the
interpreter and the {compiler} on it, and asserts behavioural
equivalence.  xfail tests are known interpreter/compiler differences.
"""

import pytest

from repro.difftest.harness import Status
from repro.difftest.runner import run_from_data

INSTRUCTION = {instruction!r}
COMPILER = {compiler!r}


def _assert_equivalent(result):
    assert result.status in (Status.MATCH, Status.EXPECTED_FAILURE), (
        result.describe()
    )
'''

_TEST_TEMPLATE = '''

{marker}@pytest.mark.parametrize("backend", ["x86", "arm32"])
def test_path_{index:03d}_{slug}(backend):
    """{doc}"""
    model_data = {model_data!r}
    _assert_equivalent(
        run_from_data(INSTRUCTION, COMPILER, backend, model_data)
    )
'''


def _slugify(text: str) -> str:
    slug = re.sub(r"[^a-zA-Z0-9]+", "_", text).strip("_").lower()
    return slug[:40] or "path"


@dataclass
class GeneratedSuite:
    """Bookkeeping for one generated module."""

    instruction: str
    compiler: str
    test_count: int
    xfail_count: int
    source: str


def generate_test_module(
    spec,
    compiler_class,
    exploration: ExplorationResult | None = None,
    config: CampaignConfig | None = None,
) -> GeneratedSuite:
    """Render one instruction × compiler into pytest source."""
    config = config or CampaignConfig()
    if exploration is None:
        exploration = explore_instruction(spec, config)
    curated = curate_paths(exploration.paths)

    # Determine, right now, which paths are known differences so they
    # can be generated as xfail bug reports.
    tester = DifferentialTester(spec, X86Backend(), compiler_class)
    verdicts = [tester.run_path(path) for path in curated]

    source = _MODULE_HEADER.format(
        instruction=spec.name, compiler=compiler_class.name
    )
    xfails = 0
    for index, (path, verdict) in enumerate(zip(curated, verdicts)):
        is_difference = verdict.status == Status.DIFFERENCE
        marker = ""
        if is_difference:
            xfails += 1
            reason = (verdict.difference_kind or "difference").replace('"', "'")
            marker = (
                f'@pytest.mark.xfail(reason="known difference: {reason}", '
                f"strict=True)\n"
            )
        doc = (
            f"exit: {path.exit.describe()} | inputs: "
            f"{path.model.describe() or '(defaults)'}"
        )[:200]
        source += _TEST_TEMPLATE.format(
            marker=marker,
            index=index,
            slug=_slugify(path.exit.condition.value),
            doc=doc,
            model_data=path.model.to_dict(),
        )
    return GeneratedSuite(
        instruction=spec.name,
        compiler=compiler_class.__name__,
        test_count=len(curated),
        xfail_count=xfails,
        source=source,
    )


def write_test_suite(
    output_dir,
    specs,
    compiler_classes,
    config: CampaignConfig | None = None,
) -> list[GeneratedSuite]:
    """Generate one module per (instruction, compiler) under *output_dir*."""
    config = config or CampaignConfig()
    output = pathlib.Path(output_dir)
    output.mkdir(parents=True, exist_ok=True)
    (output / "__init__.py").write_text("")
    suites = []
    for spec in specs:
        exploration = explore_instruction(spec, config)
        for compiler_class in compiler_classes:
            suite = generate_test_module(spec, compiler_class, exploration, config)
            # The slug is lossy and cut at 40 characters (stitched names
            # share long prefixes); the digest keeps file names unique.
            digest = hashlib.sha1(spec.name.encode()).hexdigest()[:8]
            name = (f"test_{_slugify(spec.name)}_{digest}_"
                    f"{_slugify(compiler_class.__name__)}.py")
            (output / name).write_text(suite.source)
            suites.append(suite)
    return suites
