"""`campaign --triage` on the extension corpora, through the CLI.

Most sequence divergences have an empty path condition, which is a
path signature like any other: triage must relocate and confirm them.
A stitched method's cause repeats its long name, so the reproducer's
file name must stay within the file system's bound.
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
from pathlib import Path

import repro
from repro.cli import main
from repro.triage.emit import MAX_SLUG


def triage(tmp_path, *args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["campaign", *args, "--triage", "--no-cache",
                     "--repro-dir", str(tmp_path / "repros")])
    assert code == 0
    return out.getvalue()


def run_reproducer(script: Path) -> int:
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        env={"PYTHONPATH": src_dir, "PATH": "/usr/bin:/bin"},
        timeout=300,
    ).returncode


def assert_confirmed_with_reproducers(output: str, tmp_path) -> list:
    assert "confirmation: deterministic (3/3)" in output
    assert "unconfirmed" not in output
    scripts = sorted((tmp_path / "repros").glob("*.py"))
    assert len(scripts) == output.count("      repro: ") >= 1
    for script in scripts:
        assert run_reproducer(script) == 1, script.name
    return scripts


def test_empty_path_condition_confirms(tmp_path):
    """The planned sequence keeps its operand byte, which its ``seq:``
    name drops: triage resolves the planned spec, not a re-encoding."""
    output = triage(tmp_path, "--sequences",
                    "--only", "seq:pushIntegerByte+sendIsNil")
    assert "shrunken: 0 -> 0 constraint(s)" in output
    assert_confirmed_with_reproducers(output, tmp_path)


def test_stitched_reproducer_name_is_bounded(tmp_path):
    name = ("stitch:pushOne+longJump.1+nop+pushTwo+bytecodePrimAdd+pushZero"
            "+popIntoTemporaryVariable0+pushTemporaryVariable0")
    output = triage(tmp_path, "--stitch", "--only", name)
    scripts = assert_confirmed_with_reproducers(output, tmp_path)
    # The slug is cut; the digest after it keeps the name unique.
    for script in scripts:
        slug, digest = script.stem.rsplit("-", 1)
        assert len(slug) == MAX_SLUG and len(digest) == 12
