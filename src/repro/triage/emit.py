"""Reproducer emission: one standalone, self-verified script per cause.

Each emitted file embeds only literal data (cell identity, expected
classification, shrunken constraints, minimal model) plus a call into
:mod:`repro.triage.replay`.  Rendering is fully deterministic — sorted
dict keys, fixed layout — so re-emitting the same cause (for example
after ``--resume``) writes byte-identical files.

Self-verification runs the freshly written file once in a subprocess
with the ``repro`` package on ``PYTHONPATH`` and requires the script's
divergence-asserted exit status (1).  A reproducer that does not fail
standalone is reported with ``self-check: NOT asserted`` rather than
silently trusted.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.robustness import chaos


def _literal(value, indent: int = 0) -> str:
    """Deterministic Python literal rendering (sorted dict keys)."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        pad = " " * (indent + 4)
        items = ",\n".join(
            f"{pad}{_literal(key)}: {_literal(value[key], indent + 4)}"
            for key in sorted(value)
        )
        return "{\n" + items + ",\n" + " " * indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "()"
        items = ", ".join(_literal(entry) for entry in value)
        if len(value) == 1:
            items += ","
        return f"({items})"
    return repr(value)


#: Longest slug a reproducer file name keeps: a stitched method's cause
#: repeats its long name, and file names are bounded (255 bytes).  The
#: digest after the slug keeps cut names unique.
MAX_SLUG = 120


def reproducer_filename(signature) -> str:
    return f"{signature.slug()[:MAX_SLUG]}-{signature.digest}.py"


def reproducer_source(cause, config) -> str:
    """The full source text of one cause's standalone reproducer."""
    signature = cause.signature
    expect = dict(signature.to_dict(), backend=cause.exemplar_backend)
    lines = [
        "#!/usr/bin/env python3",
        '"""Standalone reproducer emitted by `repro campaign --triage`.',
        "",
        f"signature: {signature.canonical()}",
        f"digest:    {signature.digest}",
        f"shrunken:  {cause.shrunken_shape or '(not shrunk)'}",
        "",
        "Rebuilds the frame from the minimal model below and runs the",
        "interpreter and the JIT side by side — no campaign machinery.",
        "Exits 1 when the divergence reproduces, 0 when it has vanished.",
        "",
        "Run with:  PYTHONPATH=src python " + reproducer_filename(signature),
        '"""',
        "",
        "import sys",
        "",
        "from repro.triage.replay import replay",
        "",
        f"EXPECT = {_literal(expect)}",
        f"CONSTRAINTS = {_literal(tuple(cause.constraints))}",
        f"MODEL = {_literal(cause.model or {})}",
        f"MAX_SIM_STEPS = {config.max_sim_steps}",
        f"MUTANTS = {_literal(tuple(getattr(config, 'mutants', ())))}",
        "",
        "",
        "def main() -> int:",
        "    verdict = replay(EXPECT, MODEL, CONSTRAINTS,",
        "                     max_sim_steps=MAX_SIM_STEPS,",
        "                     mutants=MUTANTS)",
        "    print(verdict.describe())",
        "    return 1 if verdict.reproduced else 0",
        "",
        "",
        'if __name__ == "__main__":',
        "    sys.exit(main())",
    ]
    return "\n".join(lines) + "\n"


def emit_reproducer(cause, repro_dir, config) -> Path:
    """Write (or deterministically re-write) one cause's reproducer."""
    path = Path(repro_dir) / reproducer_filename(cause.signature)
    path.parent.mkdir(parents=True, exist_ok=True)
    source = reproducer_source(cause, config)
    if not path.exists() or path.read_text(encoding="utf-8") != source:
        chaos.write_point("triage", path, source.encode("utf-8"))
        path.write_text(source, encoding="utf-8")
    return path


def self_verify(path, timeout: float = 300.0) -> bool:
    """Run an emitted reproducer once; True iff it asserts the divergence.

    The subprocess gets the currently imported ``repro`` package on
    ``PYTHONPATH``, so verification works regardless of how the parent
    was launched.
    """
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(path)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=timeout,
        )
    except (OSError, subprocess.TimeoutExpired):
        return False
    return proc.returncode == 1
