"""Record the reference reports that benchmark samples are checked against.

Usage, from the repository root, at the commit whose output is the
reference::

    python3 perfbench/record_references.py

Writes, under ``perfbench/references/``:

* ``campaign_tables.txt`` — Table 2 and Table 3 of a cold full
  campaign, which ``cold_full`` must print byte for byte;
* ``recall_b16.json`` — ``repro mutate --json`` over every registry
  mutant at path budget 16, which ``recall_sweep`` must write.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references"


def repro(root: Path, scratch: Path, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               REPRO_CACHE_DIR=str(scratch / "cache"),
               XDG_CACHE_HOME=str(scratch / "xdg"))
    done = subprocess.run([sys.executable, "-m", "repro", *args], cwd=root,
                          env=env, capture_output=True, text=True,
                          check=True)
    return done.stdout


def main() -> int:
    root = Path.cwd()
    scratch = root / ".perfbench" / "record"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        stdout = repro(root, scratch, "campaign", "-j", "1",
                       "--cache-dir", str(scratch / "store"))
        tables, found, _stats = stdout.partition("\nresult cache:")
        if not found:
            raise SystemExit("campaign printed no result-cache line")
        REFERENCES.mkdir(exist_ok=True)
        (REFERENCES / "campaign_tables.txt").write_text(tables)
        recall = scratch / "recall.json"
        repro(root, scratch, "mutate", "-j", "2", "--budgets", "16",
              "--journal-dir", str(scratch / "journal"),
              "--cache-dir", str(scratch / "recall-store"),
              "--json", str(recall))
        shutil.copyfile(recall, REFERENCES / "recall_b16.json")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()  # only when no benchmark run is using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
