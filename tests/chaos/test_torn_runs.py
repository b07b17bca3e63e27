"""The torn-run chaos harness, exercised for real.

These tests SIGKILL live campaign subprocesses immediately before
durable writes and require byte-identical resumed reports — the same
gate the CI ``chaos-smoke`` job runs at 20 points with fixed seeds.
``REPRO_CHAOS_POINTS`` scales the in-suite sweep (default: 3, one per
write site).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

from repro.robustness.chaos import (
    SITES,
    normalize_report,
    run_torn_campaign,
)


class TestWritePointHooks:
    def _run_child(self, tmp_path, env_extra, script):
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src, **env_extra)
        return subprocess.run([sys.executable, "-c", script], env=env,
                              cwd=tmp_path, capture_output=True, text=True,
                              timeout=60)

    SCRIPT = (
        "from repro.robustness.chaos import write_point\n"
        "write_point('journal', 'sink.txt', b'record one\\n')\n"
        "write_point('store', 'sink.txt', b'record two\\n')\n"
        "write_point('journal', 'sink.txt', b'record three\\n')\n"
        "print('survived')\n"
    )

    def test_disarmed_hooks_are_inert(self, tmp_path):
        proc = self._run_child(tmp_path, {}, self.SCRIPT)
        assert proc.returncode == 0
        assert "survived" in proc.stdout
        assert not (tmp_path / "sink.txt").exists()

    def test_trace_censuses_every_site(self, tmp_path):
        proc = self._run_child(
            tmp_path, {"REPRO_CHAOS_TRACE": str(tmp_path / "trace.txt")},
            self.SCRIPT,
        )
        assert proc.returncode == 0
        trace = (tmp_path / "trace.txt").read_text().split()
        assert trace == ["journal", "store", "journal"]

    def test_kill_after_fires_before_the_write(self, tmp_path):
        proc = self._run_child(tmp_path, {"REPRO_CHAOS_KILL_AFTER": "2"},
                               self.SCRIPT)
        assert proc.returncode == -signal.SIGKILL
        assert "survived" not in proc.stdout
        assert not (tmp_path / "sink.txt").exists()

    def test_tear_leaves_half_a_record_behind(self, tmp_path):
        proc = self._run_child(
            tmp_path,
            {"REPRO_CHAOS_KILL_AFTER": "2", "REPRO_CHAOS_TEAR": "1"},
            self.SCRIPT,
        )
        assert proc.returncode == -signal.SIGKILL
        torn = (tmp_path / "sink.txt").read_bytes()
        assert torn == b"record two"[: len(b"record two\n") // 2]

    def test_site_filter_skips_other_sites(self, tmp_path):
        proc = self._run_child(
            tmp_path,
            {"REPRO_CHAOS_KILL_AFTER": "1", "REPRO_CHAOS_SITES": "store"},
            self.SCRIPT,
        )
        # Only the one store write counts; the kill fires there.
        assert proc.returncode == -signal.SIGKILL


class TestNormalizeReport:
    def test_strips_status_lines_and_their_blanks(self):
        raw = ("Table 2\n\nresumed 4 cells from run.jsonl\n\n"
               "result cache: 1 hits / 2 misses (0 stale) -- hit rate 33%\n"
               "resilience: 1 cell(s) preempted by --cell-timeout\n"
               "totals\n")
        assert normalize_report(raw) == "Table 2\n\ntotals\n"

    def test_identical_reports_stay_identical(self):
        report = "Table 2\nrow\n\nTable 3\nrow\n"
        assert normalize_report(report) == normalize_report(report)


class TestEntryPoint:
    def test_module_runs_once(self):
        """Importing the package must not import chaos: runpy would
        then run the module a second time, and warn about it."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.robustness.chaos", "--help"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "usage:" in proc.stdout


class TestTornRunSweep:
    def test_seeded_kill_points_resume_byte_identical(self, tmp_path):
        """The crash-consistency contract, adversarially: kill a real
        campaign before durable writes, resume, demand byte equality
        and uncorrupted sinks at every point."""
        points = int(os.environ.get("REPRO_CHAOS_POINTS", "3"))
        report = run_torn_campaign(points=points, seed=20260808,
                                   workdir=tmp_path / "sweep")
        assert report.baseline_writes > 0
        # Every durable sink was exercised by the baseline census.
        assert all(report.site_counts.get(site, 0) > 0 for site in SITES)
        failures = [failure for outcome in report.outcomes
                    for failure in outcome.failures]
        assert report.ok, "\n".join([report.describe()] + failures)
        # At least one point deliberately tore a line (the CRC layer's
        # worst case), per the default tear_every=2.
        assert any(outcome.tear for outcome in report.outcomes)
