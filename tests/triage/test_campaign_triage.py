"""Acceptance tests: `campaign --triage` on a seeded defect flood.

The scenario is the paper's own: re-seed the R10/R11 fault-describer
gap (mutants `R10`/`R11`, `MUTATION.md`), scope the campaign to the
instructions that hit it, and let the flood of differing executions
pour in.  Triage must fold the flood into a handful of confirmed cause
buckets, shrink each to a minimal input, and emit standalone
reproducers that fail on their own — byte-identically at every `-j`
value and across a resume.
"""

from __future__ import annotations

import contextlib
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.difftest.runner import CampaignConfig, run_campaign
from repro.triage import TriageConfig, format_causes
from repro.triage.candidates import bucket_candidates, collect_divergences
from repro.triage.lab import TriageLab
from repro.triage.replay import replay
from repro.triage.shrink import shrink_candidate

#: The seeded-flood scenario: three natives that exercise the R10/R11
#: describer gap, producing dozens of differing executions from at
#: most a handful of root causes.
SCOPE = ("primitiveFloatTruncated", "primitiveMod", "primitiveConstantFill")
CONFIG = CampaignConfig(only=SCOPE, mutants=("R10", "R11"))


def triage_config():
    return TriageConfig(confirm_runs=2, repro_dir="repros")


def repro_files(workdir):
    return sorted((workdir / "repros").glob("*.py"))


@pytest.fixture(scope="module")
def triaged(tmp_path_factory):
    """The sequential seeded campaign every other run is compared to."""
    workdir = tmp_path_factory.mktemp("triage-seq")
    with contextlib.chdir(workdir):
        result = run_campaign(
            CONFIG,
            journal_path=workdir / "run.jsonl",
            triage=triage_config(),
        )
    return result, workdir


class TestSeededFlood:
    def test_flood_dedups_into_few_buckets(self, triaged):
        triage = triaged[0].triage
        assert 1 <= len(triage.causes) <= 5
        # Dedup must actually fold something: many executions, few causes.
        assert triage.divergence_count > len(triage.causes)
        assert sum(c.count for c in triage.causes) == triage.divergence_count

    def test_seeded_describer_gap_is_a_named_cause(self, triaged):
        causes = {c.signature.cause for c in triaged[0].triage.causes}
        assert any(cause.startswith("missing-getter:R1") for cause in causes)

    def test_every_cause_is_confirmed_deterministic(self, triaged):
        for cause in triaged[0].triage.causes:
            assert cause.confirmation == "deterministic"
            assert (cause.confirmed_runs, cause.total_runs) == (2, 2)

    def test_every_cause_shrank_to_a_minimal_input(self, triaged):
        for cause in triaged[0].triage.causes:
            assert cause.shrunken_shape is not None
            assert len(cause.constraints) <= cause.original_constraints
            assert cause.model is not None

    def test_backends_fold_into_one_bucket(self, triaged):
        assert all(
            cause.backends == ("arm32", "x86")
            for cause in triaged[0].triage.causes
        )

    def test_reproducers_emitted_and_self_verified(self, triaged):
        result, workdir = triaged
        emitted = {path.name for path in repro_files(workdir)}
        for cause in result.triage.causes:
            assert cause.repro_file in emitted
            assert cause.verified is True
        assert len(emitted) == len(result.triage.causes)

    def test_reproducer_fails_standalone(self, triaged):
        """An emitted script needs nothing but PYTHONPATH: exit 1 =
        divergence asserted."""
        _result, workdir = triaged
        script = repro_files(workdir)[0]
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src_dir, "PATH": "/usr/bin:/bin"},
            timeout=300,
        )
        assert proc.returncode == 1, proc.stderr
        assert "DIVERGENCE REPRODUCED" in proc.stdout


class TestEngineIdentity:
    def test_parallel_triage_is_byte_identical(self, triaged, tmp_path):
        """`-j 4` causes section and reproducer files match `-j 1`."""
        sequential, seq_dir = triaged
        with contextlib.chdir(tmp_path):
            parallel = run_campaign(CONFIG, jobs=4, triage=triage_config())
        assert format_causes(parallel.triage) == format_causes(
            sequential.triage
        )
        seq_repros = repro_files(seq_dir)
        par_repros = repro_files(tmp_path)
        assert [p.name for p in par_repros] == [p.name for p in seq_repros]
        for seq_file, par_file in zip(seq_repros, par_repros):
            assert par_file.read_bytes() == seq_file.read_bytes()

    def test_resume_replays_triage_without_reshrinking(
        self, triaged, monkeypatch
    ):
        """A `--resume` run reuses journaled triage state: the Causes
        section is byte-identical, nothing is re-confirmed or
        re-shrunk, and a deleted reproducer is re-emitted from the
        journal."""
        original, workdir = triaged

        def forbidden(*_args, **_kwargs):
            raise AssertionError("resume must not re-confirm or re-shrink")

        monkeypatch.setattr(
            "repro.triage.engine.shrink_candidate", forbidden
        )
        monkeypatch.setattr(TriageLab, "locate", forbidden)

        victim = repro_files(workdir)[0]
        source = victim.read_bytes()
        victim.unlink()

        with contextlib.chdir(workdir):
            resumed = run_campaign(
                CONFIG,
                journal_path=workdir / "run.jsonl",
                resume=True,
                triage=triage_config(),
            )

        assert format_causes(resumed.triage) == format_causes(
            original.triage
        )
        assert resumed.triage.reused_causes == len(resumed.triage.causes)
        assert victim.read_bytes() == source


class TestShrinkProperties:
    def test_shrunken_input_reproduces_identical_signature(self, triaged):
        """The acceptance predicate by construction: replaying the
        shrunken constraints + model must reproduce the *same*
        classification (category, cause, difference kind, exit pair),
        not just some defect."""
        for cause in triaged[0].triage.causes:
            expect = dict(
                cause.signature.to_dict(), backend=cause.exemplar_backend
            )
            verdict = replay(
                expect,
                cause.model,
                cause.constraints,
                max_sim_steps=CONFIG.max_sim_steps,
                mutants=CONFIG.mutants,
            )
            assert verdict.reproduced, cause.signature.canonical()

    def test_shrinking_is_deterministic(self, triaged):
        """Two independent labs shrink the same exemplar to the same
        constraints, model and shape."""
        candidates = collect_divergences(triaged[0])
        _signature, group = next(iter(bucket_candidates(candidates).values()))
        exemplar = group[0]
        outcomes = []
        for _ in range(2):
            lab = TriageLab(CONFIG)
            path = lab.locate(exemplar)
            assert path is not None
            outcome = shrink_candidate(lab, exemplar, path)
            outcomes.append((
                tuple((str(c.term), c.taken) for c in outcome.constraints),
                outcome.model.to_dict(),
                outcome.shape,
            ))
        assert outcomes[0] == outcomes[1]
