"""CLI tests: every subcommand, exit codes, error handling."""

from __future__ import annotations

import pytest

from repro.cli import main, resolve_spec


class TestResolveSpec:
    def test_bytecode(self):
        assert resolve_spec("bytecodePrimAdd").kind == "bytecode"

    def test_primitive(self):
        assert resolve_spec("primitiveAt").kind == "native"

    def test_sequence(self):
        spec = resolve_spec("seq:pushTrue+popStackTop")
        assert spec.kind == "sequence"
        assert spec.byte_size == 2

    def test_unknown_bytecode(self):
        with pytest.raises(SystemExit):
            resolve_spec("bogusInstruction")

    def test_unknown_primitive(self):
        with pytest.raises(SystemExit):
            resolve_spec("primitiveBogus")

    def test_unknown_sequence_entry_exits(self):
        # An unknown entry exits like every other unknown name, not
        # with a BytecodeError traceback.
        with pytest.raises(SystemExit, match="pushTru"):
            resolve_spec("seq:pushTru+popStackTop")

    def test_every_curated_sequence_name_resolves(self):
        # A sequence's name drops jump operands, so the curated
        # sequence with a longJump cannot be re-encoded from its name.
        from repro.concolic.sequences import interesting_sequences

        for spec in interesting_sequences():
            assert resolve_spec(spec.name) == spec


class TestOnlyValidation:
    """A misspelt `--only` name exits before anything runs."""

    def test_campaign_rejects_a_misspelt_name(self):
        with pytest.raises(SystemExit, match="primitiveFloatTruncatd"):
            main(["campaign", "--only", "primitiveFloatTruncatd",
                  "--backend", "x86"])

    def test_campaign_lists_every_unknown_name(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--only", "pushTru", "--only", "primitiveMod",
                  "--only", "seq:pushTru+popStackTop", "--backend", "x86"])
        message = str(excinfo.value)
        assert "'pushTru'" in message
        assert "'seq:pushTru+popStackTop'" in message
        assert "primitiveMod" not in message

    def test_mutate_rejects_a_misspelt_name(self):
        # Running would report the mutant `missed`: a false verdict.
        with pytest.raises(SystemExit, match="primitiveModd"):
            main(["mutate", "--mutant", "I1", "--budgets", "4",
                  "--only", "primitiveModd", "--no-triage"])

    def test_every_name_kind_passes(self):
        from repro.cli import parse_only

        names = ("primitiveMod", "pushTrue",
                 "seq:pushOne+longJump+nop+pushTwo+bytecodePrimAdd",
                 "stitch:pushOne+pushTwo")
        assert parse_only(list(names)) == names
        assert parse_only(None) == ()

    def test_curated_sequence_with_a_jump_runs(self, capsys):
        assert main(["campaign", "--sequences", "--backend", "x86",
                     "--only",
                     "seq:pushOne+longJump+nop+pushTwo+bytecodePrimAdd"]) == 0
        out = capsys.readouterr().out
        assert "StackToRegisterCogit (sequences)" in out


class TestCommands:
    def test_explore(self, capsys):
        assert main(["explore", "duplicateTop"]) == 0
        out = capsys.readouterr().out
        assert "2 paths" in out
        assert "invalid_frame" in out

    def test_list_bytecodes(self, capsys):
        assert main(["list", "bytecodes"]) == 0
        out = capsys.readouterr().out
        assert "bytecodePrimAdd" in out

    def test_list_natives(self, capsys):
        assert main(["list", "natives"]) == 0
        assert "primitiveFFIReadInt32" in capsys.readouterr().out

    def test_list_sequences(self, capsys):
        assert main(["list", "sequences"]) == 0
        assert "seq:pushTrue+popStackTop" in capsys.readouterr().out

    def test_test_clean_instruction_exits_zero(self, capsys):
        assert main(["test", "pushTrue", "--backend", "x86"]) == 0
        assert "0 differing" in capsys.readouterr().out

    def test_test_defective_instruction_exits_nonzero(self, capsys):
        code = main(["test", "primitiveFloatAdd", "--backend", "x86"])
        assert code == 1
        assert "differing" in capsys.readouterr().out

    def test_test_compiler_selection(self, capsys):
        code = main(["test", "bytecodePrimAdd", "--compiler", "simple",
                     "--backend", "x86"])
        assert code == 1  # the missing type prediction differences
        assert "SimpleStackBasedCogit" in capsys.readouterr().out

    def test_campaign_scaled(self, capsys):
        code = main(["campaign", "--max-bytecodes", "5", "--max-natives", "3",
                     "--backend", "x86"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Native Methods (primitives)" in out
        assert "Total" in out

    def test_sequence_campaign(self, capsys):
        code = main(["campaign", "--sequences", "--backend", "x86"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(sequences)" in out
        # The register compilers match the interpreter on every sequence.
        assert "StackToRegisterCogit (sequences)" in out

    def test_campaign_journal_then_resume(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        args = ["campaign", "--max-bytecodes", "2", "--max-natives", "1",
                "--backend", "x86", "--journal", str(journal)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert journal.exists()

        assert main(args + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "resumed" in resumed
        # Replayed cells reproduce the same Table 2.
        assert first.splitlines()[:7] == resumed.splitlines()[:7]

    def test_campaign_triage_prints_causes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main([
            "campaign", "--only", "primitiveMod", "--backend", "x86",
            "--mutant", "R10,R11",
            "--triage", "--confirm-runs", "1", "--repro-dir", "repros",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Causes (--triage): 1 cause bucket(s)" in out
        assert "confirmation: deterministic (1/1)" in out
        assert "self-check: asserted" in out
        assert "Reproducers in: repros" in out
        assert list((tmp_path / "repros").glob("*.py"))

    def test_campaign_resume_requires_journal(self):
        with pytest.raises(SystemExit, match="--resume requires --journal"):
            main(["campaign", "--resume", "--backend", "x86"])

    def test_campaign_deadline_exhaustion_exits_2(self, capsys):
        code = main(["campaign", "--max-bytecodes", "2", "--max-natives", "1",
                     "--backend", "x86", "--deadline", "0"])
        assert code == 2
        assert "deadline expired" in capsys.readouterr().out

    def test_campaign_quarantine_section_printed(self, capsys):
        from repro.robustness.faults import FaultPlan, inject_faults

        plan = FaultPlan(stage="compile", compiler="SimpleStackBasedCogit")
        with inject_faults(plan):
            code = main(["campaign", "--max-bytecodes", "1",
                         "--max-natives", "1", "--backend", "x86"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Quarantined cells: 1" in out
        assert "CompilerCrash" in out

    def test_disasm(self, capsys):
        assert main(["disasm", "bytecodePrimAdd", "--backend", "arm32"]) == 0
        out = capsys.readouterr().out
        assert "arm32 code object" in out
        assert "send:+/1" in out

    def test_disasm_sequence(self, capsys):
        assert main(["disasm", "seq:pushOne+pushTwo+bytecodePrimAdd"]) == 0
        assert "brk" in capsys.readouterr().out

    def test_generate(self, tmp_path, capsys):
        code = main(["generate", str(tmp_path), "pushTrue", "primitiveAdd"])
        assert code == 0
        assert "generated" in capsys.readouterr().out
        assert list(tmp_path.glob("test_*.py"))


class TestCacheCLI:
    """`repro campaign` cache flags, the stats line CI parses, and the
    `repro cache` inspection subcommand."""

    ARGS = ["campaign", "--max-bytecodes", "2", "--max-natives", "1",
            "--backend", "x86"]

    def test_stats_line_cold_then_warm(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(self.ARGS + ["--cache-dir", cache]) == 0
        cold = capsys.readouterr().out
        assert ("result cache: 0 hits / 7 misses (0 stale) "
                "-- hit rate 0.0%") in cold
        assert main(self.ARGS + ["--cache-dir", cache]) == 0
        warm = capsys.readouterr().out
        assert ("result cache: 7 hits / 0 misses (0 stale) "
                "-- hit rate 100.0%") in warm

    def test_no_cache_suppresses_the_store(self, capsys):
        assert main(self.ARGS + ["--no-cache"]) == 0
        assert "result cache:" not in capsys.readouterr().out

    def test_default_cache_dir_comes_from_env(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert main(self.ARGS) == 0
        assert "result cache:" in capsys.readouterr().out
        assert (tmp_path / "envcache").exists()

    def test_cache_inspect_gc_clear(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        main(self.ARGS + ["--cache-dir", cache])
        capsys.readouterr()

        assert main(["cache", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert f"cache directory: {cache}" in out
        assert "entries:         7" in out
        assert "current" in out

        assert main(["cache", "--cache-dir", cache, "--gc"]) == 0
        assert "compacted to 7 entries" in capsys.readouterr().out

        assert main(["cache", "--cache-dir", cache, "--clear"]) == 0
        assert "removed 1 store file(s)" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", cache]) == 0
        assert "entries:         0" in capsys.readouterr().out
