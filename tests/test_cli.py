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

    def test_every_planned_name_resolves(self):
        # A sequence's name drops operand bytes (longJump,
        # pushIntegerByte), so a planned sequence cannot always be
        # re-encoded from its name.
        from dataclasses import replace

        from repro.difftest.runner import (
            CampaignConfig,
            campaign_rows,
            sequence_campaign_rows,
            stitched_campaign_rows,
        )

        config = CampaignConfig()
        specs = {
            spec.name: spec
            for plan in (campaign_rows, sequence_campaign_rows,
                         stitched_campaign_rows)
            for row in plan(config)
            for spec in row.specs
        }
        for name, spec in specs.items():
            if hasattr(spec, "fragments"):
                # A stitched name does not record its fragments.
                spec = replace(spec, fragments=())
            assert resolve_spec(name) == spec, name


class TestOnlyValidation:
    """An `--only` name that selects no planned cell exits before
    anything runs: misspelt, untestable, or outside the planned corpus
    or slice."""

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
                  "--only", "primitiveModd"])

    def test_campaign_rejects_names_that_plan_no_cell(self):
        # Each resolves, but none is a testable instruction.
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--backend", "x86", "--only", "pushTrue",
                  "--only", "pushThisContext", "--only", "callPrimitive",
                  "--only", "primitiveStringCompare"])
        message = str(excinfo.value)
        for name in ("pushThisContext", "callPrimitive",
                     "primitiveStringCompare"):
            assert repr(name) in message
        assert "pushTrue" not in message

    def test_campaign_rejects_a_sequence_without_sequences(self):
        with pytest.raises(SystemExit, match="seq:pushTrue"):
            main(["campaign", "--backend", "x86",
                  "--only", "seq:pushTrue+popStackTop"])

    def test_campaign_rejects_names_cut_off_by_the_slice(self):
        # The first two byte-codes are pushReceiverVariable0/1, the
        # first native primitiveAdd.
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--backend", "x86", "--max-bytecodes", "2",
                  "--max-natives", "1", "--only", "pushReceiverVariable1",
                  "--only", "pushTrue", "--only", "primitiveMod"])
        message = str(excinfo.value)
        assert "'pushTrue'" in message and "'primitiveMod'" in message
        assert "pushReceiverVariable1" not in message

    def test_mutate_rejects_a_name_that_plans_no_cell(self):
        with pytest.raises(SystemExit, match="pushThisContext"):
            main(["mutate", "--mutant", "I1", "--budgets", "4",
                  "--only", "pushThisContext"])

    def test_mutate_rejects_a_stitch_name_outside_the_stitched_plan(self):
        # It parses as a stitched method, but the small corpus does not
        # derive it; the main-corpus name beside it is planned.
        with pytest.raises(SystemExit) as excinfo:
            main(["mutate", "--mutant", "C3", "--budgets", "4",
                  "--stitch-max-methods", "2", "--stitch-paths", "2",
                  "--only", "stitch:pushOne+pushTwo",
                  "--only", "bytecodePrimLessThan"])
        message = str(excinfo.value)
        assert "'stitch:pushOne+pushTwo'" in message
        assert "bytecodePrimLessThan" not in message

    def test_every_planned_name_kind_passes(self):
        from dataclasses import replace

        from repro.cli import check_planned
        from repro.difftest.runner import (
            CampaignConfig,
            campaign_rows,
            sequence_campaign_rows,
            stitched_campaign_rows,
        )

        small = CampaignConfig(stitch_max_methods=2,
                               stitch_paths_per_fragment=2)
        stitched = stitched_campaign_rows(small)[0].specs[0].name
        for plan, names in (
            (campaign_rows, ("primitiveMod", "pushTrue")),
            (sequence_campaign_rows,
             ("seq:pushOne+longJump+nop+pushTwo+bytecodePrimAdd",)),
            (stitched_campaign_rows, (stitched,)),
        ):
            check_planned(names, plan(replace(small, only=names)))

    def test_curated_sequence_with_a_jump_runs(self, capsys):
        assert main(["campaign", "--sequences", "--backend", "x86",
                     "--only",
                     "seq:pushOne+longJump+nop+pushTwo+bytecodePrimAdd"]) == 0
        out = capsys.readouterr().out
        assert "StackToRegisterCogit (sequences)" in out


class TestScopeValidation:
    """A negative slice count would plan from the corpus's end."""

    @pytest.mark.parametrize("flag", ["--max-bytecodes", "--max-natives"])
    @pytest.mark.parametrize("command", [
        ["campaign"], ["mutate", "--mutant", "I1", "--budgets", "4"],
    ], ids=["campaign", "mutate"])
    def test_negative_count_exits(self, command, flag):
        # pushTrue and primitiveMod survive a [:-5] slice, so without
        # the check the command would run.
        with pytest.raises(SystemExit, match=flag):
            main([*command, flag, "-5", "--backend", "x86",
                  "--only", "pushTrue", "--only", "primitiveMod"])

    def test_zero_count_stays_legal(self, capsys):
        assert main(["campaign", "--backend", "x86", "--max-bytecodes", "0",
                     "--max-natives", "1"]) == 0
        assert "Native Methods (primitives)" in capsys.readouterr().out


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

    @pytest.mark.parametrize("name, backend", [
        ("longJump", "x86"), ("longJumpIfTrue", "arm32"),
        ("longJumpIfFalse", "x86"), ("pushIntegerByte", "arm32"),
        ("pushTemporaryVariableLong", "x86"),
        ("storeTemporaryVariableLong", "arm32"),
        ("pushReceiverVariableLong", "x86"),
        ("storeReceiverVariableLong", "arm32"),
        ("popIntoTemporaryVariableLong", "x86"),
    ])
    def test_disasm_compiles_operand_bytes(self, name, backend, capsys):
        """A byte-code with an operand byte compiles with it, as the
        campaign's harness compiles it."""
        assert main(["disasm", name, "--compiler", "simple",
                     "--backend", backend]) == 0
        assert f"{backend} code object" in capsys.readouterr().out

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
