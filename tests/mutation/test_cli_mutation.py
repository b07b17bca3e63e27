"""CLI surface of the mutation engine.

`--mutant` validation (a misspelt id exits with the registered
inventory instead of running a silently unmutated campaign), and the
`repro mutate` subcommand: inventory listing, argument validation, and
one end-to-end tiny sweep.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestMutantValidation:
    def test_campaign_rejects_unknown_mutant(self):
        with pytest.raises(SystemExit, match="unknown mutant"):
            main(["campaign", "--mutant", "Z9", "--only", "pushTrue"])


class TestMutateCommand:
    def test_list_inventory(self, capsys):
        assert main(["mutate", "--list"]) == 0
        out = capsys.readouterr().out
        for mutant_id in ("I1", "I2", "I3", "C1", "C2", "C3", "R10", "R11"):
            assert mutant_id in out
        gated = [line.split()[0] for line in out.splitlines()
                 if "[outside CI gate]" in line]
        assert gated == []
        stitched = [line.split()[0] for line in out.splitlines()
                    if "[stitched corpus]" in line]
        assert stitched == ["C3"]

    def test_rejects_unknown_mutant(self):
        with pytest.raises(SystemExit, match="unknown mutant"):
            main(["mutate", "--mutant", "R10,RR11"])

    def test_rejects_bad_budgets(self):
        with pytest.raises(SystemExit, match="--budgets"):
            main(["mutate", "--budgets", "4,x"])

    def test_resume_requires_journal_dir(self):
        with pytest.raises(SystemExit, match="--journal-dir"):
            main(["mutate", "--resume"])

    def test_tiny_sweep_end_to_end(self, tmp_path, capsys):
        json_path = tmp_path / "recall.json"
        code = main([
            "mutate", "--mutant", "R10",
            "--only", "primitiveFloatTruncated",
            "--budgets", "4", "--no-triage",
            "--json", str(json_path),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "Mutation recall (repro mutate)" in captured.out
        assert "Recall over the expected-caught subset: 1/1" in captured.out
        # Progress lines go to stderr so stdout stays deterministic.
        assert "mutate:" in captured.err
        assert "mutate:" not in captured.out
        payload = json.loads(json_path.read_text())
        assert payload["recall"] == {"caught": 1, "expected": 1, "rate": 1.0}
        assert payload["mutants"]["R10"]["status"] == "caught"
