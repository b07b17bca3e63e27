"""Reproducer emission and the Causes report section (pure parts)."""

from __future__ import annotations

import ast

from hypothesis import given
from hypothesis import strategies as st

from repro.difftest.runner import CampaignConfig
from repro.triage import (
    CrashCause,
    TriageCause,
    TriageReport,
    format_causes,
)
from repro.triage.emit import (
    _literal,
    emit_reproducer,
    reproducer_filename,
    reproducer_source,
)
from tests.triage.test_signature import SIGNATURE

CONFIG = CampaignConfig(mutants=("R10", "R11"))


def make_cause(**overrides):
    values = dict(
        signature=SIGNATURE,
        count=12,
        backends=("arm32", "x86"),
        exemplar_backend="x86",
        exemplar_detail="InvalidMemoryAccess",
        confirmation="deterministic",
        confirmed_runs=2,
        total_runs=2,
        original_constraints=16,
        shrink_trials=21,
        shrunken_shape="is_float(receiver)",
        constraints=(("is_float(receiver)", True),),
        model={"int_values": {"stack_size": 1}, "kinds": {}},
    )
    values.update(overrides)
    return TriageCause(**values)


# Values _literal can render: lists come back as tuples, so the
# round-trip comparison normalizes lists first.
literal_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda children: (
        st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=5), children, max_size=3)
    ),
    max_leaves=12,
)


def as_tuples(value):
    if isinstance(value, dict):
        return {key: as_tuples(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(as_tuples(entry) for entry in value)
    return value


class TestLiteralRendering:
    @given(literal_values)
    def test_renders_evaluable_equal_literals(self, value):
        assert ast.literal_eval(_literal(value)) == as_tuples(value)

    @given(st.dictionaries(st.text(max_size=5), st.integers(), max_size=5))
    def test_insertion_order_never_leaks(self, mapping):
        reversed_insertion = dict(reversed(list(mapping.items())))
        assert _literal(mapping) == _literal(reversed_insertion)


class TestReproducerSource:
    def test_rendering_is_deterministic(self):
        cause = make_cause()
        assert reproducer_source(cause, CONFIG) == reproducer_source(
            make_cause(), CONFIG
        )

    def test_embeds_signature_and_inputs(self):
        source = reproducer_source(make_cause(), CONFIG)
        assert SIGNATURE.canonical() in source
        assert SIGNATURE.digest in source
        assert "'backend': 'x86'" in source
        assert "('is_float(receiver)', True)" in source
        assert "MUTANTS = ('R10', 'R11')" in source
        assert "from repro.triage.replay import replay" in source

    def test_filename_is_slug_plus_digest(self):
        name = reproducer_filename(SIGNATURE)
        assert name == (
            f"missing-getter-R10-primitiveFloatTruncated-{SIGNATURE.digest}.py"
        )

    def test_emission_is_idempotent_and_self_healing(self, tmp_path):
        cause = make_cause()
        path = emit_reproducer(cause, tmp_path, CONFIG)
        source = path.read_text(encoding="utf-8")
        assert emit_reproducer(cause, tmp_path, CONFIG) == path
        assert path.read_text(encoding="utf-8") == source
        path.write_text("clobbered", encoding="utf-8")
        emit_reproducer(cause, tmp_path, CONFIG)
        assert path.read_text(encoding="utf-8") == source


class TestCausesSection:
    def report(self):
        crash = CrashCause(
            signature=SIGNATURE,
            count=2,
            stage="compiler",
            error_class="CompilerCrash",
            exemplar_message="x" * 150,
            confirmation="unconfirmed",
            confirmed_runs=0,
            total_runs=0,
        )
        return TriageReport(
            causes=[make_cause(repro_file="repro.py", verified=True)],
            crash_causes=[crash],
            divergence_count=12,
            crash_count=2,
            repro_dir="repros",
        )

    def test_section_lists_buckets_and_crashes(self):
        text = format_causes(self.report())
        assert "Causes (--triage): 1 cause bucket(s) from 12" in text
        assert "[1] missing-getter:R10 — simulation error" in text
        assert "confirmation: deterministic (2/2)" in text
        assert "shrunken: 16 -> 1 constraint(s)" in text
        assert "repro: repro.py (self-check: asserted)" in text
        assert "Quarantined-crash causes: 1 bucket(s) from 2" in text
        assert "backends: arm32,x86" in text
        assert "Reproducers in: repros" in text

    def test_long_crash_messages_are_truncated(self):
        text = format_causes(self.report())
        assert "x" * 97 + "..." in text
        assert "x" * 101 not in text

    def test_unverified_repro_is_flagged_not_trusted(self):
        report = TriageReport(
            causes=[make_cause(repro_file="repro.py", verified=False)],
            divergence_count=1,
        )
        assert "self-check: NOT asserted" in format_causes(report)

    def test_round_trip_preserves_rendering(self):
        """Journal replay renders byte-identically to the live cause."""
        cause = make_cause(repro_file="repro.py", verified=True)
        rebuilt = TriageCause.from_dict(cause.to_dict())
        live = TriageReport(causes=[cause], divergence_count=12)
        replayed = TriageReport(causes=[rebuilt], divergence_count=12)
        assert format_causes(replayed) == format_causes(live)
