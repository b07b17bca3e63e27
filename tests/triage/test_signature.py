"""Defect signatures and candidate bucketing: the dedup layer."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.difftest.harness import exit_pair
from repro.triage.candidates import DivergenceCandidate, bucket_candidates
from repro.triage.signature import DefectSignature

SIGNATURE = DefectSignature(
    kind="native",
    instruction="primitiveFloatTruncated",
    compiler="native",
    category="simulation error",
    cause="missing-getter:R10",
    exit_pair="failure x -",
    difference_kind="simulation_error",
)


def make_candidate(backend="x86", cause="missing-getter:R10",
                   instruction="primitiveFloatTruncated"):
    return DivergenceCandidate(
        kind="native",
        instruction=instruction,
        compiler="native",
        backend=backend,
        category="simulation error",
        cause=cause,
        difference_kind="simulation_error",
        exit_pair="failure x -",
        operand_shape="receiver:float",
        detail="InvalidMemoryAccess",
        path_signature=(("is_float(receiver)", True),),
    )


class TestExitPair:
    def test_both_sides(self):
        assert exit_pair("success", "fault") == "success x fault"

    def test_missing_machine_side(self):
        assert exit_pair("failure", None) == "failure x -"

    def test_missing_both(self):
        assert exit_pair(None, None) == "- x -"


class TestDefectSignature:
    def test_canonical_joins_every_field(self):
        text = SIGNATURE.canonical()
        for value in SIGNATURE.to_dict().values():
            assert value in text

    def test_digest_is_stable_and_short(self):
        assert len(SIGNATURE.digest) == 12
        assert SIGNATURE.digest == SIGNATURE.digest
        other = DefectSignature.from_dict(SIGNATURE.to_dict())
        assert other.digest == SIGNATURE.digest

    def test_different_cause_different_digest(self):
        other = DefectSignature.from_dict(
            dict(SIGNATURE.to_dict(), cause="missing-getter:R11")
        )
        assert other.digest != SIGNATURE.digest

    def test_slug_is_filesystem_safe(self):
        slug = SIGNATURE.slug()
        assert slug == "missing-getter-R10-primitiveFloatTruncated"
        assert "/" not in slug and ":" not in slug

    def test_degenerate_slug_falls_back(self):
        degenerate = DefectSignature.from_dict(
            dict(SIGNATURE.to_dict(), cause="::", instruction="//")
        )
        assert degenerate.slug() == "defect"

    @given(
        st.builds(
            DefectSignature,
            kind=st.text(max_size=12),
            instruction=st.text(max_size=12),
            compiler=st.text(max_size=12),
            category=st.text(max_size=12),
            cause=st.text(max_size=12),
            exit_pair=st.text(max_size=12),
            difference_kind=st.text(max_size=12),
        )
    )
    def test_dict_round_trip_preserves_identity(self, signature):
        rebuilt = DefectSignature.from_dict(signature.to_dict())
        assert rebuilt == signature
        assert rebuilt.digest == signature.digest
        assert len(signature.digest) == 12


class TestBucketing:
    def test_backends_fold_into_one_bucket(self):
        """One front-end defect seen on x86 and ARM32 is ONE cause."""
        candidates = [make_candidate("x86"), make_candidate("arm32")]
        buckets = bucket_candidates(candidates)
        assert len(buckets) == 1
        (_signature, group), = buckets.values()
        assert len(group) == 2
        assert {c.backend for c in group} == {"x86", "arm32"}

    def test_distinct_causes_stay_separate(self):
        candidates = [
            make_candidate(cause="missing-getter:R10"),
            make_candidate(cause="missing-getter:R11"),
        ]
        assert len(bucket_candidates(candidates)) == 2

    def test_bucket_order_is_first_appearance(self):
        candidates = [
            make_candidate(instruction="primitiveMod", cause="b"),
            make_candidate(cause="a"),
            make_candidate(instruction="primitiveMod", cause="b"),
        ]
        buckets = bucket_candidates(candidates)
        ordered = [sig.cause for sig, _group in buckets.values()]
        assert ordered == ["b", "a"]

    def test_exemplar_is_first_seen(self):
        first = make_candidate("arm32")
        buckets = bucket_candidates([first, make_candidate("x86")])
        (_signature, group), = buckets.values()
        assert group[0] is first
