"""Incremental solver: determinism under caching, slicing, warm-starts.

The layer's non-negotiable invariant is that caching changes only
*time*, never *answers*: ``solve_status()`` must return the same verdict
and the identical model with the memo enabled, disabled, or pre-warmed.
That holds by construction — components are always solved in canonical
form and translated back — and is checked here over seeded random
conjunctions in the same shape the concolic engine produces.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concolic.solver import (
    MemoCache,
    SolverContext,
    solve,
    solve_status,
    solve_status_raw,
    solve_with_hint,
)
from repro.concolic.solver.canonical import canonicalize
from repro.concolic.solver.memo import MemoEntry
from repro.concolic.terms import (
    Sort,
    compare,
    int_binary,
    kind_predicate,
    not_,
    oop_attribute,
    var,
)
from repro.memory.bootstrap import bootstrap_memory

_memory, _known = bootstrap_memory(heap_words=512)
CONTEXT = SolverContext.from_memory(_memory)

VAR_NAMES = ("recv", "stack0", "stack1", "temp0")
PREDICATES = ("is_small_int", "is_float", "is_nil", "is_true", "is_false")
ATTRIBUTES = ("int_value_of", "class_index_of", "slot_count_of")
COMPARISONS = ("lt", "le", "gt", "ge", "eq", "ne")


def oop(name):
    return var(name, Sort.OOP)


def small(name):
    return kind_predicate("is_small_int", oop(name))


def ivalue(name):
    return oop_attribute("int_value_of", oop(name))


@st.composite
def kind_literal(draw):
    term = kind_predicate(
        draw(st.sampled_from(PREDICATES)), oop(draw(st.sampled_from(VAR_NAMES)))
    )
    return term if draw(st.booleans()) else not_(term)


@st.composite
def comparison_literal(draw):
    left = oop_attribute(
        draw(st.sampled_from(ATTRIBUTES)), oop(draw(st.sampled_from(VAR_NAMES)))
    )
    if draw(st.booleans()):
        left = int_binary(
            draw(st.sampled_from(("add", "sub"))), left, draw(st.integers(-50, 50))
        )
    term = compare(
        draw(st.sampled_from(COMPARISONS)), left, draw(st.integers(-1000, 1000))
    )
    return term if draw(st.booleans()) else not_(term)


conjunctions = st.lists(
    st.one_of(kind_literal(), comparison_literal()), min_size=0, max_size=4
)


def _outcome(model, stats):
    return (stats.status, None if model is None else model.to_dict())


class TestDeterminismUnderCaching:
    """Same verdict, same model — memo off, cold, and pre-warmed."""

    @given(literals=conjunctions)
    @settings(max_examples=25, deadline=None)
    def test_cache_off_cold_and_warm_agree(self, literals):
        memo = MemoCache()
        uncached = _outcome(*solve_status(literals, CONTEXT, cache=None))
        cold = _outcome(*solve_status(literals, CONTEXT, cache=memo))
        warm = _outcome(*solve_status(literals, CONTEXT, cache=memo))
        assert uncached == cold == warm
        # The warm pass really did come from the memo.  (Not necessarily
        # one hit per component: a cached-UNSAT component short-circuits
        # before the remaining components are looked up.)
        if literals:
            assert memo.hits >= 1

    @given(literals=conjunctions)
    @settings(max_examples=15, deadline=None)
    def test_models_are_sound(self, literals):
        model = solve(literals, CONTEXT, cache=MemoCache())
        if model is not None:
            assert model.satisfies(literals)

    @given(literals=conjunctions)
    @settings(max_examples=15, deadline=None)
    def test_verdict_agrees_with_raw_engine(self, literals):
        """Slicing + memoization never flips a decisive raw verdict."""
        fast, fast_stats = solve_status(literals, CONTEXT, cache=MemoCache())
        raw, raw_stats = solve_status_raw(literals, CONTEXT)
        if "unknown" in (fast_stats.status, raw_stats.status):
            return
        if fast_stats.repair_used or raw_stats.repair_used:
            return
        assert (fast is None) == (raw is None)


class TestIndependenceSlicing:
    def test_independent_literals_split(self):
        canon = canonicalize([small("a"), small("b")])
        assert len(canon.components) == 2

    def test_shared_variable_joins(self):
        canon = canonicalize(
            [small("a"), small("b"), compare("lt", ivalue("a"), ivalue("b"))]
        )
        assert len(canon.components) == 1

    def test_alpha_renaming_gives_equal_keys(self):
        """Same structure under different variable names memoizes once."""
        first = canonicalize([small("recv"), compare("lt", ivalue("recv"), 5)])
        second = canonicalize([small("temp9"), compare("lt", ivalue("temp9"), 5)])
        assert first.components[0].key == second.components[0].key

    def test_preserved_names_not_renamed(self):
        literal = compare("lt", var("stack_size", Sort.INT), 10)
        canon = canonicalize([literal])
        assert canon.components[0].key == (str(literal),)

    def test_memoization_across_renamed_prefixes(self):
        memo = MemoCache()
        first = solve([small("recv"), compare("gt", ivalue("recv"), 3)],
                      CONTEXT, cache=memo)
        second = solve([small("stack1"), compare("gt", ivalue("stack1"), 3)],
                       CONTEXT, cache=memo)
        assert first is not None and second is not None
        assert memo.hits >= 1
        # Identical assignments modulo the variable name.
        assert first.kind_of("recv").tag == second.kind_of("stack1").tag


class TestMemoCache:
    def test_lru_eviction(self):
        memo = MemoCache(maxsize=2)
        entry = MemoEntry(status="sat", model=None, nodes=0,
                          truncated=False, repair_used=False)
        memo.put("a", entry)
        memo.put("b", entry)
        memo.put("c", entry)
        assert len(memo) == 2
        assert memo.evictions == 1
        assert memo.get("a") is None  # oldest evicted
        assert memo.get("c") is entry

    def test_stats_accounting(self):
        memo = MemoCache()
        entry = MemoEntry(status="unsat", model=None, nodes=3,
                          truncated=False, repair_used=False)
        assert memo.get("k") is None
        memo.put("k", entry)
        assert memo.get("k") is entry
        stats = memo.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_entries_since_a_mark_move_to_another_memo(self):
        """What a pool worker hands back: the entries it added after
        its fork, which the parent puts in its own memo."""
        memo = MemoCache()
        entry = MemoEntry(status="sat", model={}, nodes=1,
                          truncated=False, repair_used=False)
        memo.put("inherited", entry)
        mark = memo.keys()
        memo.put("b", entry)
        memo.put("a", entry)
        memo.get("inherited")
        learned = memo.entries_since(mark)
        assert learned == [("b", entry), ("a", entry)]
        parent = MemoCache()
        parent.update(learned)
        assert parent.get("a") is entry and parent.get("b") is entry
        assert len(parent) == 2

    def test_cached_unsat_short_circuits(self):
        """A remembered UNSAT component kills the prefix on sight."""
        memo = MemoCache()
        contradiction = [small("a"), not_(small("a"))]
        first, first_stats = solve_status(contradiction + [small("b")],
                                          CONTEXT, cache=memo)
        assert first is None and first_stats.status == "unsat"
        before = memo.hits
        second, second_stats = solve_status(contradiction + [small("c")],
                                            CONTEXT, cache=memo)
        assert second is None and second_stats.status == "unsat"
        assert memo.hits > before


class TestWarmStart:
    def test_hint_none_matches_cold_solve(self):
        literals = [small("a"), compare("lt", ivalue("a"), 7)]
        cold, cold_stats = solve_status(literals, CONTEXT, cache=None)
        warm, warm_stats = solve_with_hint(literals, CONTEXT, None, cache=None)
        assert warm_stats.status == cold_stats.status
        assert warm.to_dict() == cold.to_dict()

    def test_warm_start_is_sound(self):
        """The negate-last child model must satisfy the whole prefix."""
        parent_literals = [small("a"), small("b"),
                           compare("lt", ivalue("a"), 10)]
        parent = solve(parent_literals, CONTEXT, cache=None)
        assert parent is not None
        child = parent_literals[:-1] + [not_(parent_literals[-1])]
        model, stats = solve_with_hint(child, CONTEXT, parent, cache=None)
        assert stats.status == "sat"
        assert model.satisfies(child)

    def test_warm_start_detects_unsat(self):
        parent_literals = [small("a"), small("b")]
        parent = solve(parent_literals, CONTEXT, cache=None)
        assert parent is not None
        child = parent_literals + [not_(small("b"))]
        model, stats = solve_with_hint(child, CONTEXT, parent, cache=None)
        assert model is None
        assert stats.status == "unsat"

    @given(literals=conjunctions)
    @settings(max_examples=15, deadline=None)
    def test_warm_start_verdict_matches_cold(self, literals):
        if not literals:
            return
        parent = solve(literals[:-1], CONTEXT, cache=None)
        if parent is None:
            return
        cold, cold_stats = solve_status(literals, CONTEXT, cache=None)
        warm, warm_stats = solve_with_hint(literals, CONTEXT, parent,
                                           cache=None)
        if "unknown" in (cold_stats.status, warm_stats.status):
            return
        assert (warm is None) == (cold is None)
        if warm is not None:
            assert warm.satisfies(literals)
