"""Property-based solver tests over randomly generated conjunctions.

Soundness is the non-negotiable invariant: *whenever* the solver returns
a model, evaluating every literal under that model yields True.  The
strategies below generate conjunctions in the same shape the concolic
engine produces (kind predicates + comparisons over value attributes and
frame variables), including unsatisfiable ones.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concolic.solver import KindTag, SolverContext, solve, solve_status
from repro.concolic.solver.solver import (
    _Assignment,
    _candidate_pool,
    _check_literal,
    _collect_constants,
    _free_numeric_vars,
    _interval,
    _normalize,
    _refuted,
    _SearchEnv,
    _store_value,
    _UnionFind,
)
from repro.concolic.terms import (
    EvaluationError,
    Sort,
    compare,
    compiled,
    const,
    int_binary,
    kind_predicate,
    neg,
    not_,
    oop_attribute,
    var,
)
from repro.memory.bootstrap import bootstrap_memory

_memory, _known = bootstrap_memory(heap_words=512)
CONTEXT = SolverContext.from_memory(_memory)

VAR_NAMES = ("recv", "stack0", "stack1", "temp0")
PREDICATES = ("is_small_int", "is_float", "is_nil", "is_true", "is_false")
ATTRIBUTES = ("int_value_of", "class_index_of", "slot_count_of", "format_of")
COMPARISONS = ("lt", "le", "gt", "ge", "eq", "ne")
#: Plain integer variables, one per bound the solver gives by name.
INT_VARS = ("stack_size", "temp_count", "v0.raw")
#: Every operator the solver's interval refutation has a rule for.
BINARY_OPS = ("add", "sub", "mul", "floordiv", "mod", "shr", "bitand")


def oop(name):
    return var(name, Sort.OOP)


@st.composite
def kind_literal(draw):
    term = kind_predicate(draw(st.sampled_from(PREDICATES)),
                          oop(draw(st.sampled_from(VAR_NAMES))))
    return term if draw(st.booleans()) else not_(term)


@st.composite
def int_term(draw, depth=0):
    choice = draw(st.integers(0, 3 if depth == 0 else 1))
    if choice == 0:
        return oop_attribute(
            draw(st.sampled_from(ATTRIBUTES)),
            oop(draw(st.sampled_from(VAR_NAMES))),
        )
    if choice == 1:
        return var(draw(st.sampled_from(INT_VARS)), Sort.INT)
    if choice == 2:
        left = draw(int_term(depth=depth + 1))
        right = draw(st.integers(-100, 100))
        return int_binary(draw(st.sampled_from(BINARY_OPS)), left, right)
    left = draw(int_term(depth=depth + 1))
    right = draw(int_term(depth=depth + 1))
    return int_binary(draw(st.sampled_from(BINARY_OPS)), left, right)


@st.composite
def comparison_literal(draw):
    left = draw(int_term())
    if draw(st.booleans()):
        right = draw(st.integers(-1000, 1000))
        term = compare(draw(st.sampled_from(COMPARISONS)), left, right)
    else:
        term = compare(draw(st.sampled_from(COMPARISONS)), left,
                       draw(int_term()))
    return term if draw(st.booleans()) else not_(term)


conjunctions = st.lists(
    st.one_of(kind_literal(), comparison_literal()), min_size=0, max_size=3
)


class TestSolverSoundness:
    @given(literals=conjunctions)
    @settings(max_examples=20, deadline=None)
    def test_models_always_satisfy(self, literals):
        model = solve(literals, CONTEXT)
        if model is not None:
            assert model.satisfies(literals)

    @given(literals=conjunctions)
    @settings(max_examples=10, deadline=None)
    def test_strategies_agree_on_verdict(self, literals):
        """The ablation baseline must return the same decisive verdicts.

        Agreement is only required when both strategies completed their
        search: a truncated ("unknown") search or a model found by the
        random-repair fallback (which the product baseline deliberately
        lacks) carries no completeness claim to compare.
        """
        fast, fast_stats = solve_status(literals, CONTEXT,
                                        strategy="backtracking")
        slow, slow_stats = solve_status(literals, CONTEXT,
                                        strategy="product")
        if "unknown" in (fast_stats.status, slow_stats.status):
            return
        if fast_stats.repair_used or slow_stats.repair_used:
            return
        assert (fast is None) == (slow is None)

    @given(literals=conjunctions)
    @settings(max_examples=10, deadline=None)
    def test_solving_is_deterministic(self, literals):
        first = solve(literals, CONTEXT)
        second = solve(literals, CONTEXT)
        if first is None:
            assert second is None
        else:
            assert second is not None
            assert first.to_dict() == second.to_dict()

    @given(literals=conjunctions)
    @settings(max_examples=10, deadline=None)
    def test_adding_negation_makes_unsat(self, literals):
        """A conjunction plus the negation of a satisfied literal about a
        kind predicate cannot keep that literal satisfied."""
        model = solve(literals, CONTEXT)
        if model is None or not literals:
            return
        contradiction = literals + [not_(literals[0])]
        contradicted = solve(contradiction, CONTEXT)
        if contradicted is not None:
            # The solver may satisfy p AND not(p) only if it is wrong.
            assert contradicted.satisfies(contradiction) is False or True
            # Stronger: evaluating must not claim both polarities hold.
            assert not contradicted.satisfies([literals[0], not_(literals[0])])


#: Kinds with a synthetic free variable (IV::, SC::) are drawn twice as often.
SEARCH_KINDS = (KindTag.SMALL_INT, KindTag.OBJECT) * 2 + (
    KindTag.FLOAT, KindTag.NIL, KindTag.TRUE, KindTag.FALSE)


@st.composite
def bounded_term(draw, depth=0):
    """An integer term over every shape the interval rules cover."""
    choice = draw(st.integers(0, 5 if depth < 3 else 3))
    if choice <= 1:
        return oop_attribute(
            draw(st.sampled_from(ATTRIBUTES)),
            oop(draw(st.sampled_from(VAR_NAMES[:2]))),
        )
    if choice == 2:
        return var(draw(st.sampled_from(INT_VARS + ("arg",))), Sort.INT)
    if choice == 3:
        return const(draw(st.integers(-300, 300)))
    if choice == 4:
        return neg(draw(bounded_term(depth=depth + 1)))
    left = draw(bounded_term(depth=depth + 1))
    right = draw(bounded_term(depth=depth + 1))
    return int_binary(draw(st.sampled_from(BINARY_OPS)), left, right)


@st.composite
def search_state(draw):
    """A kind/class assignment plus one candidate value per free variable,
    set up exactly as ``_search_witnesses`` sets up its search."""
    term = draw(bounded_term())
    literal = compare(draw(st.sampled_from(COMPARISONS)), term,
                      draw(st.integers(-300, 300)))
    problem, _ = _normalize([literal], CONTEXT)
    uf = _UnionFind()
    if draw(st.booleans()):
        uf.union(*VAR_NAMES[:2])
    kinds, classes = {}, {}
    for name in sorted({uf.find(name) for name in VAR_NAMES[:2]}):
        kinds[name] = draw(st.sampled_from(SEARCH_KINDS))
        if kinds[name] == KindTag.OBJECT:
            classes[name] = draw(st.sampled_from(CONTEXT.default_object_classes))
    assignment = _Assignment(kinds=kinds, classes=classes, int_values={},
                             float_values={})
    free = _free_numeric_vars(problem, assignment)
    constants: set = set()
    _collect_constants(literal, constants)
    for name in sorted(free):
        pool = _candidate_pool(problem, name, free[name], constants)
        # The pool's extremes test the bounds hardest; draw them often.
        value = draw(st.sampled_from(pool) | st.sampled_from(
            [min(pool), max(pool)]))
        _store_value(assignment, name, value, free)
    return term, literal, free, _SearchEnv(problem, assignment, uf)


class TestIntervalBounds:
    @given(state=search_state())
    @settings(max_examples=500, deadline=None)
    def test_intervals_contain_every_evaluated_value(self, state):
        """The refutation's intervals cover what the search evaluates:
        if ``_SearchEnv`` and ``_interval`` drift apart, this fails."""
        term, literal, free, env = state
        bounds = _interval(term, free, env)
        try:
            value = compiled(term)(env)
        except (EvaluationError, ZeroDivisionError, OverflowError):
            return
        if bounds is not None:
            assert bounds[0] <= value <= bounds[1]
        if _refuted(literal, free, env):
            assert not _check_literal(literal, env)

    def test_leaf_intervals_contain_every_pool_value(self):
        """Exhaustive over the leaves: every attribute and variable, under
        every kind and default class, at every value of its pool."""
        leaves = [oop_attribute(name, oop("recv")) for name in ATTRIBUTES]
        leaves += [var(name, Sort.INT) for name in INT_VARS + ("arg",)]
        choices = [(kind, None) for kind in KindTag if kind != KindTag.OBJECT]
        choices += [(KindTag.OBJECT, index)
                    for index in CONTEXT.default_object_classes]
        for leaf in leaves:
            problem, _ = _normalize([compare("eq", leaf, 0)], CONTEXT)
            for kind, class_index in choices:
                assignment = _Assignment(
                    kinds={"recv": kind},
                    classes={} if class_index is None else {"recv": class_index},
                    int_values={}, float_values={},
                )
                free = _free_numeric_vars(problem, assignment)
                env = _SearchEnv(problem, assignment, _UnionFind())
                low, high = _interval(leaf, free, env)
                for name in free:
                    for value in _candidate_pool(problem, name, free[name], {0}):
                        _store_value(assignment, name, value, free)
                        assert low <= compiled(leaf)(env) <= high, (leaf, kind)
