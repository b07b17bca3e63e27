"""The conjunction solver.

``solve(literals, context)`` returns a satisfying :class:`Model` or
``None`` (UNSAT / unknown).  The decision procedure:

1. split literals into kind predicates, identity literals, and numeric
   comparisons (negations are rewritten into complementary comparisons);
2. merge identity aliases (union-find) and intersect kind domains;
3. enumerate kind assignments per abstract value (domains are tiny) and,
   for OBJECT kinds, candidate classes from the class table;
4. refute by bounds: under each assignment, bound both sides of every
   numeric literal by interval arithmetic and skip the assignment when
   some comparison is false for every pair of values (:func:`_interval`);
5. find witnesses for the residual numeric constraints by candidate-pool
   search seeded from the constants occurring in the constraints;
6. verify the assembled model by evaluating every literal.

Soundness comes from step 6: no unverified model is ever returned.
Step 4 only refutes and never supplies a value: every candidate lies
inside its variable's bounds, so a refuted literal is false under every
assignment the search could try.  Completeness is deliberately bounded
(search caps), mirroring the paper's curation of paths its prototype
cannot handle.

Budget exhaustion is a first-class verdict: :func:`solve_status`
returns the model together with :class:`SolveStats`, whose ``status``
distinguishes a decisive ``"unsat"`` from an ``"unknown"`` caused by a
truncated search — the campaign engine and the strategy-agreement
property tests rely on that distinction.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field

from repro.concolic.solver.model import ALL_KINDS, Kind, KindTag, Model, SolverContext
from repro.concolic.terms import (
    COMPARISON_OPS,
    KIND_PREDICATES,
    OOP_ATTRIBUTES,
    Sort,
    Term,
)
from repro.memory.layout import MAX_SMALL_INT, MIN_SMALL_INT

#: Returned (as None) when no model is found.
UNSAT = None


@dataclass
class SolveStats:
    """How one solve() call ended — the budget-accounting sidecar.

    ``status`` is ``"sat"`` (model returned), ``"unsat"`` (search space
    exhausted without truncation), or ``"unknown"`` (a node/assignment
    budget truncated the search, or the conjunction uses an unsupported
    shape — no verdict can be trusted as complete).
    """

    status: str = "unsat"
    nodes: int = 0
    #: True when any witness search or the assignment enumeration was
    #: cut short by a budget.
    truncated: bool = False
    #: True when the model was found by the random-repair fallback
    #: rather than the systematic search.
    repair_used: bool = False

_NEGATED_COMPARISON = {
    "lt": "ge",
    "le": "gt",
    "gt": "le",
    "ge": "lt",
    "eq": "ne",
    "ne": "eq",
}

_KIND_FOR_PREDICATE = {
    "is_small_int": KindTag.SMALL_INT,
    "is_float": KindTag.FLOAT,
    "is_nil": KindTag.NIL,
    "is_true": KindTag.TRUE,
    "is_false": KindTag.FALSE,
}

#: Preference order when several kinds satisfy a domain: integers first
#: (the paper's first concolic iteration pushes integers), then objects.
_KIND_PREFERENCE = [
    KindTag.SMALL_INT,
    KindTag.OBJECT,
    KindTag.FLOAT,
    KindTag.NIL,
    KindTag.TRUE,
    KindTag.FALSE,
]

_MAX_KIND_ASSIGNMENTS = 6000
_MAX_WITNESS_COMBOS = 20000
_MAX_REPAIR_ITERATIONS = 800
#: Total witness-search nodes across one solve() call: pathological
#: conjunctions (many unconstrained object variables) bail out as
#: unknown/UNSAT instead of exploring every kind x class assignment at
#: full witness budget.
_MAX_TOTAL_NODES = 150_000


@dataclass
class _Problem:
    """Normalized view of one path condition."""

    context: SolverContext
    kind_literals: list = field(default_factory=list)  # (var, tag, positive)
    identity_literals: list = field(default_factory=list)  # (a, b, positive)
    numeric_literals: list = field(default_factory=list)  # Term (comparison)
    oop_vars: set = field(default_factory=set)
    int_vars: set = field(default_factory=set)
    class_constrained: set = field(default_factory=set)


def _scan_vars(term: Term, problem: _Problem) -> None:
    if term.op in KIND_PREDICATES or term.op in OOP_ATTRIBUTES:
        name = term.args[0].args[0]
        problem.oop_vars.add(name)
        if term.op in ("class_index_of", "format_of", "slot_count_of"):
            problem.class_constrained.add(name)
        return
    if term.op == "identical":
        for arg in term.args:
            problem.oop_vars.add(arg.args[0])
        return
    if term.is_var:
        if term.sort == Sort.OOP:
            problem.oop_vars.add(term.args[0])
        else:
            problem.int_vars.add(term.args[0])
        return
    for arg in term.args:
        if isinstance(arg, Term):
            _scan_vars(arg, problem)


def _normalize(literals: list[Term], context: SolverContext):
    """(problem, None) on success, (None, verdict) when undecidable here.

    The verdict distinguishes a trivially-false literal (``"unsat"``,
    decisive) from an unsupported literal shape (``"unknown"``).
    """
    problem = _Problem(context)
    for literal in literals:
        positive = True
        term = literal
        while term.op == "not":
            positive = not positive
            term = term.args[0]
        if term.op in KIND_PREDICATES:
            name = term.args[0].args[0]
            problem.kind_literals.append((name, _KIND_FOR_PREDICATE[term.op], positive))
            problem.oop_vars.add(name)
        elif term.op == "identical":
            left = term.args[0].args[0]
            right = term.args[1].args[0]
            problem.identity_literals.append((left, right, positive))
            problem.oop_vars.update((left, right))
        elif term.op in COMPARISON_OPS:
            if not positive:
                term = Term(_NEGATED_COMPARISON[term.op], term.args, Sort.BOOL)
            problem.numeric_literals.append(term)
            _scan_vars(term, problem)
        elif term.is_const:
            if bool(term.args[0]) != positive:
                return None, "unsat"  # trivially false literal
        else:
            # Bare boolean var or unsupported shape — no verdict.
            return None, "unknown"
    return problem, None


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, item):
        parent = self.parent.setdefault(item, item)
        if parent != item:
            root = self.find(parent)
            self.parent[item] = root
            return root
        return item

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _collect_constants(term: Term, pool: set) -> None:
    if term.is_const and isinstance(term.args[0], (int, float)):
        pool.add(term.args[0])
    for arg in term.args:
        if isinstance(arg, Term):
            _collect_constants(arg, pool)


@dataclass
class _Assignment:
    """Working state while searching for witnesses."""

    kinds: dict  # var -> KindTag
    classes: dict  # var -> class index (OBJECT kinds)
    int_values: dict  # synthetic & plain int var -> value
    float_values: dict  # var -> float


class _SearchEnv:
    """Evaluation environment over a working assignment."""

    def __init__(self, problem: _Problem, assignment: _Assignment, uf: _UnionFind):
        self.problem = problem
        self.a = assignment
        self.uf = uf

    def _rep(self, name):
        return self.uf.find(name)

    def __call__(self, op, payload):
        context = self.problem.context
        a = self.a
        if op == "var":
            return a.int_values.get(payload, 0)
        if op in _KIND_FOR_PREDICATE:
            return a.kinds.get(self._rep(payload)) == _KIND_FOR_PREDICATE[op]
        name = self._rep(payload) if isinstance(payload, str) else payload
        if op == "int_value_of":
            if a.kinds.get(name) == KindTag.SMALL_INT:
                return a.int_values.get(f"IV::{name}", 0)
            return 0
        if op == "float_value_of":
            return a.float_values.get(name, 1.0)
        if op == "class_index_of":
            return self._class_index(name)
        if op == "format_of":
            kind = a.kinds.get(name)
            if kind == KindTag.OBJECT:
                return context.class_formats[a.classes[name]]
            if kind == KindTag.FLOAT:
                return 5  # ObjectFormat.BOXED_FLOAT
            return 1
        if op == "slot_count_of":
            kind = a.kinds.get(name)
            if kind == KindTag.OBJECT:
                return a.int_values.get(f"SC::{name}", 0)
            if kind == KindTag.FLOAT:
                return 2
            return 0
        if op == "identical":
            left, right = (self._rep(payload[0]), self._rep(payload[1]))
            if left == right:
                return True
            lk, rk = self.a.kinds.get(left), self.a.kinds.get(right)
            if lk != rk:
                return False
            if lk == KindTag.SMALL_INT:
                return self.a.int_values.get(f"IV::{left}", 0) == self.a.int_values.get(
                    f"IV::{right}", 0
                )
            return lk in (KindTag.NIL, KindTag.TRUE, KindTag.FALSE)
        raise KeyError(op)

    def _class_index(self, name):
        kind = self.a.kinds.get(name)
        context = self.problem.context
        if kind == KindTag.OBJECT:
            return self.a.classes[name]
        return context.class_index_for_kind(Kind(kind or KindTag.SMALL_INT))


def _free_numeric_vars(problem: _Problem, assignment: _Assignment):
    """Free variable names with their bounds and sorts for the search."""
    context = problem.context
    free: dict = {}
    for name in problem.int_vars:
        if name == "stack_size":
            free[name] = ("int", 0, context.max_stack)
        elif name == "temp_count":
            free[name] = ("int", 0, context.max_temps)
        elif ".raw" in name:
            free[name] = ("int", 0, (1 << 32) - 1)
        else:
            free[name] = ("int", context.int_min, context.int_max)
    for name, tag in assignment.kinds.items():
        if tag == KindTag.SMALL_INT:
            free[f"IV::{name}"] = ("int", MIN_SMALL_INT, MAX_SMALL_INT)
        elif tag == KindTag.FLOAT:
            free[f"FV::{name}"] = ("float", None, None)
        elif tag == KindTag.OBJECT:
            class_index = assignment.classes[name]
            fixed = context.fixed_slot_counts.get(class_index, 0)
            if context.class_is_variable.get(class_index, False):
                free[f"SC::{name}"] = ("int", fixed, context.max_slots)
            else:
                # Fixed-size class: slot count is determined.
                assignment.int_values[f"SC::{name}"] = fixed
    return free


def _store_value(assignment: _Assignment, name: str, value, free) -> None:
    sort = free[name][0]
    if sort == "float":
        target = name[4:] if name.startswith("FV::") else name
        assignment.float_values[target] = float(value)
    else:
        assignment.int_values[name] = int(value)


def _candidate_pool(problem: _Problem, name: str, bounds, constants):
    sort, low, high = bounds
    if sort == "float":
        pool = [0.0, 1.0, -1.0, 0.5, 2.0, -2.5, 100.0]
        for value in constants:
            value = float(value)
            pool += [value, value + 1.0, value - 1.0, value / 2.0]
        return _dedupe(pool)
    pool = [0, 1, 2, -1, -2, 3, 10]
    pool += [MIN_SMALL_INT, MAX_SMALL_INT, MIN_SMALL_INT + 1, MAX_SMALL_INT - 1]
    for value in constants:
        if isinstance(value, int):
            pool += [value, value + 1, value - 1, value * 2]
    clipped = []
    for value in pool:
        if low is not None and value < low:
            continue
        if high is not None and value > high:
            continue
        clipped.append(value)
    if low is not None and low not in clipped:
        clipped.append(low)
    if high is not None and high not in clipped:
        clipped.append(high)
    return _dedupe(clipped)


def _dedupe(pool):
    seen, unique = set(), []
    for value in pool:
        if value not in seen:
            seen.add(value)
            unique.append(value)
    # Prefer simple witnesses: smallest magnitude first.
    unique.sort(key=lambda v: (abs(v), v < 0))
    return unique


def _check_literal(literal: Term, env) -> bool:
    from repro.concolic.terms import EvaluationError, compiled

    try:
        return bool(compiled(literal)(env))
    except EvaluationError:
        return False
    except (ZeroDivisionError, OverflowError):
        return False


def _literal_dependencies(term: Term, free: dict, uf: _UnionFind) -> set:
    """Names from *free* that *term*'s evaluation reads."""
    deps: set = set()

    def walk(node: Term) -> None:
        if node.is_var:
            if node.args[0] in free:
                deps.add(node.args[0])
            return
        if node.op in OOP_ATTRIBUTES:
            name = uf.find(node.args[0].args[0])
            for synthetic in (f"IV::{name}", f"FV::{name}", f"SC::{name}"):
                if synthetic in free:
                    deps.add(synthetic)
            return
        if node.op == "identical":
            for arg in node.args:
                name = uf.find(arg.args[0])
                if f"IV::{name}" in free:
                    deps.add(f"IV::{name}")
            return
        for arg in node.args:
            if isinstance(arg, Term):
                walk(arg)

    walk(term)
    return deps


#: Attributes backed by a synthetic free variable when the kind has one.
_SYNTHETIC_PREFIX = {"int_value_of": "IV::", "slot_count_of": "SC::"}

#: Operators whose range over a box is spanned by its four corners.
_CORNER_OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "floordiv": operator.floordiv,
}


def _interval(term: Term, free: dict, env: _SearchEnv) -> tuple | None:
    """``(low, high)`` holding every value *term* takes in the search, or None.

    The rules mirror :class:`_SearchEnv`: a free variable ranges over
    its ``free`` bounds (every candidate pool is clipped to them), and
    everything the current assignment fixes is its own value.  None
    means unbounded — float terms and operators without a rule.
    """
    op = term.op
    if op == "const":
        value = term.args[0]
        return (value, value) if isinstance(value, int) else None
    if op == "var":
        bounds = free.get(term.args[0])
        if bounds is None:
            value = env("var", term.args[0])
            return (value, value)
        return (bounds[1], bounds[2]) if bounds[0] == "int" else None
    if op in OOP_ATTRIBUTES:
        oop = term.args[0]
        if op == "float_value_of" or not oop.is_var:
            return None
        prefix = _SYNTHETIC_PREFIX.get(op)
        if prefix is not None:
            bounds = free.get(prefix + env.uf.find(oop.args[0]))
            if bounds is not None:
                return (bounds[1], bounds[2])
        value = env(op, oop.args[0])
        return (value, value)
    if op == "neg":
        inner = _interval(term.args[0], free, env)
        return None if inner is None else (-inner[1], -inner[0])
    if op not in _CORNER_OPS and op not in ("mod", "shr", "bitand"):
        return None
    left = _interval(term.args[0], free, env)
    right = _interval(term.args[1], free, env)
    if op == "bitand":
        # x & y lies in [0, y] whenever y >= 0.
        highs = [side[1] for side in (left, right)
                 if side is not None and side[0] >= 0]
        return (0, min(highs)) if highs else None
    if op == "mod":
        if right is None or right[0] <= 0 <= right[1]:
            return None
        return (0, right[1] - 1) if right[0] > 0 else (right[0] + 1, 0)
    if left is None or right is None:
        return None
    if op == "shr":
        if left[0] < 0 or right[0] < 0 or right[1] > 64:
            return None
        return (left[0] >> right[1], left[1] >> right[0])
    if op == "floordiv" and right[0] <= 0 <= right[1]:
        return None
    fn = _CORNER_OPS[op]
    corners = [fn(a, b) for a in left for b in right]
    return (min(corners), max(corners))


def _refuted(literal: Term, free: dict, env: _SearchEnv) -> bool:
    """True when comparison *literal* is false for every pair of values."""
    left = _interval(literal.args[0], free, env)
    if left is None:
        return False
    right = _interval(literal.args[1], free, env)
    if right is None:
        return False
    (left_low, left_high), (right_low, right_high) = left, right
    op = literal.op
    if op == "lt":
        return left_low >= right_high
    if op == "le":
        return left_low > right_high
    if op == "gt":
        return left_high <= right_low
    if op == "ge":
        return left_high < right_low
    if op == "eq":
        return left_high < right_low or right_high < left_low
    return left_low == left_high == right_low == right_high  # ne


def _search_witnesses(problem, assignment, uf, rng, strategy="backtracking",
                      budget=None, stats=None, extra_constants=()):
    """Witness search over the numeric residual.

    ``strategy="backtracking"`` (the default) assigns variables one at
    a time from candidate pools and checks every literal as soon as all
    its dependencies are assigned, pruning dead branches immediately.
    ``strategy="product"`` is the naive cartesian-product baseline kept
    for the ablation benchmark: it only checks complete assignments.

    Backtracking first refutes by bounds (:func:`_refuted`): a literal
    false for every value its intervals allow ends the search before
    any node is charged.  The product baseline stays unpruned, so the
    strategy-agreement tests check refutation against an exhaustive
    reference.

    ``extra_constants`` seeds the candidate pools beyond the constants
    occurring in this conjunction — the incremental layer passes the
    whole path condition's constants when solving an independent slice,
    so a component solved in isolation sees the same pool it would have
    seen inside the joint conjunction.
    """
    free = _free_numeric_vars(problem, assignment)
    env = _SearchEnv(problem, assignment, uf)
    dependencies = [
        (literal, _literal_dependencies(literal, free, uf))
        for literal in problem.numeric_literals
    ]
    # Ground literals (no free deps) must hold under the fixed parts;
    # the others must not be refuted by their bounds.
    refute = strategy == "backtracking"
    for literal, deps in dependencies:
        if deps:
            if refute and _refuted(literal, free, env):
                return False
        elif not _check_literal(literal, env):
            return False
    if not free:
        return True
    constants: set = set(extra_constants)
    for literal in problem.numeric_literals:
        _collect_constants(literal, constants)
    # Assign most-constrained variables first; names break ties, so the
    # order does not follow the hash seed through ``problem.int_vars``.
    names = sorted(
        free,
        key=lambda n: (-sum(1 for _, deps in dependencies if n in deps), n),
    )
    pools = {
        name: _candidate_pool(problem, name, free[name], constants) for name in names
    }
    limit = _MAX_WITNESS_COMBOS
    if budget is not None:
        limit = min(limit, max(0, budget[0]))
    if strategy == "product":
        # Ablation baseline: full cartesian product, checked only when
        # every variable has a value.
        nodes = 0
        for combination in itertools.product(*(pools[name] for name in names)):
            nodes += 1
            if nodes > limit:
                if budget is not None:
                    budget[0] -= nodes
                if stats is not None:
                    stats.truncated = True
                return False
            for name, value in zip(names, combination):
                _store_value(assignment, name, value, free)
            if all(_check_literal(lit, env) for lit, deps in dependencies if deps):
                if budget is not None:
                    budget[0] -= nodes
                return True
        if budget is not None:
            budget[0] -= nodes
        return False

    position = {name: index for index, name in enumerate(names)}
    # literal -> index of the last variable it depends on.
    check_at: dict[int, list] = {index: [] for index in range(len(names))}
    for literal, deps in dependencies:
        if deps:
            check_at[max(position[name] for name in deps)].append(literal)

    nodes = [0]

    def backtrack(level: int) -> bool:
        if nodes[0] > limit:
            return False
        if level == len(names):
            return True
        name = names[level]
        for value in pools[name]:
            nodes[0] += 1
            if nodes[0] > limit:
                return False
            _store_value(assignment, name, value, free)
            if all(_check_literal(lit, env) for lit in check_at[level]):
                if backtrack(level + 1):
                    return True
        return False

    found = backtrack(0)
    if budget is not None:
        budget[0] -= nodes[0]
    if found:
        return True
    if nodes[0] <= limit:
        # Exhaustive failure: backtracking visited the entire candidate
        # pool product (its pruning is sound — a literal false under a
        # partial assignment stays false under every extension), and the
        # repair loop below samples values from those same pools, so it
        # cannot succeed where the exhaustive search failed.
        return False
    if stats is not None:
        stats.truncated = True
    # Last resort: random repair for pathological pools.
    for name in names:
        _store_value(assignment, name, pools[name][0], free)
    for _ in range(_MAX_REPAIR_ITERATIONS):
        if all(_check_literal(lit, env) for lit, deps in dependencies if deps):
            if stats is not None:
                stats.repair_used = True
            return True
        name = rng.choice(names)
        _store_value(assignment, name, rng.choice(pools[name]), free)
    if all(_check_literal(lit, env) for lit, deps in dependencies if deps):
        if stats is not None:
            stats.repair_used = True
        return True
    return False


def solve(
    literals: list[Term],
    context: SolverContext,
    seed: int = 0xC0FFEE,
    strategy: str = "backtracking",
    max_nodes: int | None = None,
    extra_constants: tuple = (),
) -> Model | None:
    """Find a model of the conjunction *literals*, or None.

    ``strategy`` selects the witness search: ``"backtracking"`` (default)
    or the naive ``"product"`` baseline (ablation only).  ``max_nodes``
    caps the total witness-search nodes (the solver's fuel budget).
    """
    model, _stats = solve_status(
        literals, context, seed, strategy, max_nodes, extra_constants
    )
    return model


def solve_status(
    literals: list[Term],
    context: SolverContext,
    seed: int = 0xC0FFEE,
    strategy: str = "backtracking",
    max_nodes: int | None = None,
    extra_constants: tuple = (),
) -> tuple:
    """Like :func:`solve`, but returns ``(model, SolveStats)``.

    The stats make budget exhaustion observable: ``status`` is
    ``"unknown"`` (not ``"unsat"``) when a search cap truncated the
    decision procedure, so callers can distinguish "no model exists"
    from "ran out of fuel looking".
    """
    from repro.robustness.faults import maybe_inject

    maybe_inject("solve")
    stats = SolveStats()
    problem, verdict = _normalize(list(literals), context)
    if problem is None:
        stats.status = verdict
        stats.truncated = verdict == "unknown"
        return None, stats
    rng = random.Random(seed)
    total = _MAX_TOTAL_NODES if max_nodes is None else max_nodes
    node_budget = [total]

    # --- identity theory -------------------------------------------------
    uf = _UnionFind()
    for left, right, positive in problem.identity_literals:
        if positive:
            uf.union(left, right)
    distinct_pairs = [
        (uf.find(a), uf.find(b))
        for a, b, positive in problem.identity_literals
        if not positive
    ]
    if any(a == b for a, b in distinct_pairs):
        return None, stats

    # --- kind domains -----------------------------------------------------
    representatives = sorted({uf.find(name) for name in problem.oop_vars})
    domains = {name: set(ALL_KINDS) for name in representatives}
    for name, tag, positive in problem.kind_literals:
        rep = uf.find(name)
        if positive:
            domains[rep] &= {tag}
        else:
            domains[rep] -= {tag}
        if not domains[rep]:
            return None, stats

    class_constrained = {uf.find(name) for name in problem.class_constrained}

    # --- enumerate kind (and class) assignments ---------------------------
    ordered_kinds = {
        name: [k for k in _KIND_PREFERENCE if k in domains[name]]
        for name in representatives
    }

    def class_choices(name: str, tag: KindTag):
        if tag != KindTag.OBJECT:
            return [None]
        if name in class_constrained:
            return list(context.default_object_classes)
        return [context.default_object_classes[0]]

    assignments_tried = 0
    for kind_combo in itertools.product(
        *(ordered_kinds[name] for name in representatives)
    ):
        kind_map = dict(zip(representatives, kind_combo))
        # Distinct immediates of the same kind are handled in witness
        # search (integers) or impossible (nil/true/false singletons).
        bad = False
        for a, b in distinct_pairs:
            if kind_map.get(a) == kind_map.get(b) and kind_map.get(a) in (
                KindTag.NIL,
                KindTag.TRUE,
                KindTag.FALSE,
            ):
                bad = True
                break
        if bad:
            continue
        object_vars = [n for n, t in kind_map.items() if t == KindTag.OBJECT]
        for class_combo in itertools.product(
            *(class_choices(name, kind_map[name]) for name in object_vars)
        ):
            assignments_tried += 1
            if assignments_tried > _MAX_KIND_ASSIGNMENTS:
                stats.status = "unknown"
                stats.truncated = True
                stats.nodes = total - node_budget[0]
                return None, stats
            assignment = _Assignment(
                kinds=dict(kind_map),
                classes=dict(zip(object_vars, class_combo)),
                int_values={},
                float_values={},
            )
            if node_budget[0] <= 0:
                # Solve budget exhausted: unknown, not UNSAT.
                stats.status = "unknown"
                stats.truncated = True
                stats.nodes = total - node_budget[0]
                return None, stats
            if not _search_witnesses(problem, assignment, uf, rng, strategy,
                                     node_budget, stats, extra_constants):
                continue
            model = _finalize(problem, assignment, uf)
            if model is not None and model.satisfies(list(literals)):
                stats.status = "sat"
                stats.nodes = total - node_budget[0]
                return model, stats
    stats.nodes = total - node_budget[0]
    if stats.truncated:
        stats.status = "unknown"
    return None, stats


def _finalize(problem: _Problem, assignment: _Assignment, uf: _UnionFind):
    """Assemble a Model from a successful assignment."""
    context = problem.context
    model = Model(context=context)
    for name in set(assignment.kinds) | set(problem.oop_vars):
        rep = uf.find(name)
        if rep != name:
            model.aliases[name] = rep
    for name, tag in assignment.kinds.items():
        if tag == KindTag.SMALL_INT:
            model.kinds[name] = Kind(
                KindTag.SMALL_INT, value=assignment.int_values.get(f"IV::{name}", 0)
            )
        elif tag == KindTag.FLOAT:
            model.kinds[name] = Kind(KindTag.FLOAT)
            model.float_values[name] = assignment.float_values.get(name, 1.0)
        elif tag == KindTag.OBJECT:
            model.kinds[name] = Kind(
                KindTag.OBJECT,
                class_index=assignment.classes[name],
                num_slots=assignment.int_values.get(f"SC::{name}", 0),
            )
        else:
            model.kinds[name] = Kind(tag)
    for name, value in assignment.int_values.items():
        if "::" not in name:
            model.int_values[name] = value
    return model
