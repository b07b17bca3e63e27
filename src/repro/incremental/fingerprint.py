"""Semantic fingerprints: the content-addressed identity of one cell.

A fingerprint answers "may this cell's cached result be reused?" and it
must answer *no* exactly when re-running could produce different
records.  The ingredients (see docs/INCREMENTAL.md):

* the **interpreter semantic closure** — the live byte-code handler
  (``Interpreter.bc_<family>``) or primitive function, plus every
  helper it reaches by name on the semantic namespaces (Interpreter,
  ObjectMemory, Frame, the primitives and exits modules), hashed by
  their compiled code objects;
* the **compiler front-end closure** — the live ``gen_<family>`` /
  ``tpl_<native>`` generator resolved through the cell's compiler class
  MRO, the compilation driver and the operand-stack strategy methods,
  including plain data attributes such as scratch-register names;
* the **shared environment** — every attribute of the machine
  simulator class (the execution substrate all cells share) plus a
  source hash of the shared infrastructure modules (concolic engine,
  harness, memory model, machine back-ends);
* the **spec signature** (opcode/operand/primitive-index shape) and the
  **budget knobs** that change exploration or testing results.

Hashing *live* attributes — not source text — is what makes the mutant
contract work: a registry mutant monkey-patches a handler or generator,
so exactly the cells whose closure contains the patched member change
fingerprint; every untouched cell keeps its baseline fingerprint and
its cache hit.  ``repro mutate`` therefore reuses baseline-phase
results across mutants, and a mutated record can never be served to a
baseline run (the fingerprints differ by construction).  The registry-
wide property test in tests/incremental/test_invalidation.py enforces
the no-over-/no-under-invalidation contract.
"""

from __future__ import annotations

import hashlib
import sys
from functools import lru_cache
from pathlib import Path

#: Bumped when the fingerprint recipe itself changes; feeds the store's
#: on-disk CACHE_VERSION so stale stores degrade to a cold run.
FINGERPRINT_VERSION = 3

_RENDER_DEPTH_LIMIT = 8


# ======================================================================
# code-object hashing


def _render_value(value, depth: int = 0) -> str:
    """Deterministic rendering of a constant/data attribute.

    Only process-independent representations are allowed: anything
    whose ``repr`` could embed an address (arbitrary instances, bound
    functions) collapses to its type name.  Nested code objects (lambda
    and comprehension constants) recurse into the code hasher.
    """
    if depth > _RENDER_DEPTH_LIMIT:
        return "<deep>"
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, tuple):
        return "(" + ",".join(_render_value(v, depth + 1) for v in value) + ")"
    if isinstance(value, list):
        return "[" + ",".join(_render_value(v, depth + 1) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        rendered = sorted(_render_value(v, depth + 1) for v in value)
        return "{" + ",".join(rendered) + "}"
    if isinstance(value, dict):
        entries = sorted(
            _render_value(k, depth + 1) + ":" + _render_value(v, depth + 1)
            for k, v in value.items()
        )
        return "{" + ",".join(entries) + "}"
    if hasattr(value, "co_code"):
        return _code_text(value, depth + 1)
    return f"<{type(value).__name__}>"


def _code_text(code, depth: int = 0) -> str:
    """The semantic content of one code object (no filenames/line info,
    so moving code around a file does not invalidate anything)."""
    return "|".join(
        (
            code.co_code.hex(),
            ",".join(code.co_names),
            ",".join(code.co_varnames),
            ",".join(code.co_freevars),
            "(" + ",".join(
                _render_value(const, depth + 1) for const in code.co_consts
            ) + ")",
        )
    )


def _function_of(obj):
    """Unwrap descriptors down to a plain python function, or None."""
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        obj = obj.fget
    obj = getattr(obj, "__func__", obj)
    if callable(obj) and hasattr(obj, "__code__"):
        return obj
    return None


@lru_cache(maxsize=8192)
def _function_digest(func) -> str:
    """Hash of one function: code object plus captured closure cells.

    Closure cells matter because the primitive table is built from
    factories (``_int_binary(operator.add)``): two primitives share one
    code object and differ only in their captured operator.
    """
    parts = [_code_text(func.__code__)]
    for cell in func.__closure__ or ():
        try:
            content = cell.cell_contents
        except ValueError:  # pragma: no cover - empty cell
            parts.append("<empty-cell>")
            continue
        inner = _function_of(content)
        if inner is not None:
            parts.append(_function_digest(inner))
        elif callable(content):
            parts.append("builtin:" + getattr(content, "__qualname__",
                                              repr(type(content))))
        else:
            parts.append(_render_value(content))
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def _member_digest(value) -> str:
    """Digest of one resolved member: code hash for functions,
    deterministic rendering for data."""
    func = _function_of(value)
    if func is not None:
        return _function_digest(func)
    if callable(value):
        return "builtin:" + getattr(value, "__qualname__",
                                    repr(type(value)))
    return "data:" + _render_value(value)


# ======================================================================
# the closure walk


def _collect_names(code, into: set) -> None:
    into.update(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            _collect_names(const, into)


def _resolve(name, namespaces, labels, memo) -> list:
    """``[((label, name), live object, function or None)]``: *name*
    resolved against each namespace that has it, in order.

    A dunder name resolves to nothing: on a module namespace it names
    the module's dict, file and cache path, which say where the code
    was loaded from, not what it does.
    """
    resolved = memo.get((labels, name))
    if resolved is None:
        resolved = memo[(labels, name)] = []
        if name.startswith("__") and name.endswith("__"):
            return resolved
        for label, namespace in namespaces:
            try:
                value = getattr(namespace, name)
            except AttributeError:
                continue
            resolved.append(((label, name), value, _function_of(value)))
    return resolved


def _walk_members(roots, namespaces, edge_memo=None, name_memo=None) -> dict:
    """Resolve the live semantic closure of *roots* over *namespaces*.

    Starting from the root functions, every global/attribute name a
    reachable function mentions is resolved against each ``(label,
    namespace)`` in order; resolved functions are walked recursively,
    resolved data attributes are recorded as-is.  Returns
    ``{(label, name): live object}`` — the *live* attribute, so a
    monkey-patched member changes the map (and hence the fingerprint)
    while it is installed.

    ``edge_memo`` caches each function's resolutions, and ``name_memo``
    each name's, across the walks of one :func:`plan_fingerprints` pass
    (Interpreter.step's sub-closure is identical for every spec, and
    most helpers mention the same few names); only valid while the
    live patch state is fixed.
    """
    if edge_memo is None:
        edge_memo = {}
    if name_memo is None:
        name_memo = {}
    labels = tuple(label for label, _namespace in namespaces)
    members: dict = {}
    queue: list = []
    scanned: set = set()
    for index, root in enumerate(roots):
        func = _function_of(root)
        if func is None:
            continue
        members[("root", f"{index}:{getattr(func, '__name__', '?')}")] = func
        queue.append(func)
    while queue:
        func = queue.pop()
        if id(func) in scanned:
            continue
        scanned.add(id(func))
        edge_key = (id(func), labels)
        edges = edge_memo.get(edge_key)
        if edges is None:
            names: set = set()
            _collect_names(func.__code__, names)
            edges = edge_memo[edge_key] = [
                edge
                for name in sorted(names)
                for edge in _resolve(name, namespaces, labels, name_memo)
            ]
        for key, value, inner in edges:
            if key in members:
                continue
            members[key] = value
            if inner is not None:
                queue.append(inner)
    return members


# ======================================================================
# per-cell component derivation


def _interpreter_namespaces() -> list:
    from repro.concolic.symbolic_memory import (
        ConcolicFrame,
        SymbolicObjectMemory,
    )
    from repro.interpreter import exits, primitives
    from repro.interpreter.frame import Frame
    from repro.interpreter.interpreter import Interpreter
    from repro.memory.object_memory import ObjectMemory

    # The concolic subclasses matter even though exploration code is
    # covered by the shared source hash: their overrides call back into
    # the *live* base-class methods (``super().is_integer_object`` …),
    # so a monkey-patched ObjectMemory/Frame member reshapes exploration
    # through them.  Resolving each name against the subclass pulls the
    # override's own references — and through those, the patched base
    # members — into the closure.
    return [
        ("Interpreter", Interpreter),
        ("ObjectMemory", ObjectMemory),
        ("SymbolicObjectMemory", SymbolicObjectMemory),
        ("Frame", Frame),
        ("ConcolicFrame", ConcolicFrame),
        ("primitives", primitives),
        ("exits", exits),
    ]


def _sequence_of(spec):
    """((Bytecode, operands), ...) for sequence-shaped specs, else ()."""
    return getattr(spec, "sequence", ())


def _spec_bytecodes(spec):
    if spec.kind == "bytecode":
        return (spec.bytecode,)
    return tuple(bc for bc, _operands in _sequence_of(spec))


def _interpreter_roots(spec) -> list:
    from repro.interpreter.interpreter import Interpreter

    roots = [Interpreter.step, type(spec).execute, type(spec).build_method]
    if spec.kind == "native":
        roots.append(Interpreter.call_primitive)
        roots.append(spec.native.function)
    else:
        for bytecode in _spec_bytecodes(spec):
            handler = getattr(Interpreter, "bc_" + bytecode.family.name, None)
            if handler is not None:
                roots.append(handler)
    return roots


#: Operand-stack strategy + driver methods every byte-code front-end
#: fingerprint starts from, beyond the per-family generator.  The
#: ``gen_``/``tpl_`` generators themselves must be explicit roots: the
#: compilers dispatch them via ``getattr``, which a name walk cannot
#: see.
_COMPILER_MACHINERY = (
    "compile",
    "_compile_sequence",
    "_gen_method_entry",
    "_gen_epilogue",
    "_register_map",
    "begin_stack",
    "gen_push_literal",
    "gen_push_register",
    "gen_pop_to",
    "gen_top_to",
    "gen_drop",
    "gen_flush",
)


def _machinery_roots(compiler_class) -> list:
    roots = []
    for name in _COMPILER_MACHINERY:
        member = getattr(compiler_class, name, None)
        if member is not None:
            roots.append(member)
    return roots


def _generator_roots(spec, compiler_class) -> list:
    roots = []
    if spec.kind == "native":
        template = getattr(compiler_class, "tpl_" + spec.native.name, None)
        if template is not None:
            roots.append(template)
    else:
        for bytecode in _spec_bytecodes(spec):
            generator = getattr(
                compiler_class, "gen_" + bytecode.family.name, None
            )
            if generator is not None:
                roots.append(generator)
    return roots


def _compiler_namespaces(compiler_class) -> list:
    return [(compiler_class.__name__, compiler_class)]


def _root_groups(spec, compiler_class) -> list:
    """``(group, roots, namespaces)``: interpreter, then compiler."""
    return [
        ("interpreter", _interpreter_roots(spec), _interpreter_namespaces()),
        (compiler_class.__name__,
         _machinery_roots(compiler_class)
         + _generator_roots(spec, compiler_class),
         _compiler_namespaces(compiler_class)),
    ]


def _environment_members() -> dict:
    """Live members of the shared execution substrate.

    Every cell runs on the machine simulator, so every attribute of its
    class is part of every fingerprint — which is exactly why the
    simulator mutants (R10/R11) invalidate the whole grid: the
    simulator *is* the part of every cell they patch.
    """
    from repro.jit.machine.simulator import MachineSimulator

    members = {}
    for name in sorted(vars(MachineSimulator)):
        if name.startswith("__") and name not in ("__init__",):
            continue
        members[("MachineSimulator", name)] = getattr(MachineSimulator, name)
    return members


#: Shared-infrastructure packages/modules hashed by source: an edit to
#: any of them invalidates every cell.  The interpreter handlers,
#: primitives and compiler front-ends are deliberately *absent* — they
#: are covered per-cell by the live closures above, which is what makes
#: invalidation per-instruction instead of all-or-nothing.
_SHARED_SOURCE = (
    "bytecode",
    "concolic",
    "difftest",
    "memory",
    "jit/ir.py",
    "jit/machine",
    "interpreter/frame.py",
    "interpreter/exits.py",
)


@lru_cache(maxsize=1)
def _static_environment_hash() -> str:
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for entry in _SHARED_SOURCE:
        target = root / entry
        files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        for path in files:
            if not path.exists():
                continue
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


def _spec_signature(spec) -> tuple:
    if spec.kind == "bytecode":
        bytecode = spec.bytecode
        return (
            "bytecode",
            bytecode.name,
            bytecode.opcode,
            bytecode.size,
            bytecode.family.name,
            bytecode.family.operand_bytes,
        )
    if spec.kind == "native":
        native = spec.native
        return (
            "native",
            native.name,
            native.index,
            native.argument_count,
            native.category,
        )
    # sequence / stitched: the full encoded instruction stream.
    encoded = tuple(
        (bytecode.name, bytecode.opcode, tuple(operands))
        for bytecode, operands in _sequence_of(spec)
    )
    return (spec.kind, spec.name, encoded)


def _budget_signature(config) -> tuple:
    """The config knobs that change a cell's *results* (scope knobs such
    as ``only``/``max_bytecodes`` select cells, they never change one)."""
    return (
        config.max_paths_per_instruction,
        config.max_iterations,
        config.max_sim_steps,
        bool(config.boundary_witnesses),
        tuple(
            getattr(backend, "name", str(backend))
            for backend in config.backends
        ),
    )


# ======================================================================
# public API


def fingerprint_members(spec, compiler_class) -> dict:
    """``{(label, name): live object}`` — the cell's semantic closure.

    Exposed for the invalidation property test: a mutant must change a
    cell's fingerprint iff one of these resolved objects is the
    attribute it patched.  It is the union of the closures
    :func:`cell_fingerprint` digests root by root.
    """
    members = {}
    for _group, roots, namespaces in _root_groups(spec, compiler_class):
        members.update(_walk_members(roots, namespaces))
    members.update(_environment_members())
    return members


def _members_digest(members: dict, digests: dict) -> str:
    """Hash of sorted ``label.name=digest`` lines.  *digests* memoizes
    by identity and holds each object, so no id is reused mid-pass."""
    lines = []
    for label, name in sorted(members):
        value = members[(label, name)]
        held = digests.get(id(value))
        if held is None:
            held = digests[id(value)] = (value, _member_digest(value))
        lines.append(f"{label}.{name}={held[1]}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


class _Pass:
    """One fingerprinting pass: what it renders, resolves and digests
    once for all of its cells.  That is the knob render, each spec's
    signature render and interpreter parts, the interpreter namespaces,
    each compiler's machinery parts, each function's and each name's
    resolutions, each root's closure digest and the environment's.

    Every entry reads live attributes, so a pass is valid only while
    the patch state is fixed: :func:`plan_fingerprints` holds one
    ``activated()`` around its pass and drops the pass on return.
    """

    def __init__(self, config) -> None:
        self.edges: dict = {}
        self.names: dict = {}
        #: (root function, namespace labels) -> its closure's digest.
        self.closures: dict = {}
        #: member id -> (member, digest); holding the member keeps its
        #: id from being reused mid-pass.
        self.digests: dict = {}
        #: (kind, name) -> the spec's ``spec:`` and interpreter parts.
        self.specs: dict = {}
        #: compiler class -> (root count, parts) of its machinery.
        self.machinery: dict = {}
        self.namespaces = _interpreter_namespaces()
        self.head = "\n".join((
            f"fingerprint:{FINGERPRINT_VERSION}",
            f"python:{sys.version_info[0]}.{sys.version_info[1]}",
        ))
        self.tail = "\n".join((
            "knobs:" + _render_value(_budget_signature(config)),
            "sources:" + _static_environment_hash(),
        ))
        self.environment = "environment=" + _members_digest(
            _environment_members(), self.digests)

    def fingerprint(self, spec, compiler_class) -> str:
        """The closure enters as one digest per root, then one for the
        environment."""
        signature, interpreter = self._spec_parts(spec)
        parts = [self.head, signature, self.tail, *interpreter,
                 *self._compiler_parts(spec, compiler_class),
                 self.environment]
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()

    def _spec_parts(self, spec) -> tuple:
        key = (spec.kind, spec.name)
        parts = self.specs.get(key)
        if parts is None:
            parts = self.specs[key] = (
                "spec:" + _render_value(_spec_signature(spec)),
                self._root_parts("interpreter", _interpreter_roots(spec),
                                 self.namespaces),
            )
        return parts

    def _compiler_parts(self, spec, compiler_class) -> list:
        """The machinery roots' parts, then the spec's generators',
        numbered on from the machinery."""
        group = compiler_class.__name__
        namespaces = _compiler_namespaces(compiler_class)
        machinery = self.machinery.get(compiler_class)
        if machinery is None:
            roots = _machinery_roots(compiler_class)
            machinery = self.machinery[compiler_class] = (
                len(roots), self._root_parts(group, roots, namespaces))
        start, parts = machinery
        return parts + self._root_parts(
            group, _generator_roots(spec, compiler_class), namespaces, start)

    def _root_parts(self, group, roots, namespaces, start=0) -> list:
        """One ``group[index]=digest`` part per function root."""
        labels = tuple(label for label, _namespace in namespaces)
        parts = []
        for index, root in enumerate(roots, start):
            func = _function_of(root)
            if func is None:
                continue
            digest = self.closures.get((func, labels))
            if digest is None:
                digest = self.closures[(func, labels)] = _members_digest(
                    _walk_members([func], namespaces, self.edges,
                                  self.names),
                    self.digests)
            parts.append(f"{group}[{index}]={digest}")
        return parts


def cell_fingerprint(spec, compiler_class, config) -> str:
    """The content-addressed identity of one campaign cell: a pass of
    its own, fingerprinting this one cell (see :class:`_Pass`)."""
    return _Pass(config).fingerprint(spec, compiler_class)


def plan_fingerprints(rows, config) -> dict:
    """``{cell key: fingerprint}`` for every cell of a canonical plan.

    Computed under ``activated(config.mutants)`` so the closures are
    hashed exactly as the campaign will execute them — that is the
    whole baseline-reuse / no-leak contract.  One :class:`_Pass` serves
    every cell, and each gets the fingerprint :func:`cell_fingerprint`
    gives it alone.
    """
    from repro.mutation import activated
    from repro.parallel.shard import plan_cells

    fingerprints: dict = {}
    memo: dict = {}
    with activated(getattr(config, "mutants", ())):
        fingerprint_pass = _Pass(config)
        for cell in plan_cells(rows):
            row = rows[cell.row_index]
            spec = row.specs[cell.spec_index]
            memo_key = (cell.experiment, cell.kind, cell.instruction,
                        cell.compiler)
            if memo_key not in memo:
                memo[memo_key] = fingerprint_pass.fingerprint(
                    spec, row.compiler_class)
            fingerprints[cell.key] = memo[memo_key]
    return fingerprints
