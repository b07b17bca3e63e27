"""Path exploration: the concolic loop over one VM instruction.

This is the paper's step 1 (Fig. 1): repeatedly execute the instruction
with concrete inputs, record the path condition, negate the last
not-yet-negated constraint, ask the solver for new inputs, and continue
until no unexplored branches remain.  Unlike classical concolic testing
the loop "does not stop as soon as it finds a concrete error": every
execution — including invalid-frame and invalid-memory exits — becomes a
recorded path with its exit condition (Section 3.4).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import perf
from repro.bytecode.methods import CompiledMethod, MethodBuilder, SymbolTable
from repro.bytecode.opcodes import Bytecode
from repro.concolic.materialize import Materializer
from repro.concolic.pathtree import PathTree, SnapshotStore, model_fingerprint
from repro.concolic.snapshots import OutputSnapshot
from repro.concolic.solver import Model, SolverContext, solve_status, solve_with_hint
from repro.concolic.symbolic_memory import SymbolicObjectMemory
from repro.concolic.trace import PathConstraint, PathTrace
from repro.concolic.values import tracing
from repro.errors import (
    HeapExhausted,
    InvalidFrameAccess,
    InvalidMemoryAccess,
    UntaggedValueError,
)
from repro.interpreter.exits import ExitResult
from repro.interpreter.interpreter import Interpreter
from repro.interpreter.primitives import NativeMethod
from repro.memory.bootstrap import bootstrap_memory


# ======================================================================
# instruction specs


@dataclass(frozen=True)
class BytecodeInstructionSpec:
    """A byte-code encoding under test."""

    bytecode: Bytecode

    @property
    def name(self) -> str:
        return self.bytecode.name

    @property
    def kind(self) -> str:
        return "bytecode"

    def build_method(self, memory, symbols: SymbolTable) -> CompiledMethod:
        """One-instruction method, padded so jump targets exist.

        Literal slots are filled with interned selectors for send
        families and with distinct tagged integers otherwise, so every
        embedded literal index is valid.
        """
        builder = MethodBuilder(memory, symbols)
        builder.temps(16)
        family = self.bytecode.family.name
        if family.startswith("sendLiteralSelector"):
            for index in range(16):
                builder.selector_literal(f"sel{index}:")
        else:
            for index in range(16):
                builder.literal(memory.integer_object_of(100 + index))
        builder.emit(self.bytecode.opcode)
        if self.bytecode.family.operand_bytes == 1:
            builder.emit(2)  # forward displacement into the padding
        elif self.bytecode.family.operand_bytes == 2:
            builder.emit(1, 0)
        from repro.bytecode.opcodes import bytecode_named

        nop = bytecode_named("nop").opcode
        for _ in range(8):
            builder.emit(nop)
        return builder.build()

    def execute(self, interpreter: Interpreter, frame) -> ExitResult:
        try:
            return interpreter.step(frame)
        except HeapExhausted as error:
            return ExitResult.needs_garbage_collection(str(error))


@dataclass(frozen=True)
class NativeMethodSpec:
    """A native method (primitive) under test."""

    native: NativeMethod

    @property
    def name(self) -> str:
        return self.native.name

    @property
    def kind(self) -> str:
        return "native"

    def build_method(self, memory, symbols: SymbolTable) -> CompiledMethod:
        builder = MethodBuilder(memory, symbols)
        builder.temps(16)
        builder.primitive(self.native.index)
        return builder.build()

    def execute(self, interpreter: Interpreter, frame) -> ExitResult:
        try:
            return interpreter.call_primitive(
                self.native, frame, self.native.argument_count
            )
        except InvalidFrameAccess as error:
            return ExitResult.invalid_frame(str(error))
        except (InvalidMemoryAccess, UntaggedValueError) as error:
            return ExitResult.invalid_memory_access(str(error))
        except HeapExhausted as error:
            return ExitResult.needs_garbage_collection(str(error))


# ======================================================================
# results


@dataclass
class PathResult:
    """One fully explored execution path of an instruction."""

    instruction: str
    kind: str
    #: The recorded path condition.
    constraints: list[PathConstraint]
    #: The input model that drove this execution.
    model: Model
    exit: ExitResult
    output: OutputSnapshot

    @property
    def signature(self) -> tuple:
        return tuple(constraint.key for constraint in self.constraints)

    def describe(self) -> str:
        trace = " AND ".join(str(c) for c in self.constraints) or "(empty)"
        return (
            f"[{self.exit.describe()}] inputs: {self.model.describe() or '(default)'}"
            f" | path: {trace}"
        )


@dataclass
class ExplorationResult:
    """All paths of one instruction plus bookkeeping counters."""

    instruction: str
    kind: str
    paths: list[PathResult] = field(default_factory=list)
    iterations: int = 0
    unsat_prefixes: int = 0
    duplicate_paths: int = 0
    elapsed_seconds: float = 0.0
    #: True when a wall-clock deadline stopped the exploration early;
    #: the recorded paths are still valid, just not exhaustive.
    budget_exhausted: bool = False

    @property
    def path_count(self) -> int:
        return len(self.paths)

    def exits(self) -> dict:
        counts: dict = {}
        for path in self.paths:
            counts[path.exit.condition] = counts.get(path.exit.condition, 0) + 1
        return counts


class ExplorationCache:
    """Per-instruction exploration results, shared across cells.

    Concolic exploration is the expensive half of a campaign cell, and
    its result depends only on the instruction — not on the compiler or
    backend under test.  The paper notes exactly this: "the results of
    the concolic exploration can be cached and reused multiple times".
    One cache instance is shared by every (compiler x backend) cell of
    an instruction: the campaign's shard function keeps one per shard,
    and a shard carries all compiler cells of one instruction, in
    process or in a worker alike.

    Only *full-budget* explorations are cached; reduced-budget retry
    explorations stay private to their cell so a cache never serves
    truncated path sets to healthy cells.

    Beside each exploration the cache keeps the instruction's
    :class:`VMWorld`, in which the exploration ran and the differential
    harness checks every compiler cell of the shard; it lives exactly
    as long as the shard (or triage trial) that created the cache.
    """

    def __init__(self) -> None:
        self._entries: dict = {}
        self._worlds: dict = {}
        self.hits = 0
        self.misses = 0

    def _key(self, spec) -> tuple:
        return (spec.kind, spec.name)

    def get(self, spec) -> "ExplorationResult | None":
        entry = self._entries.get(self._key(spec))
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, spec, exploration: "ExplorationResult") -> None:
        self._entries[self._key(spec)] = exploration

    def world(self, spec) -> "VMWorld":
        """The shard's world for *spec*, built on first use."""
        key = self._key(spec)
        world = self._worlds.get(key)
        if world is None:
            world = self._worlds[key] = VMWorld(spec)
        return world

    def __len__(self) -> int:
        return len(self._entries)


class VMWorld:
    """The VM state one instruction is explored and tested in.

    Bootstrapped memory, symbol table, synthesized method, solver
    context and a copy-on-write base mark.  Exploration runs every
    execution here and records each path's output against
    :attr:`base_mark`; every compiler and backend of the shard then
    tests in the same world (:meth:`ExplorationCache.world`), so a
    model materializes at the addresses it had during exploration and
    the recorded output is the output the same inputs give here.  Each
    execution and comparison rewinds the heap to :attr:`base_mark`
    before it materializes its inputs, so nothing one writes reaches
    the next.
    """

    def __init__(self, spec, heap_words: int = 8 * 1024) -> None:
        self.spec = spec
        self.memory, _known = bootstrap_memory(
            heap_words=heap_words, memory_class=SymbolicObjectMemory
        )
        self.symbols = SymbolTable(self.memory)
        self.method = spec.build_method(self.memory, self.symbols)
        self.context = SolverContext.from_memory(self.memory)
        self.base_mark = self.memory.heap.start_journal()
        #: Built by the first execution.
        self.interpreter: Interpreter | None = None
        perf.incr("test.worlds")

    def materialize(self, model: Model):
        """Rewind to the base state and build *model*'s input frame.

        Returns the frame and a checkpoint of the input state.
        """
        heap = self.memory.heap
        heap.rewind(self.base_mark)
        self.memory.reset_registry()
        frame = Materializer(self.memory, model).materialize_frame(self.method)
        return frame, heap.checkpoint()

    def interpret(self, frame, input_mark, trace: PathTrace | None = None
                  ) -> tuple:
        """Run the interpreter on a materialized frame.

        Returns the ``(ExitResult, OutputSnapshot)`` pair exploration
        records for a path, captured against *input_mark*.  Branch
        decisions go to *trace* (exploration's path condition) when one
        is given; the capture runs outside it.
        """
        if self.interpreter is None:
            self.interpreter = Interpreter(self.memory, self.symbols)
        with tracing(trace):
            exit_result = self.spec.execute(self.interpreter, frame)
        output = OutputSnapshot.capture_cow(
            self.memory, frame, exit_result, input_mark
        )
        return exit_result, output


# ======================================================================
# the explorer


class ConcolicExplorer:
    """Explores all execution paths of one instruction in a VM world."""

    def __init__(
        self,
        spec,
        *,
        world: VMWorld | None = None,
        max_iterations: int = 400,
        max_paths: int = 128,
        deadline=None,
    ) -> None:
        self.spec = spec
        #: Where every execution runs: the caller's world (a shard's,
        #: which then tests the paths found here), else a private one.
        self.world = world if world is not None else VMWorld(spec)
        self.memory = self.world.memory
        self.context = self.world.context
        self.max_iterations = max_iterations
        self.max_paths = max_paths
        self.deadline = deadline
        #: The path tree and execution memo of the latest exploration,
        #: kept for inspection (``--profile`` reads their gauges).
        self.tree: PathTree | None = None

    # ------------------------------------------------------------------

    def explore(self) -> ExplorationResult:
        """Run the negate-last-unnegated loop over the path tree.

        Same worklist loop as :meth:`explore_raw`, with the exploration
        state kept in an explicit prefix-sharing
        :class:`~repro.concolic.pathtree.PathTree`: branch points of
        recorded paths become tree nodes carrying copy-on-write snapshot
        handles, and a scheduled negation whose prefix is already
        realized by a recorded path is answered from the tree without a
        solver call or a from-the-root re-execution.  Solved models that
        fingerprint identically to an earlier execution replay that
        execution instead of re-running it.  Both short-cuts are exact —
        the returned :class:`ExplorationResult` (paths, order,
        signatures, counters) is identical to :meth:`explore_raw` up to
        ``elapsed_seconds``.

        A :class:`~repro.robustness.budgets.Deadline` (when given) stops
        the loop between iterations: exploration ends cleanly with
        ``budget_exhausted`` set and whatever paths were found so far.
        """
        from repro.robustness.errors import guard
        from repro.robustness.faults import maybe_inject

        maybe_inject("explore", self.spec.name, deadline=self.deadline)
        start = time.perf_counter()
        result = ExplorationResult(self.spec.name, self.spec.kind)
        tree = PathTree()
        store = SnapshotStore()
        self.tree = tree
        tried_prefixes: set = set()
        seen_paths: set = set()
        # Work stack of (constraint prefix, parent model) pairs to
        # realize (LIFO = DFS).  The parent model warm-starts the
        # solver: a child prefix shares every literal with its parent's
        # path except the final negated one, so only the independent
        # component containing that literal needs re-solving.
        worklist: list = [([], None)]
        while worklist and result.iterations < self.max_iterations:
            if len(result.paths) >= self.max_paths:
                break
            if self.deadline is not None and self.deadline.expired:
                result.budget_exhausted = True
                break
            prefix, hint = worklist.pop()
            result.iterations += 1
            if prefix and tree.covers(tuple(c.key for c in prefix)) is not None:
                # A recorded path already passes through every branch of
                # this prefix, so it is satisfiable (that path's model
                # is a witness) and the raw loop's solve-plus-execute
                # here could only rediscover an already-recorded path.
                result.duplicate_paths += 1
                perf.incr("snapshot.reuse")
                continue
            with guard("solver"):
                literals = [c.literal for c in prefix]
                if hint is None:
                    model, _stats = solve_status(literals, self.context)
                else:
                    model, _stats = solve_with_hint(literals, self.context, hint)
            if model is None:
                result.unsat_prefixes += 1
                continue
            fingerprint = model_fingerprint(model)
            path = store.get(fingerprint)
            if path is None:
                path = self._execute_once(model)
                store.put(fingerprint, path)
            else:
                # Deterministic replay: this exact input model already
                # executed once; its PathResult is reused as-is.
                perf.incr("snapshot.reuse")
            if path.signature in seen_paths:
                result.duplicate_paths += 1
            else:
                seen_paths.add(path.signature)
                result.paths.append(path)
                tree.insert(path, fingerprint)
            # Schedule negations of every suffix constraint (deepest
            # first so the DFS explores "closest" branches next).
            for index in range(len(path.constraints)):
                candidate = list(path.constraints[:index]) + [
                    path.constraints[index].negated()
                ]
                key = tuple(c.key for c in candidate)
                if key not in tried_prefixes:
                    tried_prefixes.add(key)
                    worklist.append((candidate, path.model))
        result.elapsed_seconds = time.perf_counter() - start
        perf.incr("explore.instructions")
        perf.incr("explore.paths", result.path_count)
        perf.incr("explore.iterations", result.iterations)
        perf.incr("explore.unsat_prefixes", result.unsat_prefixes)
        perf.incr("pathtree.subsumed", tree.subsumed)
        perf.gauge_max("pathtree.depth", tree.max_depth)
        perf.gauge_max("pathtree.nodes", tree.node_count)
        perf.observe("explore", result.elapsed_seconds)
        return result

    # ------------------------------------------------------------------

    def explore_raw(self) -> ExplorationResult:
        """The from-the-root loop without the path tree (ablation).

        Every popped prefix goes to the solver and every model executes
        from the root — no subsumption, no execution replay.  Kept
        (mirroring ``solve_raw``) as the reference the equivalence
        property suite and the explorer ablation benchmark compare the
        tree against; no campaign runs it.  The result is identical to
        :meth:`explore` up to ``elapsed_seconds``.
        """
        from repro.robustness.errors import guard
        from repro.robustness.faults import maybe_inject

        maybe_inject("explore", self.spec.name, deadline=self.deadline)
        start = time.perf_counter()
        result = ExplorationResult(self.spec.name, self.spec.kind)
        tried_prefixes: set = set()
        seen_paths: set = set()
        worklist: list = [([], None)]
        while worklist and result.iterations < self.max_iterations:
            if len(result.paths) >= self.max_paths:
                break
            if self.deadline is not None and self.deadline.expired:
                result.budget_exhausted = True
                break
            prefix, hint = worklist.pop()
            result.iterations += 1
            with guard("solver"):
                literals = [c.literal for c in prefix]
                if hint is None:
                    model, _stats = solve_status(literals, self.context)
                else:
                    model, _stats = solve_with_hint(literals, self.context, hint)
            if model is None:
                result.unsat_prefixes += 1
                continue
            path = self._execute_once(model)
            if path.signature in seen_paths:
                result.duplicate_paths += 1
            else:
                seen_paths.add(path.signature)
                result.paths.append(path)
            for index in range(len(path.constraints)):
                candidate = list(path.constraints[:index]) + [
                    path.constraints[index].negated()
                ]
                key = tuple(c.key for c in candidate)
                if key not in tried_prefixes:
                    tried_prefixes.add(key)
                    worklist.append((candidate, path.model))
        result.elapsed_seconds = time.perf_counter() - start
        perf.incr("explore.instructions")
        perf.incr("explore.paths", result.path_count)
        perf.incr("explore.iterations", result.iterations)
        perf.incr("explore.unsat_prefixes", result.unsat_prefixes)
        perf.observe("explore", result.elapsed_seconds)
        return result

    # ------------------------------------------------------------------

    def execute_with_model(self, model: Model) -> PathResult:
        """One concolic execution with externally supplied inputs.

        Public entry used by the random-testing baseline: the inputs
        come from a generator instead of the solver, but the recorded
        path signature is computed the same way.
        """
        return self._execute_once(model)

    def _execute_once(self, model: Model) -> PathResult:
        """One concolic execution with the inputs described by *model*.

        The world rewinds its heap to the base state through the
        copy-on-write journal before materializing (which also cleans
        up after an exception that escaped mid-execution), and the heap
        is rewound again after the capture, so the cost per execution
        is proportional to the words the instruction actually wrote,
        not to the heap size.
        """
        world = self.world
        frame, input_mark = world.materialize(model)
        perf.incr("snapshot.create")
        trace = PathTrace()
        exit_result, output = world.interpret(frame, input_mark, trace)
        world.memory.heap.rewind(world.base_mark)
        perf.incr("snapshot.restore")
        return PathResult(
            instruction=self.spec.name,
            kind=self.spec.kind,
            constraints=list(trace),
            model=model,
            exit=exit_result,
            output=output,
        )


def explore_bytecode(bytecode: Bytecode, **kwargs) -> ExplorationResult:
    """Convenience: explore one byte-code encoding."""
    return ConcolicExplorer(BytecodeInstructionSpec(bytecode), **kwargs).explore()


def explore_native_method(native: NativeMethod, **kwargs) -> ExplorationResult:
    """Convenience: explore one native method."""
    return ConcolicExplorer(NativeMethodSpec(native), **kwargs).explore()
