"""Campaign driver: explore, curate, differentially test, aggregate.

Reproduces the paper's evaluation methodology (Section 5.1): four main
experiments — the native-method template compiler plus the three
byte-code compilers — with every test-case scenario executed on two
architectures (x86 and ARM32).

The concolic exploration of each instruction is performed once and its
paths are reused across compilers and back-ends, matching the paper's
note that "the results of the concolic exploration can be cached and
reused multiple times".  So is the interpreter output it recorded for
each path, against which every compiled run is checked, and so is the
instruction's VM world (:class:`~repro.concolic.explorer.VMWorld`).

The driver is fault tolerant: every (instruction, compiler) cell runs
behind the robustness layer's :func:`~repro.robustness.errors.guard`.
A crashing cell is retried once with reduced budgets, then quarantined
— recorded as a ``CRASHED`` comparison while the campaign continues.
With a journal attached, completed cells are checkpointed to JSONL and
``resume=True`` replays them, so an interrupted campaign (crash, ^C,
expired deadline) picks up where it left off with identical aggregate
counts.

One engine runs every plan (:func:`run_campaign`): it shards the plan
by instruction and runs each shard through the cell loop of
:mod:`repro.parallel.worker` — in process at ``-j 1``, in forked OS
worker processes at ``-j N`` — then merges the serialized cell records
back into plan order, so aggregate reports are byte-identical across
``-j`` values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro import perf
from repro.bytecode.opcodes import bytecode_named, testable_bytecodes
from repro.concolic.explorer import (
    BytecodeInstructionSpec,
    ConcolicExplorer,
    ExplorationCache,
    ExplorationResult,
    NativeMethodSpec,
    PathResult,
    VMWorld,
)
from repro.concolic.solver import Model
from repro.difftest.curation import curate_paths
from repro.difftest.harness import ComparisonResult, DifferentialTester, Status
from repro.interpreter.primitives import primitive_named, testable_primitives
from repro.jit.machine.arm32 import Arm32Backend
from repro.jit.machine.x86 import X86Backend
from repro.jit.native_templates import NativeMethodCompiler
from repro.jit.register_allocating import RegisterAllocatingCogit
from repro.jit.simple_stack import SimpleStackBasedCogit
from repro.jit.stack_to_register import StackToRegisterCogit
from repro.robustness.budgets import Deadline
from repro.robustness.checkpoint import CampaignJournal
from repro.robustness.errors import (
    BudgetExhausted,
    CampaignError,
    classify_crash,
    guard,
)
from repro.robustness.quarantine import Quarantine, QuarantineEntry

BYTECODE_COMPILERS = (
    SimpleStackBasedCogit,
    StackToRegisterCogit,
    RegisterAllocatingCogit,
)
BACKENDS = (X86Backend, Arm32Backend)
#: Compiler and backend classes by the names cell records carry.
COMPILERS_BY_NAME = {
    cls.name: cls for cls in (NativeMethodCompiler,) + BYTECODE_COMPILERS
}
BACKENDS_BY_NAME = {cls.name: cls for cls in BACKENDS}
#: Budget multiplier applied for the single quarantine retry.
RETRY_SCALE = 0.5


@dataclass
class CellResult:
    """One (instruction, compiler) cell: its comparisons and counters.

    The fields are the cell record's fields.  :meth:`to_record` and
    :meth:`from_record` are the only code that knows the record format,
    so a cell just executed and one read back from a worker pipe, the
    journal or the result store are the same value, and every report is
    built from it.
    """

    instruction: str
    kind: str
    compiler: str
    interpreter_paths: int = 0
    curated_paths: int = 0
    explore_seconds: float = 0.0
    test_seconds: float = 0.0
    #: Reduced-budget retries the robustness layer spent on this cell
    #: (0 = clean first attempt); surfaced in the report summary so
    #: operators can cross-check flaky-confirmation counts.
    retries: int = 0
    comparisons: list = field(default_factory=list)
    #: Set when the reduced-budget retry crashed too (see :meth:`crashed`).
    quarantined: QuarantineEntry | None = None
    #: False when the campaign deadline cut the exploration short.  Not
    #: part of the record: it only keeps such a cell out of the result
    #: store (:attr:`storable`), which takes executed cells only.
    exploration_complete: bool = field(default=True, compare=False,
                                       repr=False)

    @classmethod
    def crashed(cls, spec, compiler_class, config, error: CampaignError,
                attempts: int = 2) -> "CellResult":
        """The visible record of a quarantined cell: one CRASHED
        comparison over the config's backends, and its quarantine
        entry.  *attempts* is 1 for a cell charged for the death or
        preemption of the worker that ran it."""
        backend = "+".join(
            getattr(backend, "name", str(backend))
            for backend in config.backends
        )
        identity = dict(instruction=spec.name, kind=spec.kind,
                        compiler=compiler_class.name)
        return cls(
            **identity,
            retries=1,  # the reduced-budget retry ran and also failed
            comparisons=[ComparisonResult(
                **identity, backend=backend, status=Status.CRASHED,
                difference_kind=error.error_class, detail=str(error),
                path_signature=(),
            )],
            quarantined=QuarantineEntry.from_error(
                error, **identity, backend=backend, attempts=attempts
            ),
        )

    @property
    def differing_paths(self) -> int:
        """Paths that differ on at least one backend: paths are unique
        by signature within an exploration."""
        return len({c.path_signature for c in self.differences()})

    @property
    def storable(self) -> bool:
        """A clean first attempt over a complete exploration: the only
        cells the cross-run result store admits.  Quarantines, retried
        cells and budget-truncated explorations always re-run."""
        return self.retries == 0 and self.exploration_complete

    def differences(self) -> list:
        return [c for c in self.comparisons if c.is_difference]

    def to_record(self, key: str) -> dict:
        """The cell record, as the journal, the result store and the
        worker pipe carry it under *key*."""
        return {
            "key": key,
            "instruction": self.instruction,
            "kind": self.kind,
            "compiler": self.compiler,
            "interpreter_paths": self.interpreter_paths,
            "curated_paths": self.curated_paths,
            "differing_paths": self.differing_paths,
            "explore_seconds": self.explore_seconds,
            "test_seconds": self.test_seconds,
            "retries": self.retries,
            "comparisons": [
                comparison.to_record() for comparison in self.comparisons
            ],
            "quarantined": (
                None if self.quarantined is None
                else self.quarantined.to_dict()
            ),
        }

    @classmethod
    def from_record(cls, record: dict) -> "CellResult":
        identity = dict(instruction=record["instruction"],
                        kind=record["kind"], compiler=record["compiler"])
        quarantined = record.get("quarantined")
        return cls(
            **identity,
            interpreter_paths=record["interpreter_paths"],
            curated_paths=record["curated_paths"],
            explore_seconds=record.get("explore_seconds", 0.0),
            test_seconds=record.get("test_seconds", 0.0),
            retries=record.get("retries", 0),
            comparisons=[
                ComparisonResult.from_record(entry, **identity)
                for entry in record["comparisons"]
            ],
            quarantined=(
                None if not quarantined
                else QuarantineEntry.from_dict(quarantined)
            ),
        )


@dataclass
class CompilerReport:
    """One row of the paper's Table 2."""

    compiler: str
    tested_instructions: int = 0
    interpreter_paths: int = 0
    curated_paths: int = 0
    differing_paths: int = 0
    results: list = field(default_factory=list)

    @property
    def difference_percentage(self) -> float:
        if not self.curated_paths:
            return 0.0
        return 100.0 * self.differing_paths / self.curated_paths

    def row(self) -> tuple:
        return (
            self.compiler,
            self.tested_instructions,
            self.interpreter_paths,
            self.curated_paths,
            f"{self.differing_paths} ({self.difference_percentage:.2f}%)",
        )


@dataclass
class CampaignConfig:
    """Scope and budget controls for a campaign run."""

    #: Limit instruction counts (None = all); used by tests/benchmarks.
    max_bytecodes: int | None = None
    max_natives: int | None = None
    #: Restrict the plan to these instruction names (empty = no filter).
    #: Applied after ``max_bytecodes``/``max_natives`` slicing; used to
    #: scope seeded-defect campaigns (CI triage smoke, acceptance runs)
    #: to the instructions that actually exhibit the defect.
    only: tuple = ()
    backends: tuple = BACKENDS
    max_paths_per_instruction: int = 64
    max_iterations: int = 200
    #: Run extra boundary witnesses per path (extension beyond the
    #: paper; see repro.difftest.boundary).
    boundary_witnesses: bool = False
    #: Hard fuel limit for each simulated machine execution; exceeding
    #: it is a DIVERGED outcome, not a hang.
    max_sim_steps: int = 20_000
    #: Wall-clock budget for the whole campaign (None = unbounded).
    deadline_seconds: float | None = None
    #: Per-cell wall-clock budget enforced at ``-j N`` by the pool's
    #: supervisor (``--cell-timeout``): a worker whose current cell
    #: outlives it is SIGKILLed, the cell is quarantined as
    #: ``BudgetExhausted`` and the rest of its shard re-queued.  None
    #: derives a default from ``deadline_seconds`` (a quarter, floored
    #: at 1s); with neither set, supervision is off.  ``-j 1`` runs
    #: cells in process and relies on cooperative deadline checks.
    cell_timeout_seconds: float | None = None
    #: Worker resource limits, applied via ``setrlimit`` in each forked
    #: child (``--worker-memory-mb`` -> RLIMIT_AS,
    #: ``--worker-cpu-seconds`` -> RLIMIT_CPU); breaches classify as
    #: ``WorkerResourceExceeded``, not a generic ``WorkerCrash``.
    worker_memory_mb: int | None = None
    worker_cpu_seconds: int | None = None
    #: Re-raise the first cell crash instead of quarantining (debugging).
    fail_fast: bool = False
    #: Active mutant ids from the semantic mutation registry
    #: (``campaign --mutant`` / ``repro mutate``; see docs/MUTATION.md).
    #: Part of the config so the mutated semantics cross the fork
    #: boundary with the config and reach every process: in-process
    #: shards, pool workers, quarantine retries, triage trials and
    #: emitted reproducers all activate exactly this tuple.
    mutants: tuple = ()
    #: Collect cache/solver instrumentation (``campaign --profile``).
    #: Profiling observes counters and wall-clock only; reports stay
    #: byte-identical with it on or off.
    profile: bool = False
    #: Stitched-corpus budget knobs (``campaign --stitch`` /
    #: ``repro stitch``; docs/STITCHING.md).  Part of the config so the
    #: corpus — a deterministic pure function of these four values — is
    #: re-derived identically by pool workers from the pickled config.
    stitch_fragments: int = 12
    stitch_max_methods: int = 24
    stitch_depth: int = 2
    stitch_paths_per_fragment: int = 8

    def reduced(self) -> "CampaignConfig":
        """The smaller-budget config used for the quarantine retry.

        Only the *budgets* shrink; every other field, the active
        mutants included, carries over: a quarantine retry must re-run
        the cell under the exact semantics the first attempt saw, or
        the retry would "fix" a seeded defect by accident (see
        tests/mutation/test_retry_semantics.py).
        """
        return replace(
            self,
            max_paths_per_instruction=max(
                1, int(self.max_paths_per_instruction * RETRY_SCALE)
            ),
            max_iterations=max(1, int(self.max_iterations * RETRY_SCALE)),
            max_sim_steps=max(256, int(self.max_sim_steps * RETRY_SCALE)),
        )


def explore_instruction(spec, config: CampaignConfig, deadline=None,
                        world: VMWorld | None = None) -> ExplorationResult:
    """Explore *spec* at *config*'s budgets in *world* (a private one
    when omitted)."""
    return ConcolicExplorer(
        spec,
        world=world,
        max_iterations=config.max_iterations,
        max_paths=config.max_paths_per_instruction,
        deadline=deadline,
    ).explore()


def test_instruction(
    spec,
    compiler_class,
    config: CampaignConfig | None = None,
    exploration: ExplorationResult | None = None,
    deadline=None,
    world: VMWorld | None = None,
) -> CellResult:
    """Explore (or reuse an exploration) and differentially test.

    Exploration and every backend run in *world*, the instruction's VM
    state (a fresh one when omitted).  The world is built before the
    clock starts: ``test_seconds`` charges only this compiler's work.

    Runs under ``config.mutants`` (reference-counted, so the
    activation :func:`execute_cell` already holds nests).
    """
    from repro.mutation import activated  # local: see execute_cell

    config = config or CampaignConfig()
    with activated(config.mutants):
        return _test_instruction_activated(
            spec, compiler_class, config, exploration, deadline, world
        )


def _test_instruction_activated(spec, compiler_class, config, exploration,
                                deadline, world) -> CellResult:
    if world is None:
        with guard("harness"):
            world = VMWorld(spec)
    if exploration is None:
        exploration = explore_instruction(spec, config, deadline, world)
    curated = curate_paths(exploration.paths)
    result = CellResult(
        instruction=spec.name,
        kind=spec.kind,
        compiler=compiler_class.name,
        interpreter_paths=exploration.path_count,
        curated_paths=len(curated),
        explore_seconds=exploration.elapsed_seconds,
        exploration_complete=not exploration.budget_exhausted,
    )
    start = time.perf_counter()
    with guard("harness"):
        tester = DifferentialTester(
            spec, compiler_class,
            [backend_class() for backend_class in config.backends],
            max_sim_steps=config.max_sim_steps,
            deadline=deadline,
            world=world,
        )
    runs = []  # run_path's per-backend verdicts, in path order
    for path in curated:
        if deadline is not None:
            deadline.check(f"testing {spec.name}")
        runs.append(tester.run_path(path))
        if config.boundary_witnesses:
            from repro.difftest.boundary import boundary_models

            for model in boundary_models(path, tester.context):
                runs.append(tester.run_path(path, model))
    # Every comparison of the first backend, then every one of the next.
    result.comparisons = [
        comparison for column in zip(*runs) for comparison in column
    ]
    result.test_seconds = time.perf_counter() - start
    perf.observe("test", result.test_seconds)
    perf.incr("test.cells")
    perf.incr("test.comparisons", len(result.comparisons))
    return result


def run_from_data(instruction: str, compiler: str, backend: str, model,
                  constraints=(), *, max_sim_steps: int = 20_000):
    """One differential run rebuilt from plain data, in a fresh world.

    The cell is named by instruction, compiler and backend; *model* is
    a :class:`~repro.concolic.solver.Model` or its ``to_dict()``
    payload, and *constraints* the path condition it satisfies.
    Triage trials, emitted reproducers and generated test modules all
    re-run a path through here.  Returns the
    :class:`~repro.difftest.harness.ComparisonResult`.
    """
    spec = spec_named(instruction)
    tester = DifferentialTester(
        spec, COMPILERS_BY_NAME[compiler], [BACKENDS_BY_NAME[backend]()],
        max_sim_steps=max_sim_steps,
    )
    if isinstance(model, dict):
        model = Model.from_dict(tester.context, model)
    path = PathResult(instruction=spec.name, kind=spec.kind,
                      constraints=list(constraints), model=model,
                      exit=None, output=None)
    return tester.run_path(path)[0]


def spec_named(name: str):
    """Instruction name -> spec: the name's prefix decides the kind.

    ``stitch:`` names encode operand bytes and round-trip.  A ``seq:``
    name drops operand bytes (``longJump``, ``pushIntegerByte``), so
    the planned sequence corpus is looked up before the name is
    re-encoded.  An unknown name raises
    :class:`~repro.errors.BytecodeError` (a ``KeyError`` for an unknown
    primitive).
    """
    from repro.concolic.sequences import (
        generate_pair_sequences,
        interesting_sequences,
        sequence_spec,
    )
    from repro.stitch.spec import stitched_spec_named

    if name.startswith("stitch:"):
        return stitched_spec_named(name)
    if name.startswith("seq:"):
        for spec in interesting_sequences() + generate_pair_sequences():
            if spec.name == name:
                return spec
        return sequence_spec(*name[len("seq:"):].split("+"))
    if name.startswith("primitive"):
        return NativeMethodSpec(primitive_named(name))
    return BytecodeInstructionSpec(bytecode_named(name))


def _scope_specs(specs: list, config: CampaignConfig) -> list:
    """Apply the ``only`` instruction-name filter, preserving order."""
    if not config.only:
        return specs
    wanted = set(config.only)
    return [spec for spec in specs if spec.name in wanted]


def bytecode_specs(config: CampaignConfig) -> list:
    bytecodes = testable_bytecodes()
    if config.max_bytecodes is not None:
        bytecodes = bytecodes[: config.max_bytecodes]
    return _scope_specs(
        [BytecodeInstructionSpec(bytecode) for bytecode in bytecodes], config
    )


def native_specs(config: CampaignConfig) -> list:
    natives = testable_primitives()
    if config.max_natives is not None:
        natives = natives[: config.max_natives]
    return _scope_specs(
        [NativeMethodSpec(native) for native in natives], config
    )


# ======================================================================
# the canonical campaign plan


@dataclass(frozen=True)
class ExperimentRow:
    """One report row of the campaign: a compiler over a spec list.

    The row sequence returned by :func:`campaign_rows` /
    :func:`sequence_campaign_rows` is the *canonical plan*: the engine
    shards it, merges cell records back into exactly this order, and
    ``--resume`` replays against it.  Determinism across ``-j`` values
    holds because every mode reports through the same plan.
    """

    experiment: str  # journal namespace: "main" | "sequences" | "stitched"
    label: str  # report row label
    compiler_class: type
    specs: tuple


def campaign_rows(config: CampaignConfig) -> list[ExperimentRow]:
    """The four main-experiment rows, in the paper's Table 2 order."""
    rows = [
        ExperimentRow("main", "Native Methods (primitives)",
                      NativeMethodCompiler, tuple(native_specs(config)))
    ]
    bytecodes = tuple(bytecode_specs(config))
    for compiler_class in BYTECODE_COMPILERS:
        rows.append(
            ExperimentRow("main", compiler_class.name, compiler_class,
                          bytecodes)
        )
    return rows


def sequence_campaign_rows(config: CampaignConfig) -> list[ExperimentRow]:
    """The extension experiment's rows: the sequence corpus per
    byte-code compiler."""
    from repro.concolic.sequences import (
        generate_pair_sequences,
        interesting_sequences,
    )

    specs = tuple(_scope_specs(
        interesting_sequences() + generate_pair_sequences(), config
    ))
    return [
        ExperimentRow("sequences", f"{compiler_class.name} (sequences)",
                      compiler_class, specs)
        for compiler_class in BYTECODE_COMPILERS
    ]


def stitched_campaign_rows(config: CampaignConfig) -> list[ExperimentRow]:
    """The template-stitched corpus per byte-code compiler.

    The corpus is derived (memoized per budget, mutants suspended) by
    :func:`repro.stitch.corpus.build_stitched_corpus` — a deterministic
    pure function of the config's ``stitch_*`` knobs, so every run of
    the same config resolves identical rows.
    """
    from repro.stitch.corpus import StitchBudget, build_stitched_corpus

    specs, _report = build_stitched_corpus(StitchBudget.from_config(config))
    specs = tuple(_scope_specs(list(specs), config))
    return [
        ExperimentRow("stitched", f"{compiler_class.name} (stitched)",
                      compiler_class, specs)
        for compiler_class in BYTECODE_COMPILERS
    ]


# ======================================================================
# the fault-tolerant campaign engine


class CampaignResult(list):
    """The campaign reports plus the resilience layer's bookkeeping.

    A list subclass so every existing consumer of
    ``list[CompilerReport]`` (tables, figures, benchmarks) keeps
    working; the extra attributes carry the quarantine, resume and
    budget state of the run.
    """

    def __init__(self, reports=()):
        super().__init__(reports)
        self.quarantine = Quarantine()
        self.budget_exhausted = False
        self.resumed_cells = 0
        self.journal_path = None
        #: Worker processes used (1 = shards ran in process).
        self.workers = 1
        #: Exploration-cache effectiveness over the whole run.
        self.cache_hits = 0
        self.cache_misses = 0
        #: Cells served from the persistent cross-run result store
        #: (docs/INCREMENTAL.md), and the store's
        #: :class:`repro.incremental.CacheStats` (None = cache off).
        self.cached_cells = 0
        self.cache = None
        #: Perf snapshot dict when the run was profiled, else None.
        self.perf = None
        #: :class:`repro.triage.TriageReport` when the run was triaged
        #: (``campaign --triage``), else None.
        self.triage = None
        #: Supervision bookkeeping (worker pool): cells preempted
        #: at --cell-timeout and replacement workers spawned.
        self.preempted_cells = 0
        self.respawned_workers = 0
        #: Unexpected (non-pipe-death) I/O errors contained on worker
        #: pipes; see ``pool.unexpected_io_errors``.
        self.unexpected_io_errors = 0
        #: :class:`repro.robustness.checkpoint.JournalReplay` stats of
        #: the --resume replay, else None (no journal / fresh run).
        self.journal_replay = None


def execute_cell(config: CampaignConfig, deadline, spec, compiler_class,
                 explorations: ExplorationCache) -> CellResult:
    """Run one cell with crash isolation: the executed cell, or, after
    the reduced-budget retry also failed, its quarantined
    :meth:`CellResult.crashed` stand-in.

    This is the cell executor of :func:`repro.parallel.worker.serve_shard`,
    which runs in the main process at ``-j 1`` and in each worker
    process at ``-j N``.  A campaign-scoped
    :class:`BudgetExhausted` (the shared deadline expiring) always
    propagates — stopping the run is the caller's decision.

    ``config.mutants`` is activated around the whole cell — both the
    full-budget attempt and the reduced-budget quarantine retry — so
    every execution path sees the same (possibly mutated) semantics
    regardless of which process called in.  Activation is
    reference-counted (:mod:`repro.mutation.registry`), so a caller
    that already holds the mutants active (a pool worker forked under
    them, a triage pass) nests safely.
    """
    # Local import: repro.mutation's operator modules patch the same
    # interpreter/jit classes this module imports, and its recall
    # driver imports this module — a top-level import would cycle.
    from repro.mutation import activated

    with activated(config.mutants):
        return _execute_cell_attempts(config, deadline, spec,
                                      compiler_class, explorations)


def _execute_cell_attempts(config: CampaignConfig, deadline, spec,
                           compiler_class,
                           explorations: ExplorationCache) -> CellResult:
    error = None
    for attempt, cfg in enumerate((config, config.reduced())):
        deadline.check(f"cell {spec.name}/{compiler_class.name}")
        try:
            with guard("harness"):
                # Only first attempts explore and test in the shard's
                # world; a retry builds its own, so a cell that crashed
                # mid-path leaves nothing behind for the next cell.
                world = (explorations.world(spec) if attempt == 0
                         else VMWorld(spec))
            exploration = explorations.get(spec)
            if exploration is None:
                with guard("explorer"):
                    exploration = explore_instruction(spec, cfg, deadline,
                                                      world)
                if attempt == 0:
                    # Likewise only full-budget explorations enter the
                    # shared cache; retries keep their reduced paths
                    # private.
                    explorations.put(spec, exploration)
            result = test_instruction(
                spec, compiler_class, cfg, exploration, deadline, world
            )
            result.retries = attempt
            return result
        except BudgetExhausted as exc:
            if exc.scope == "campaign":
                raise
            error = exc
        except CampaignError as exc:
            error = exc
        except Exception as exc:  # pragma: no cover - guards net these
            error = classify_crash(exc, "harness")
        if config.fail_fast:
            raise error
    return CellResult.crashed(spec, compiler_class, config, error)


def _run_rows(config: CampaignConfig, rows: list[ExperimentRow], *,
              journal_path, resume: bool, jobs: int,
              triage=None, cache_dir=None) -> CampaignResult:
    """Run a canonical plan (profiled when ``config.profile``), then
    triage it when *triage* is set."""
    if config.profile:
        perf.enable()
    try:
        result = _run_shards(config, rows, journal_path, resume, jobs,
                             cache_dir)
    finally:
        if config.profile:
            perf.disable()
    if triage is not None:
        # Triage always runs in the parent process, over the serialized
        # cell records every -j produces, so confirmation/shrinking are
        # byte-identical across -j values.
        from repro.triage import run_triage

        result.triage = run_triage(
            result, config, triage, journal_path=journal_path, resume=resume
        )
    return result


def _run_shards(config: CampaignConfig, rows: list[ExperimentRow],
                journal_path, resume: bool, jobs: int,
                cache_dir) -> CampaignResult:
    """The engine: one set-up, one shard function, one finish.

    The set-up replays the journal (``resume``) or starts it afresh,
    serves every cell the persistent result store already holds
    (*cache_dir*; each plan cell is fingerprinted by
    :mod:`repro.incremental.fingerprint`), and groups what is left
    into per-instruction shards.  Every shard then runs through
    :func:`repro.parallel.worker.serve_shard`: here in process at
    ``-j 1``, in forked pool workers at ``-j N`` — a fully-warm or
    fully-resumed campaign therefore forks no worker.  The finish
    merges the cell records into reports in plan order, so reports are
    byte-identical across ``-j``, ``--resume`` and cache state; the
    records themselves are dropped on return.
    """
    from repro.parallel.merge import merge_records
    from repro.parallel.shard import plan_cells, plan_shards, resolve_jobs

    jobs = resolve_jobs(jobs)
    result = CampaignResult()
    result.journal_path = journal_path
    result.workers = jobs
    store = None
    fingerprints: dict = {}
    served: dict = {}
    if cache_dir:
        from repro.incremental import plan_fingerprints
        from repro.incremental.store import campaign_store

        store = campaign_store(cache_dir)
        with perf.timer("fingerprint"):
            fingerprints = plan_fingerprints(rows, config)
        for key, fingerprint in fingerprints.items():
            cached = store.get(fingerprint, key)
            if cached is not None:
                served[key] = cached
    journal = CampaignJournal(journal_path) if journal_path else None
    if journal is not None and not resume:
        # A fresh (non-resuming) run must not append to stale state.
        journal.path.unlink(missing_ok=True)
    completed = journal.load() if (journal is not None and resume) else {}
    # Triage records share the journal under ``triage::`` keys; the
    # planned-key filter keeps them out of cell resume.
    planned = {cell.key for cell in plan_cells(rows)}
    records = {key: rec for key, rec in completed.items() if key in planned}
    result.resumed_cells = len(records)
    for key, record in served.items():
        if key not in records:
            records[key] = record
            result.cached_cells += 1
    shards = plan_shards(rows, records)
    deadline = Deadline(config.deadline_seconds)
    try:
        if jobs == 1:
            _serve_in_process(config, rows, shards, records, result,
                              deadline, journal, store, fingerprints)
        else:
            from repro.parallel.pool import run_parallel_rows

            run_parallel_rows(config, rows, shards, records, result,
                              jobs=jobs, deadline=deadline, journal=journal,
                              store=store, fingerprints=fingerprints,
                              cache_dir=cache_dir)
    finally:
        if journal is not None:
            journal.close()
    with perf.timer("merge"):
        merge_records(rows, records, result)
    if journal is not None and resume:
        result.journal_replay = journal.replay
    if store is not None:
        result.cache = store.stats
    if config.profile:
        from repro.concolic.solver.incremental import record_solver_gauges

        # Store lookups and in-process shards count in this process;
        # fold them into the workers' merged snapshot.
        record_solver_gauges()
        result.perf = perf.merge_snapshots(
            [result.perf or {}, perf.snapshot()]
        )
    return result


def _serve_in_process(config, rows, shards, records: dict,
                      result: CampaignResult, deadline, journal, store,
                      fingerprints) -> None:
    """``-j 1``: every shard in this process, the parent's message
    handler standing in for a worker's pipe.  The shard writes through
    the parent's own store, which counts its puts itself; a crash under
    ``fail_fast`` propagates unchanged."""
    from repro.parallel.worker import serve_shard

    def receive(message) -> None:
        if message[0] == "cell":
            records[message[1]] = message[2]
        elif message[0] == "shard_done":
            result.cache_hits += message[1]
            result.cache_misses += message[2]

    try:
        for shard in shards:
            serve_shard(receive, rows, config, deadline, journal, store,
                        shard, fingerprints)
    except BudgetExhausted as exc:
        if exc.scope != "campaign":
            raise
        # Campaign deadline expired: stop cleanly; the journal allows
        # this run to be resumed.
        result.budget_exhausted = True


def run_campaign(config: CampaignConfig | None = None,
                 rows: list[ExperimentRow] | None = None, *,
                 journal_path=None, resume: bool = False,
                 jobs: int = 1, triage=None,
                 cache_dir=None) -> CampaignResult:
    """Run a campaign plan; by default the four-experiment evaluation.

    *rows* is the canonical plan, :func:`campaign_rows` (paper Table
    2: native methods first, then the three byte-code compilers) when
    omitted; pass :func:`sequence_campaign_rows` or
    :func:`stitched_campaign_rows` for the extension corpora.  With
    ``journal_path`` set, completed cells are checkpointed to JSONL;
    ``resume=True`` replays them instead of re-running.  ``jobs > 1``
    shards the cell grid across that many worker processes
    (``jobs=0`` = one per CPU); aggregate reports are byte-identical
    across ``jobs``.  ``triage`` takes a
    :class:`repro.triage.TriageConfig` to confirm/shrink/dedup the
    run's divergences and emit standalone reproducers
    (``result.triage`` carries the :class:`~repro.triage.TriageReport`).
    ``cache_dir`` attaches the persistent cross-run result store
    (docs/INCREMENTAL.md): semantically-unchanged cells are served from
    it instead of re-run, and ``result.cache`` carries the
    :class:`~repro.incremental.CacheStats`.
    """
    config = config or CampaignConfig()
    if rows is None:
        rows = campaign_rows(config)
    return _run_rows(config, rows, journal_path=journal_path,
                     resume=resume, jobs=jobs, triage=triage,
                     cache_dir=cache_dir)


def _accumulate(report: CompilerReport, result: CellResult) -> None:
    report.tested_instructions += 1
    report.interpreter_paths += result.interpreter_paths
    report.curated_paths += result.curated_paths
    report.differing_paths += result.differing_paths
    report.results.append(result)


def all_comparisons(reports) -> list[ComparisonResult]:
    return [
        comparison
        for report in reports
        for result in report.results
        for comparison in result.comparisons
    ]
