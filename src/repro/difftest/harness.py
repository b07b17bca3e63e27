"""The differential execution harness.

A :class:`DifferentialTester` checks one compiler on every back-end
against the interpreter.  It owns only what differs per compiler and
back-end: the compiler, a trampoline table (with the runtime service
routines registered), and a code cache and CPU simulator per back-end.
The VM state it tests in (object memory, symbol table, synthesized
method, solver context) is the instruction's
:class:`~repro.concolic.explorer.VMWorld`, in which the campaign
explores the instruction and then tests every compiler cell of its
shard.

For each concolic path the harness (paper Fig. 1, step 4):

1. takes the interpreter's exit and output that exploration recorded
   for the path (``PathResult.exit`` / ``PathResult.output``) as the
   reference.  A path with no recorded output, or a run with an
   overriding model, is interpreted once in the world instead, which
   yields the same ``(ExitResult, OutputSnapshot)`` pair;
2. records an expected failure (invalid frame, invalid memory) without
   compiling anything;
3. rewinds the world's heap to its base state, materializes the path's
   model and compiles the instruction once, to one lowered micro-ISA
   program (input operand stack compiled in as pushed literals, per
   paper Section 4.2);
4. per back-end, encodes that program, sets up the machine frame per
   the compiler's convention (receiver/temps in the frame record for
   byte-codes, receiver+arguments in registers for native methods),
   runs the simulator from the materialized input state and compares
   exits, values and heap effects with the reference.

Exploration ran in the same world from the same base state, and
allocation is deterministic, so inputs land at the addresses they had
during exploration, fresh results at identical addresses, and raw oop
comparison is exact.  (A private world, as triage trials and
reproducers build, bootstraps to the same base state.)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro import perf
from repro.concolic.explorer import PathResult, VMWorld
from repro.concolic.snapshots import OutputSnapshot
from repro.concolic.values import oop_concrete
from repro.errors import (
    CompilerError,
    NotImplementedInCompiler,
    SimulationError,
)
from repro.interpreter.exits import ExitCondition, ExitResult
from repro.jit.compiler import (
    CompilationUnit,
    NATIVE_FAILURE_MARKER,
    pc_marker,
)
from repro.jit.machine.codecache import CodeCache
from repro.jit.machine.simulator import (
    END_SENTINEL,
    MachineSimulator,
    OutcomeKind,
    STACK_TOP,
    TrampolineTable,
)
from repro.memory.layout import WORD_SIZE
from repro.robustness.errors import BudgetExhausted, guard
from repro.robustness.faults import maybe_inject


class Status(enum.Enum):
    """Verdict of one path's differential comparison."""

    MATCH = "match"
    DIFFERENCE = "difference"
    #: Invalid frame / invalid memory paths: expected failures the test
    #: runner does not compare (paper Section 3.4).
    EXPECTED_FAILURE = "expected_failure"
    #: Paths our prototype cannot run (compile limitations) — the
    #: paper's curation step.
    CURATED = "curated"
    #: The pipeline itself crashed on this cell (classified by the
    #: robustness layer); not a behavioural difference.
    CRASHED = "crashed"


def exit_pair(interpreter_condition: str | None,
              outcome_kind: str | None) -> str:
    """The interpreter-exit × machine-outcome pair, e.g. ``success x -``.

    ``-`` stands for "no exit recorded on that side": the machine side
    is ``-`` when the pipeline stopped before a machine outcome existed
    (compile refusal, simulation error).
    """
    return f"{interpreter_condition or '-'} x {outcome_kind or '-'}"


def operand_shape_of(constraints) -> str:
    """Coarse operand-type signature of a path condition (int vs
    float); defect classification keys optimisation differences on it."""
    rendered = [str(constraint) for constraint in constraints]
    if any(text.startswith("is_float") for text in rendered):
        return "float"
    if any(text.startswith("is_small_int") for text in rendered):
        return "int"
    return "generic"


def _value(member: enum.Enum | None) -> str | None:
    return None if member is None else member.value


def _count_isa_agreement(results) -> None:
    """Count a path that ran on several back-ends as agreeing when all
    reached the same verdict (both counters at 0 too, for --profile)."""
    ran = len(results) > 1
    agree = ran and len({
        (r.status, r.difference_kind, r.detail, r.outcome_kind)
        for r in results
    }) == 1
    perf.incr("test.isa_agree", int(agree))
    perf.incr("test.isa_disagree", int(ran and not agree))


@dataclass
class ComparisonResult:
    """The verdict of one path on one compiler/backend.

    It holds exactly what its record carries (:meth:`to_record`):
    :meth:`DifferentialTester.run_path` fills it once from the live
    path, exit and outcome, and :meth:`from_record` reads it back, so a
    verdict from a worker pipe or the journal is the verdict itself.
    """

    instruction: str
    kind: str  # "bytecode" | "native"
    compiler: str
    backend: str
    status: Status
    #: What differed: exit_mismatch | output_mismatch |
    #: heap_effect_mismatch | machine_fault | compile_missing |
    #: simulation_error
    difference_kind: str | None = None
    detail: str = ""
    #: The facts :func:`repro.difftest.defects.classify` dispatches on:
    #: the interpreter's exit condition, the compiled run's outcome
    #: kind (None where that side did not run) and the path's
    #: :func:`operand_shape_of`.
    interpreter_condition: ExitCondition | None = None
    outcome_kind: OutcomeKind | None = None
    operand_shape: str = "unknown"
    #: The path condition as ``((term, taken), ...)``, which lets triage
    #: relocate the path in a re-exploration of the instruction.  ``()``
    #: is the empty path condition; None means no signature was
    #: recorded.
    path_signature: tuple | None = None

    @property
    def is_difference(self) -> bool:
        return self.status == Status.DIFFERENCE

    @property
    def exit_pair(self) -> str:
        return exit_pair(_value(self.interpreter_condition),
                         _value(self.outcome_kind))

    def describe(self) -> str:
        parts = [
            f"{self.instruction} [{self.compiler}/{self.backend}]",
            self.status.value,
        ]
        if self.difference_kind:
            parts.append(self.difference_kind)
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)

    # ------------------------------------------------------------------
    # journal / worker-message serialization

    def to_record(self) -> dict:
        """The journaled verdict; the cell record carries the identity.
        A record without ``path_signature`` recorded none."""
        record = {
            "backend": self.backend,
            "status": self.status.value,
            "difference_kind": self.difference_kind,
            "detail": self.detail,
            "interpreter_condition": _value(self.interpreter_condition),
            "outcome_kind": _value(self.outcome_kind),
            "operand_shape": self.operand_shape,
        }
        if self.path_signature is not None:
            record["path_signature"] = [
                [term, taken] for term, taken in self.path_signature
            ]
        return record

    @classmethod
    def from_record(cls, record: dict, *, instruction: str, kind: str,
                    compiler: str) -> "ComparisonResult":
        condition = record.get("interpreter_condition")
        outcome_kind = record.get("outcome_kind")
        signature = record.get("path_signature")
        return cls(
            instruction=instruction,
            kind=kind,
            compiler=compiler,
            backend=record["backend"],
            status=Status(record["status"]),
            difference_kind=record.get("difference_kind"),
            detail=record.get("detail", ""),
            interpreter_condition=(
                None if condition is None else ExitCondition(condition)
            ),
            outcome_kind=(
                None if outcome_kind is None else OutcomeKind(outcome_kind)
            ),
            operand_shape=record.get("operand_shape", "unknown"),
            path_signature=(
                None if signature is None
                else tuple((term, bool(taken)) for term, taken in signature)
            ),
        )


#: Machine frame record: receiver + 16 temps above the operand stack.
FRAME_WORDS = 1 + 16


class DifferentialTester:
    """Runs interpreter-vs-compiled comparisons for one instruction and
    compiler on each of *backends*."""

    def __init__(self, spec, compiler_class, backends, *,
                 max_sim_steps: int = 20_000, deadline=None,
                 world=None) -> None:
        self.spec = spec
        self.max_sim_steps = max_sim_steps
        self.deadline = deadline
        #: The instruction's VM state: the shard's, or a private one.
        self.world = world if world is not None else VMWorld(spec)
        self.memory = self.world.memory
        self.method = self.world.method
        self.context = self.world.context
        self.trampolines = TrampolineTable()
        self._register_services()
        self.compiler = compiler_class(self.memory, self.trampolines,
                                       self.world.symbols)
        #: ``(backend, simulator)`` pairs, each on its own code cache.
        self.machines = [
            (backend, MachineSimulator(self.memory.heap, CodeCache(),
                                       self.trampolines))
            for backend in backends
        ]

    # ------------------------------------------------------------------
    # runtime service routines (Cogit's ceXxx helpers)

    def _register_services(self) -> None:
        memory = self.memory

        def allocate_float(sim) -> None:
            sim.set("R0", memory.float_object_of(sim.fget("F0")))

        def new_fixed_instance(sim) -> None:
            class_index = sim.get("R6")
            cls = memory.class_table.at(class_index)
            if cls.is_variable:
                sim.set("R0", 0)
                return
            sim.set("R0", memory.instantiate(cls))

        def new_variable_instance(sim) -> None:
            class_index = sim.get("R6")
            size = sim.get("R7")
            cls = memory.class_table.at(class_index)
            if not cls.is_variable:
                sim.set("R0", 0)
                return
            sim.set("R0", memory.instantiate(cls, size))

        def make_point(sim) -> None:
            point_class = memory.class_table.named("Point")
            point = memory.instantiate(point_class)
            memory.store_pointer(0, point, sim.get("R0") & 0xFFFFFFFF)
            memory.store_pointer(1, point, sim.get("R1") & 0xFFFFFFFF)
            sim.set("R0", point)

        self.trampolines.service("ceAllocateFloat", allocate_float)
        self.trampolines.service("ceNewFixedInstance", new_fixed_instance)
        self.trampolines.service("ceNewVariableInstance", new_variable_instance)
        self.trampolines.service("ceMakePoint", make_point)

    # ------------------------------------------------------------------

    def unit(self, input_stack=()) -> CompilationUnit:
        """This instruction's compilation unit, *input_stack* compiled
        in as pushed literals."""
        bytecode = getattr(self.spec, "bytecode", None)
        return CompilationUnit(
            method=self.method,
            bytecode=bytecode,
            # A byte-code's operand bytes follow it in the method.
            operands=(() if bytecode is None
                      else tuple(self.method.bytecodes[1:bytecode.size])),
            native=getattr(self.spec, "native", None),
            input_stack=tuple(input_stack),
            sequence=tuple(getattr(self.spec, "sequence", ())),
        )

    def run_path(self, path: PathResult, model=None) -> list[ComparisonResult]:
        """Differentially execute one concolic path on every back-end:
        one :class:`ComparisonResult` per back-end, in their order.

        The reference is the exit and output exploration recorded for
        the path.  ``model`` overrides the path's own input model
        (boundary-witness enrichment passes alternative solutions of
        the same path condition through here); such a run, and a path
        with no recorded output, interprets its reference in the world.
        """
        verdict = ComparisonResult(
            instruction=self.spec.name,
            kind=self.spec.kind,
            compiler=self.compiler.name,
            backend="",
            status=Status.MATCH,
            operand_shape=operand_shape_of(path.constraints),
            path_signature=tuple(
                (str(c.term), bool(c.taken)) for c in path.constraints
            ),
        )
        recorded = model is None and getattr(path, "output", None) is not None
        with guard("harness"):
            maybe_inject("harness", self.spec.name, self.compiler.name,
                         deadline=self.deadline)
        # Counted at 0 too, so --profile shows a harness that never
        # re-interpreted.
        perf.incr("test.interpretations", 0 if recorded else 1)

        # --- the interpreter reference ----------------------------------
        if recorded:
            interp_exit, output = path.exit, path.output
        else:
            frame, input_mark, inputs = self._materialize(
                path.model if model is None else model
            )
            interp_exit, output = self.world.interpret(frame, input_mark)
        verdict.interpreter_condition = interp_exit.condition

        # --- expected failures are recorded, not compared ---------------
        # Invalid-frame / invalid-memory exits feed the concolic engine
        # ("subsequent executions need extra elements") and are expected
        # failures in the test runner (paper Section 3.4).
        if self._expected_failure(interp_exit.condition):
            verdict.status = Status.EXPECTED_FAILURE
            return self._per_backend(verdict)
        if recorded:
            _frame, input_mark, inputs = self._materialize(path.model)
        receiver, input_stack, input_temps = inputs
        heap = self.memory.heap

        # --- compile once -----------------------------------------------
        heap.rewind(input_mark)  # undoes an interpreted reference
        try:
            with guard("compiler", expected=(CompilerError,)):
                maybe_inject("compile", self.spec.name, self.compiler.name,
                             deadline=self.deadline)
                lowered = self.compiler.compile(self.unit(input_stack))
        except NotImplementedInCompiler as error:
            verdict.status = Status.DIFFERENCE
            verdict.difference_kind = "compile_missing"
            verdict.detail = str(error)
            return self._per_backend(verdict)
        except CompilerError as error:
            verdict.status = Status.CURATED
            verdict.detail = str(error)
            return self._per_backend(verdict)

        # --- per back-end: encode, run, compare -------------------------
        results = self._per_backend(verdict)
        for result, (backend, simulator) in zip(results, self.machines):
            # Compilation must not touch the heap, but the previous
            # back-end's run did; re-assert the input state.
            heap.rewind(input_mark)
            with guard("compiler"):
                code = simulator.code_cache.install(lowered, backend)
            try:
                with guard("simulator", expected=(SimulationError,)):
                    maybe_inject("simulate", self.spec.name,
                                 self.compiler.name, deadline=self.deadline)
                    outcome, machine_stack = self._run_machine(
                        simulator, code.base_address, receiver, input_stack,
                        input_temps,
                    )
            except SimulationError as error:
                result.status = Status.DIFFERENCE
                result.difference_kind = "simulation_error"
                result.detail = str(error)
                continue
            if outcome.kind == OutcomeKind.BUDGET_EXHAUSTED:
                # The campaign deadline expired mid-simulation; this is a
                # budget event, not a behavioural verdict for this cell.
                raise BudgetExhausted(
                    f"simulation of {self.spec.name} stopped after "
                    f"{outcome.steps} steps: campaign deadline expired",
                    scope="campaign",
                )
            result.outcome_kind = outcome.kind
            self._compare(result, interp_exit, output, outcome, machine_stack,
                          self._read_machine_temps(simulator, len(input_temps)),
                          heap.writes_since(input_mark))
        _count_isa_agreement(results)
        return results

    def _per_backend(self, verdict: ComparisonResult) -> list:
        """*verdict* copied to each back-end."""
        return [replace(verdict, backend=backend.name)
                for backend, _simulator in self.machines]

    def _materialize(self, model):
        """The world's input state for *model*: the frame, a checkpoint
        of the input heap, and the concrete receiver, stack and temps
        as materialized, before either engine runs."""
        with guard("harness"):
            frame, input_mark = self.world.materialize(model)
        inputs = (
            oop_concrete(frame.receiver),
            [oop_concrete(value) for value in frame.stack],
            [oop_concrete(value) for value in frame.temps],
        )
        return frame, input_mark, inputs

    def _expected_failure(self, condition: ExitCondition) -> bool:
        if self.spec.kind == "native":
            return condition in (
                ExitCondition.INVALID_FRAME,
                ExitCondition.NEEDS_GARBAGE_COLLECTION,
            )
        return condition.is_expected_failure

    # ------------------------------------------------------------------

    def _run_machine(self, sim, entry: int, receiver: int, stack,
                     temps: list):
        sim.reset()
        # Build the frame record at the top of the machine stack.
        frame_base = STACK_TOP - FRAME_WORDS * WORD_SIZE
        sim.set("FP", frame_base)
        sim.set("SP", frame_base)
        sim.write_word(frame_base, receiver)
        for index in range(16):
            value = temps[index] if index < len(temps) else self.memory.nil_object
            sim.write_word(frame_base + WORD_SIZE * (1 + index), value)
        sim._push(END_SENTINEL)
        operand_base = sim.get("SP")
        if self.spec.kind == "native":
            # Native calling convention: receiver + args in registers.
            native = self.spec.native
            argc = native.argument_count
            # Receiver at stack depth argc, arguments above it.
            values = list(stack[-(argc + 1):]) if argc + 1 <= len(stack) else (
                [self.memory.nil_object] * (argc + 1 - len(stack)) + list(stack)
            )
            sim.set("R0", values[0] if values else self.memory.nil_object)
            for index, reg in enumerate(("R1", "R2", "R3", "R4")):
                if index + 1 < len(values):
                    sim.set(reg, values[index + 1])
        outcome = sim.run(entry, max_steps=self.max_sim_steps,
                          deadline=self.deadline)
        final_sp = sim.get("SP")
        count = max(0, (operand_base - final_sp) // WORD_SIZE)
        machine_stack = [
            sim.read_word(final_sp + offset * WORD_SIZE)
            for offset in range(count)
        ]
        machine_stack.reverse()  # bottom to top
        return outcome, machine_stack

    def _read_machine_temps(self, sim, count: int) -> list:
        frame_base = STACK_TOP - FRAME_WORDS * WORD_SIZE
        return [
            sim.read_word(frame_base + WORD_SIZE * (1 + index))
            for index in range(count)
        ]

    # ------------------------------------------------------------------

    def _compare(self, result, interp_exit: ExitResult,
                 output: OutputSnapshot, outcome, machine_stack,
                 machine_temps, machine_heap_writes) -> None:
        def differ(kind: str, detail: str) -> None:
            result.status = Status.DIFFERENCE
            result.difference_kind = kind
            result.detail = detail

        interp_stack = [value.concrete for value in output.stack]
        interp_temps = [
            None if value is None else value.concrete for value in output.temps
        ]
        interp_pc = output.pc
        interp_returned = (
            None if output.returned is None else output.returned.concrete
        )

        if outcome.kind == OutcomeKind.FAULT:
            differ("machine_fault", outcome.fault_reason or "fault")
            return
        if outcome.kind == OutcomeKind.DIVERGED:
            differ("machine_fault", f"compiled code {outcome.describe()}")
            return

        condition = interp_exit.condition
        if self.spec.kind == "native":
            if condition == ExitCondition.SUCCESS:
                if outcome.kind != OutcomeKind.RETURNED:
                    differ("exit_mismatch",
                           f"interpreter succeeded, machine {outcome.describe()}")
                    return
                expected = interp_stack[-1] if interp_stack else None
                if expected is not None and outcome.result & 0xFFFFFFFF != (
                    expected & 0xFFFFFFFF
                ):
                    differ("output_mismatch",
                           f"result {outcome.result:#x} != {expected:#x}")
                    return
            elif condition == ExitCondition.FAILURE:
                if not (
                    outcome.kind == OutcomeKind.STOPPED
                    and outcome.marker == NATIVE_FAILURE_MARKER
                ):
                    differ("exit_mismatch",
                           f"interpreter failed, machine {outcome.describe()}")
                    return
            elif condition == ExitCondition.INVALID_MEMORY_ACCESS:
                # Errors for native methods by definition (Section 3.4);
                # they indicate an unsafe native method.
                differ("exit_mismatch", "native method made an invalid access")
                return
            else:
                differ("exit_mismatch", f"unexpected native exit {condition}")
                return
        else:  # bytecode
            if condition == ExitCondition.SUCCESS:
                if outcome.kind != OutcomeKind.STOPPED:
                    differ("exit_mismatch",
                           f"interpreter succeeded, machine {outcome.describe()}")
                    return
                if outcome.marker != pc_marker(interp_pc):
                    differ("output_mismatch",
                           f"fell through at marker {outcome.marker}, "
                           f"interpreter pc {interp_pc}")
                    return
                if machine_stack != interp_stack:
                    differ("output_mismatch",
                           f"stacks differ: {machine_stack} != {interp_stack}")
                    return
                for index, interp_value in enumerate(interp_temps):
                    if interp_value is None:
                        continue
                    if machine_temps[index] != interp_value:
                        differ("output_mismatch", f"temp {index} differs")
                        return
            elif condition == ExitCondition.MESSAGE_SEND:
                expected = f"send:{interp_exit.selector}/{interp_exit.argument_count}"
                if outcome.kind != OutcomeKind.TRAMPOLINE:
                    differ("exit_mismatch",
                           f"interpreter sends {expected}, machine "
                           f"{outcome.describe()}")
                    return
                if outcome.trampoline != expected:
                    differ("exit_mismatch",
                           f"trampoline {outcome.trampoline} != {expected}")
                    return
                if machine_stack != interp_stack:
                    differ("output_mismatch", "send operands differ")
                    return
            elif condition == ExitCondition.METHOD_RETURN:
                if outcome.kind != OutcomeKind.RETURNED:
                    differ("exit_mismatch",
                           f"interpreter returns, machine {outcome.describe()}")
                    return
                if interp_returned is not None and (
                    outcome.result & 0xFFFFFFFF
                ) != (interp_returned & 0xFFFFFFFF):
                    differ("output_mismatch", "returned values differ")
                    return
            else:
                differ("exit_mismatch", f"unexpected bytecode exit {condition}")
                return

        if output.heap_writes != machine_heap_writes:
            differ(
                "heap_effect_mismatch",
                f"{len(output.heap_writes)} interpreter writes vs "
                f"{len(machine_heap_writes)} machine writes",
            )
