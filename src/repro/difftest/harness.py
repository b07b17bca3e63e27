"""The differential execution harness.

A :class:`DifferentialTester` checks one compiler on one back-end
against the interpreter.  It owns only what differs per compiler and
back-end: a code cache, a trampoline table (with the runtime service
routines registered), a CPU simulator and the compiler.  The VM state
it tests in (object memory, symbol table, synthesized method, solver
context) is the instruction's :class:`~repro.concolic.explorer.VMWorld`,
in which the campaign explores the instruction and then tests every
compiler cell of its shard.

For each concolic path the harness (paper Fig. 1, step 4):

1. takes the interpreter's exit and output that exploration recorded
   for the path (``PathResult.exit`` / ``PathResult.output``) as the
   reference.  A path with no recorded output, or a run with an
   overriding model, is interpreted once in the world instead, which
   yields the same ``(ExitResult, OutputSnapshot)`` pair;
2. records an expected failure (invalid frame, invalid memory) without
   compiling anything;
3. rewinds the world's heap to its base state, materializes the path's
   model, compiles the instruction (input operand stack compiled in as
   pushed literals, per paper Section 4.2), sets up the machine frame
   per the compiler's convention (receiver/temps in the frame record
   for byte-codes, receiver+arguments in registers for native methods)
   and runs the simulator from the materialized input state;
4. compares exits, values and heap effects with the reference.

Exploration ran in the same world from the same base state, and
allocation is deterministic, so inputs land at the addresses they had
during exploration, fresh results at identical addresses, and raw oop
comparison is exact.  (A private world, as triage trials and
reproducers build, bootstraps to the same base state.)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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
    MachineOutcome,
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


@dataclass
class ComparisonResult:
    """The outcome of comparing one path on one compiler/backend."""

    instruction: str
    kind: str  # "bytecode" | "native"
    compiler: str
    backend: str
    status: Status
    #: What differed: exit_mismatch | output_mismatch |
    #: heap_effect_mismatch | machine_fault | compile_missing |
    #: simulation_error
    difference_kind: str | None = None
    interpreter_exit: ExitResult | None = None
    machine_outcome: MachineOutcome | None = None
    detail: str = ""
    path: PathResult | None = None
    #: Operand shape replayed from a journal/worker record when the
    #: live ``path`` is gone; read via :meth:`operand_shape`.
    _operand_shape: str | None = None
    #: Path-constraint signature replayed from a record when the live
    #: ``path`` is gone; read via :meth:`path_signature`.
    _path_signature: tuple | None = None

    @property
    def is_difference(self) -> bool:
        return self.status == Status.DIFFERENCE

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

    def operand_shape(self) -> str:
        """Coarse operand-type signature of the path (int vs float).

        Survives serialization: computed from the live path when we
        have one, replayed from the record otherwise (defect
        classification keys optimisation differences on it)."""
        if self.path is None:
            return self._operand_shape or "unknown"
        has_float = any(
            str(c).startswith("is_float") for c in self.path.constraints
        )
        if has_float:
            return "float"
        has_int = any(
            str(c).startswith("is_small_int") for c in self.path.constraints
        )
        if has_int:
            return "int"
        return "generic"

    def path_signature(self) -> tuple:
        """The path's constraint-key signature: ``((term, taken), ...)``.

        Matches :attr:`repro.concolic.explorer.PathResult.signature`, so
        a triage pass in another process (or a later ``--resume`` run)
        can re-explore the instruction and locate this exact path again.
        Empty when neither a live path nor a replayed record carries one.
        """
        if self.path is not None:
            return tuple(
                (str(c.term), bool(c.taken)) for c in self.path.constraints
            )
        return self._path_signature or ()

    def to_record(self) -> dict:
        """The journaled verdict: everything the aggregate reports —
        including defect classification — need, nothing process-local
        (no live paths, heaps or simulators).  The exit condition,
        outcome kind and operand shape are exactly the facts
        ``repro.difftest.defects.classify`` dispatches on; dropping
        them would silently demote differences to *unclassified* after
        a worker-pipe or journal round-trip.  The path signature is the
        triage candidate payload: it lets the parent process relocate
        the failing path without shipping live heaps over the pipe."""
        return {
            "backend": self.backend,
            "status": self.status.value,
            "difference_kind": self.difference_kind,
            "detail": self.detail,
            "interpreter_condition": (
                None if self.interpreter_exit is None
                else self.interpreter_exit.condition.value
            ),
            "outcome_kind": (
                None if self.machine_outcome is None
                else self.machine_outcome.kind.value
            ),
            "operand_shape": self.operand_shape(),
            "path_signature": [
                [term, taken] for term, taken in self.path_signature()
            ],
        }

    @classmethod
    def from_record(cls, record: dict, *, instruction: str, kind: str,
                    compiler: str) -> "ComparisonResult":
        condition = record.get("interpreter_condition")
        outcome_kind = record.get("outcome_kind")
        return cls(
            instruction=instruction,
            kind=kind,
            compiler=compiler,
            backend=record["backend"],
            status=Status(record["status"]),
            difference_kind=record.get("difference_kind"),
            detail=record.get("detail", ""),
            interpreter_exit=(
                None if condition is None
                else ExitResult(condition=ExitCondition(condition))
            ),
            machine_outcome=(
                None if outcome_kind is None
                else MachineOutcome(kind=OutcomeKind(outcome_kind))
            ),
            _operand_shape=record.get("operand_shape"),
            _path_signature=tuple(
                (term, bool(taken))
                for term, taken in record.get("path_signature") or ()
            ) or None,
        )


#: Machine frame record: receiver + 16 temps above the operand stack.
FRAME_WORDS = 1 + 16


class DifferentialTester:
    """Runs interpreter-vs-compiled comparisons for one instruction."""

    def __init__(self, spec, backend, compiler_class, *,
                 max_sim_steps: int = 20_000, deadline=None,
                 world=None) -> None:
        self.spec = spec
        self.backend = backend
        self.max_sim_steps = max_sim_steps
        self.deadline = deadline
        #: The instruction's VM state: the shard's, or a private one.
        self.world = world if world is not None else VMWorld(spec)
        self.memory = self.world.memory
        self.symbols = self.world.symbols
        self.method = self.world.method
        self.context = self.world.context
        self.code_cache = CodeCache()
        self.trampolines = TrampolineTable()
        self._register_services()
        self.simulator = MachineSimulator(
            self.memory.heap, self.code_cache, self.trampolines
        )
        self.compiler = compiler_class(
            self.memory, self.trampolines, self.code_cache, backend, self.symbols
        )

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

    def run_path(self, path: PathResult, model=None) -> ComparisonResult:
        """Differentially execute one concolic path.

        The reference is the exit and output exploration recorded for
        the path.  ``model`` overrides the path's own input model
        (boundary-witness enrichment passes alternative solutions of
        the same path condition through here); such a run, and a path
        with no recorded output, interprets its reference in the world.
        """
        result = ComparisonResult(
            instruction=self.spec.name,
            kind=self.spec.kind,
            compiler=self.compiler.name,
            backend=self.backend.name,
            status=Status.MATCH,
            path=path,
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
        result.interpreter_exit = interp_exit

        # --- expected failures are recorded, not compared ---------------
        # Invalid-frame / invalid-memory exits feed the concolic engine
        # ("subsequent executions need extra elements") and are expected
        # failures in the test runner (paper Section 3.4).
        if self._expected_failure(interp_exit.condition):
            result.status = Status.EXPECTED_FAILURE
            return result
        if recorded:
            _frame, input_mark, inputs = self._materialize(path.model)
        receiver, input_stack, input_temps = inputs
        heap = self.memory.heap

        # --- compile ----------------------------------------------------
        heap.rewind(input_mark)  # undoes an interpreted reference
        unit = CompilationUnit(
            method=self.method,
            bytecode=getattr(self.spec, "bytecode", None),
            operands=self._instruction_operands(),
            native=getattr(self.spec, "native", None),
            input_stack=tuple(input_stack),
            sequence=tuple(getattr(self.spec, "sequence", ())),
        )
        try:
            with guard("compiler", expected=(CompilerError,)):
                maybe_inject("compile", self.spec.name, self.compiler.name,
                             deadline=self.deadline)
                compiled = self.compiler.compile(unit)
        except NotImplementedInCompiler as error:
            result.status = Status.DIFFERENCE
            result.difference_kind = "compile_missing"
            result.detail = str(error)
            return result
        except CompilerError as error:
            result.status = Status.CURATED
            result.detail = str(error)
            return result

        # --- machine execution -----------------------------------------
        # Compilation may intern trampoline metadata but must not touch
        # the heap; re-assert the input state for the machine run.
        heap.rewind(input_mark)
        try:
            with guard("simulator", expected=(SimulationError,)):
                maybe_inject("simulate", self.spec.name, self.compiler.name,
                             deadline=self.deadline)
                outcome, machine_stack = self._run_machine(
                    compiled, receiver, input_temps
                )
        except SimulationError as error:
            result.status = Status.DIFFERENCE
            result.difference_kind = "simulation_error"
            result.detail = str(error)
            return result
        if outcome.kind == OutcomeKind.BUDGET_EXHAUSTED:
            # The campaign deadline expired mid-simulation; this is a
            # budget event, not a behavioural verdict for this cell.
            raise BudgetExhausted(
                f"simulation of {self.spec.name} stopped after "
                f"{outcome.steps} steps: campaign deadline expired",
                scope="campaign",
            )
        result.machine_outcome = outcome
        machine_heap_writes = heap.writes_since(input_mark)
        machine_temps = self._read_machine_temps(len(input_temps))

        # --- compare ----------------------------------------------------
        self._compare(result, interp_exit, output, outcome, machine_stack,
                      machine_temps, machine_heap_writes)
        return result

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

    def _instruction_operands(self) -> tuple:
        bytecode = getattr(self.spec, "bytecode", None)
        if bytecode is None:
            return ()
        code = self.method.bytecodes
        return tuple(code[1:bytecode.size])

    def _run_machine(self, compiled, receiver: int, temps: list):
        sim = self.simulator
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
            stack = compiled.unit.input_stack
            values = list(stack[-(argc + 1):]) if argc + 1 <= len(stack) else (
                [self.memory.nil_object] * (argc + 1 - len(stack)) + list(stack)
            )
            sim.set("R0", values[0] if values else self.memory.nil_object)
            for index, reg in enumerate(("R1", "R2", "R3", "R4")):
                if index + 1 < len(values):
                    sim.set(reg, values[index + 1])
        outcome = sim.run(compiled.entry, max_steps=self.max_sim_steps,
                          deadline=self.deadline)
        final_sp = sim.get("SP")
        count = max(0, (operand_base - final_sp) // WORD_SIZE)
        machine_stack = [
            sim.read_word(final_sp + offset * WORD_SIZE)
            for offset in range(count)
        ]
        machine_stack.reverse()  # bottom to top
        return outcome, machine_stack

    def _read_machine_temps(self, count: int) -> list:
        frame_base = STACK_TOP - FRAME_WORDS * WORD_SIZE
        return [
            self.simulator.read_word(frame_base + WORD_SIZE * (1 + index))
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
