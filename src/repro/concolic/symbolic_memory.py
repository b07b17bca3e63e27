"""Constraint-recording object memory and frame.

:class:`SymbolicObjectMemory` subclasses the concrete
:class:`~repro.memory.object_memory.ObjectMemory`: every semantic
predicate returns a :class:`~repro.concolic.values.ConcolicBool` whose
truth test records a path constraint, every accessor propagates symbolic
terms, and every heap effect still happens for real (the concolic
execution *is* a concrete execution).  This is the paper's Section 3.3
in code: constraints describe VM semantics (``isSmallInteger(v)``,
``classIndexOf(v)``), never tag-bit arithmetic.

:class:`ConcolicFrame` adds the frame-shape constraints of Fig. 2
(``operand_stack_size > 1`` and friends) and raises
:class:`~repro.errors.InvalidFrameAccess` on under-materialized access,
producing the Invalid Frame exit that tells the explorer to grow the
input frame.
"""

from __future__ import annotations

from repro.concolic.abstract import AbstractFrameSpec, AbstractValue
from repro.concolic.values import (
    ConcolicBool,
    ConcolicFloat,
    ConcolicInt,
    ConcolicOop,
    int_concrete,
    int_term,
    float_concrete,
    float_term,
    oop_concrete,
)
from repro.concolic.terms import (
    Sort,
    compare,
    const,
    identical,
    int_to_float,
    kind_predicate,
    oop_attribute,
    var,
)
from repro.errors import InvalidFrameAccess
from repro.interpreter.frame import Frame
from repro.memory.layout import MAX_SMALL_INT, MIN_SMALL_INT, ObjectFormat
from repro.memory.object_memory import ObjectMemory


class ConcolicFormat:
    """An object format with concrete and symbolic faces."""

    __slots__ = ("concrete", "symbolic")

    def __init__(self, concrete: ObjectFormat, symbolic=None):
        self.concrete = concrete
        self.symbolic = symbolic

    def __eq__(self, other):  # type: ignore[override]
        other_value = int(other.concrete if isinstance(other, ConcolicFormat) else other)
        term = None
        if self.symbolic is not None:
            term = compare("eq", self.symbolic, const(other_value))
        return ConcolicBool(int(self.concrete) == other_value, term)

    def __ne__(self, other):  # type: ignore[override]
        other_value = int(other.concrete if isinstance(other, ConcolicFormat) else other)
        term = None
        if self.symbolic is not None:
            term = compare("ne", self.symbolic, const(other_value))
        return ConcolicBool(int(self.concrete) != other_value, term)

    __hash__ = None  # type: ignore[assignment]

    @property
    def is_pointers(self):
        # Pointer formats are exactly the ones <= VARIABLE_POINTERS.
        term = None
        if self.symbolic is not None:
            term = compare(
                "le", self.symbolic, const(int(ObjectFormat.VARIABLE_POINTERS))
            )
        return ConcolicBool(self.concrete.is_pointers, term)

    @property
    def is_raw(self):
        term = None
        if self.symbolic is not None:
            term = compare(
                "gt", self.symbolic, const(int(ObjectFormat.VARIABLE_POINTERS))
            )
        return ConcolicBool(self.concrete.is_raw, term)

    def __repr__(self) -> str:
        return f"ConcolicFormat({self.concrete!r}, {self.symbolic})"


class SymbolicObjectMemory(ObjectMemory):
    """Object memory that shadows every operation with symbolic terms."""

    def __init__(self, heap, class_table):
        super().__init__(heap, class_table)
        #: concrete oop -> ConcolicOop carrying its abstract identity.
        self._registry: dict[int, ConcolicOop] = {}

    # ------------------------------------------------------------------
    # registry

    def register(self, oop: ConcolicOop) -> ConcolicOop:
        self._registry[oop.concrete] = oop
        return oop

    def resolve(self, raw: int):
        """Map a raw heap word back to its concolic identity if known."""
        return self._registry.get(raw, raw)

    def reset_registry(self) -> None:
        """Forget every concolic identity registered so far.

        The explorer calls this between path executions, together with a
        heap rewind: abstract identities are per-execution, and a stale
        mapping would let one path's symbolic names leak into the next
        path's constraints.
        """
        self._registry.clear()

    @staticmethod
    def _abstract_of(value) -> AbstractValue | None:
        if isinstance(value, ConcolicOop):
            return value.abstract
        return None

    # ------------------------------------------------------------------
    # SmallInteger protocol

    def is_integer_object(self, oop):
        concrete = super().is_integer_object(oop_concrete(oop))
        abstract = self._abstract_of(oop)
        if abstract is not None:
            return ConcolicBool(
                concrete, kind_predicate("is_small_int", abstract.variable)
            )
        if isinstance(oop, ConcolicOop) and oop.shape is not None:
            # Execution-created values have statically known kinds.
            return ConcolicBool(concrete, None)
        return concrete

    def are_integers(self, receiver, argument):
        # Decomposed so each operand records its own constraint, giving
        # the separate isInteger(arg0)/isInteger(arg1) literals of the
        # paper's Table 1.
        return self.is_integer_object(receiver) and self.is_integer_object(argument)

    def integer_value_of(self, oop):
        concrete = super().integer_value_of(oop_concrete(oop))
        if isinstance(oop, ConcolicOop):
            return ConcolicInt(concrete, oop.int_value_term())
        return concrete

    def is_integer_value(self, value):
        if isinstance(value, ConcolicInt) and value.symbolic is not None:
            # Two literals: overflow above and below explored separately.
            return (value <= MAX_SMALL_INT) and (value >= MIN_SMALL_INT)
        return super().is_integer_value(int_concrete(value))

    def integer_object_of(self, value):
        concrete_oop = super().integer_object_of(int_concrete(value))
        term = int_term(value)
        if term is not None:
            return self.register(
                ConcolicOop(concrete_oop, shape=("small_int", term))
            )
        return concrete_oop

    # ------------------------------------------------------------------
    # booleans / identity

    def boolean_object_of(self, value):
        if isinstance(value, ConcolicBool):
            concrete_oop = super().boolean_object_of(value.concrete)
            if value.symbolic is not None:
                return self.register(
                    ConcolicOop(concrete_oop, shape=("bool", value.symbolic))
                )
            return concrete_oop
        return super().boolean_object_of(bool(value))

    def _kind_check(self, oop, predicate: str, concrete: bool):
        abstract = self._abstract_of(oop)
        if abstract is not None:
            return ConcolicBool(concrete, kind_predicate(predicate, abstract.variable))
        return concrete

    def is_true_object(self, oop):
        return self._kind_check(
            oop, "is_true", super().is_true_object(oop_concrete(oop))
        )

    def is_false_object(self, oop):
        return self._kind_check(
            oop, "is_false", super().is_false_object(oop_concrete(oop))
        )

    def is_nil_object(self, oop):
        return self._kind_check(oop, "is_nil", super().is_nil_object(oop_concrete(oop)))

    def is_boolean_object(self, oop):
        # Decomposed: true-check then false-check, each negatable.
        return self.is_true_object(oop) or self.is_false_object(oop)

    def are_identical(self, left, right):
        concrete = super().are_identical(oop_concrete(left), oop_concrete(right))
        left_abstract = self._abstract_of(left)
        right_abstract = self._abstract_of(right)
        if left_abstract is not None and right_abstract is not None:
            return ConcolicBool(
                concrete, identical(left_abstract.variable, right_abstract.variable)
            )
        # One side abstract, other a special constant: use kind predicates.
        for abstract, other in (
            (left_abstract, right),
            (right_abstract, left),
        ):
            if abstract is None:
                continue
            other_concrete = oop_concrete(other)
            for probe, predicate in (
                (self.nil_object, "is_nil"),
                (self.true_object, "is_true"),
                (self.false_object, "is_false"),
            ):
                if other_concrete == probe:
                    return ConcolicBool(
                        concrete, kind_predicate(predicate, abstract.variable)
                    )
        return ConcolicBool(concrete, None)

    def identity_hash_of(self, oop):
        return ConcolicInt(super().identity_hash_of(oop_concrete(oop)), None)

    # ------------------------------------------------------------------
    # headers

    def class_index_of(self, oop):
        concrete = super().class_index_of(oop_concrete(oop))
        abstract = self._abstract_of(oop)
        if abstract is not None:
            return ConcolicInt(
                concrete, oop_attribute("class_index_of", abstract.variable)
            )
        return ConcolicInt(concrete, None)

    def class_of(self, oop):
        description = super().class_of(oop_concrete(oop))
        abstract = self._abstract_of(oop)
        if abstract is not None:
            # Behaviour downstream depends on the exact class: pin it.
            check = ConcolicInt(
                description.index, oop_attribute("class_index_of", abstract.variable)
            ) == description.index
            bool(check)
        return description

    def format_of(self, oop):
        concrete = super().format_of(oop_concrete(oop))
        abstract = self._abstract_of(oop)
        if abstract is not None:
            return ConcolicFormat(
                concrete, oop_attribute("format_of", abstract.variable)
            )
        return ConcolicFormat(concrete, None)

    def num_slots_of(self, oop):
        concrete = super().num_slots_of(oop_concrete(oop))
        abstract = self._abstract_of(oop)
        if abstract is not None:
            return ConcolicInt(
                concrete, oop_attribute("slot_count_of", abstract.variable)
            )
        return ConcolicInt(concrete, None)

    def is_float_object(self, oop):
        concrete = super().is_float_object(oop_concrete(oop))
        abstract = self._abstract_of(oop)
        if abstract is not None:
            return ConcolicBool(concrete, kind_predicate("is_float", abstract.variable))
        return concrete

    # ------------------------------------------------------------------
    # slots

    def fetch_pointer(self, index, oop):
        abstract = self._abstract_of(oop)
        concrete_index = int_concrete(index)
        if abstract is None:
            return self.resolve(
                super().fetch_pointer(concrete_index, oop_concrete(oop))
            )
        self._record_bounds(index, oop, abstract)
        raw = super().fetch_pointer(concrete_index, oop_concrete(oop))
        if self.format_of(oop).concrete.is_pointers:
            # The registry resolves only genuine heap pointers: tagged
            # integers and the special objects are *values* — two
            # distinct abstract variables may share one concrete value,
            # and conflating them would make path signatures depend on
            # unrelated frame contents.
            from repro.memory.layout import is_small_int_oop

            if not is_small_int_oop(raw) and raw not in (
                self.nil_object, self.true_object, self.false_object
            ):
                known = self._registry.get(raw)
                if known is not None:
                    return known
            slot_value = abstract.slot(concrete_index)
            return self.register(ConcolicOop(raw, abstract=slot_value))
        # Raw slot: an integer word with its own variable (raw words can
        # numerically collide with oops, so the registry is not consulted).
        return ConcolicInt(raw, var(f"{abstract.name}.raw{concrete_index}", Sort.INT))

    def store_pointer(self, index, oop, value):
        abstract = self._abstract_of(oop)
        concrete_index = int_concrete(index)
        if abstract is not None:
            self._record_bounds(index, oop, abstract)
        if isinstance(value, ConcolicOop):
            self.register(value)
        raw = (
            int_concrete(value)
            if isinstance(value, ConcolicInt)
            else oop_concrete(value)
        )
        super().store_pointer(concrete_index, oop_concrete(oop), raw)

    def _record_bounds(self, index, oop, abstract) -> None:
        """The concolic engine validates object accesses (Section 3.4)."""
        from repro.errors import InvalidMemoryAccess

        # Slot access requires a heap object; recording the check lets
        # path negation discover the pointer-receiver case.
        if self.is_integer_object(oop):
            raise InvalidMemoryAccess(
                oop_concrete(oop), "(slot access on a tagged integer)"
            )
        slot_count = self.num_slots_of(oop)
        in_lower = (
            index >= 0
            if isinstance(index, ConcolicInt)
            else ConcolicBool(int_concrete(index) >= 0, None)
        )
        if not in_lower:
            raise InvalidMemoryAccess(oop_concrete(oop), "(negative slot index)")
        if not (slot_count > index):
            raise InvalidMemoryAccess(
                oop_concrete(oop),
                f"(slot {int_concrete(index)} beyond abstract object)",
            )

    # ------------------------------------------------------------------
    # floats

    def float_value_of(self, oop):
        concrete = super().float_value_of(oop_concrete(oop))
        if isinstance(oop, ConcolicOop):
            return ConcolicFloat(concrete, oop.float_value_term())
        return concrete

    def float_object_of(self, value):
        concrete_oop = super().float_object_of(float_concrete(value))
        term = float_term(value)
        if term is None and isinstance(value, ConcolicInt):
            term = (
                int_to_float(value.symbolic) if value.symbolic is not None else None
            )
        if term is not None:
            return self.register(ConcolicOop(concrete_oop, shape=("float", term)))
        return concrete_oop


class ConcolicFrame(Frame):
    """A frame whose shape accesses record input-size constraints."""

    def __init__(self, receiver, method, *, input_stack, input_temps, spec=None):
        # Bypass Frame's argument checking: the concolic frame is built
        # from materialized values, not from a send.
        self.receiver = receiver
        self.method = method
        self.pc = 0
        self.temps = list(input_temps)
        self.stack = list(input_stack)
        self.spec = spec or AbstractFrameSpec()
        self._materialized_stack = len(self.stack)
        self._input_live = len(self.stack)
        self._input_consumed = 0
        self._materialized_temps = len(self.temps)
        self._stack_size_term = var(AbstractFrameSpec.STACK_SIZE_VAR, Sort.INT)
        self._temp_count_term = var(AbstractFrameSpec.TEMP_COUNT_VAR, Sort.INT)

    # ------------------------------------------------------------------
    # operand stack with input-size constraints

    def _require_input_depth(self, depth_in_input: int) -> bool:
        """Record stack_size > consumed + depth; True when satisfied."""
        required_minus_one = self._input_consumed + depth_in_input
        check = ConcolicInt(self._materialized_stack + 0, self._stack_size_term) > (
            required_minus_one
        )
        return bool(check)

    def _pushed_live(self) -> int:
        return len(self.stack) - self._input_live

    def stack_value(self, depth: int):
        pushed = self._pushed_live()
        if depth >= pushed:
            if not self._require_input_depth(depth - pushed):
                raise InvalidFrameAccess("operand_stack", depth)
        index = len(self.stack) - 1 - depth
        if index < 0:
            raise InvalidFrameAccess("operand_stack", depth)
        return self.stack[index]

    def pop(self):
        value = self.stack_value(0)
        self.stack.pop()
        if self._pushed_live() < 0:
            self._input_live -= 1
            self._input_consumed += 1
            # _pushed_live is recomputed from _input_live; restore balance.
            assert self._pushed_live() == 0
        return value

    def pop_n(self, count: int) -> None:
        if count <= 0:
            return
        self.stack_value(count - 1)
        consumed_inputs = max(0, count - self._pushed_live())
        del self.stack[len(self.stack) - count :]
        self._input_live -= consumed_inputs
        self._input_consumed += consumed_inputs

    def pop_then_push(self, count: int, value) -> None:
        self.pop_n(count)
        self.push(value)

    # ------------------------------------------------------------------
    # temporaries with count constraints

    def _require_temp(self, index: int) -> bool:
        check = ConcolicInt(self._materialized_temps, self._temp_count_term) > index
        return bool(check)

    def temp_at(self, index: int):
        if index < 0 or not self._require_temp(index):
            raise InvalidFrameAccess("temps", index)
        return self.temps[index]

    def temp_at_put(self, index: int, value) -> None:
        if index < 0 or not self._require_temp(index):
            raise InvalidFrameAccess("temps", index)
        self.temps[index] = value
