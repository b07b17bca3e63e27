"""Abstract objects, frames and classes (paper Fig. 3).

"Constraint variables are grouped in abstract frames, objects and
classes.  Abstract objects model concrete objects and are interpreted to
build concrete objects."

An :class:`AbstractValue` is one unknown oop; its symbolic face is a
variable term, its concrete face is filled in by the materializer from
the solver model on each concolic iteration.  Abstract specs accumulate
the *structure* the exploration discovered so far — how many operand
stack slots exist, which slots of which object have been touched — so
that "invalid frame" and "invalid memory access" exits can feed back
"subsequent executions need extra elements" (paper Section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.concolic.terms import Sort, Term, var


@dataclass(frozen=True)
class AbstractValue:
    """One unknown VM value, named deterministically by its role.

    Deterministic names (``recv``, ``stack0``, ``recv.slot2`` ...) make
    constraint terms from different concolic iterations comparable,
    which the negate-last-unnegated loop depends on.
    """

    name: str

    @property
    def variable(self) -> Term:
        return var(self.name, Sort.OOP)

    def slot(self, index: int) -> "AbstractValue":
        return AbstractValue(f"{self.name}.slot{index}")

    def __str__(self) -> str:
        return self.name


@dataclass
class AbstractObjectSpec:
    """Structure discovered for one abstract value used as an object.

    Mirrors the paper's AbstractObject: id, class, type/format, value,
    slots.  ``touched_slots`` holds the slot indices the interpreter
    accessed; the materializer must produce an object with at least
    ``max(touched) + 1`` slots when the model says so.
    """

    value: AbstractValue
    touched_slots: set[int] = field(default_factory=set)


@dataclass
class AbstractFrameSpec:
    """Structure discovered for the input frame.

    ``stack_slots``/``temp_slots`` grow monotonically across concolic
    iterations as invalid-frame exits are negated.  Stack slot 0 is the
    *bottom* of the materialized operand stack.
    """

    stack_slots: int = 0
    temp_slots: int = 0

    #: Variable naming scheme shared with the symbolic frame.
    STACK_SIZE_VAR = "stack_size"
    TEMP_COUNT_VAR = "temp_count"

    @property
    def receiver(self) -> AbstractValue:
        return AbstractValue("recv")

    def stack_value(self, index: int) -> AbstractValue:
        """Abstract value at stack position *index* (0 = bottom)."""
        return AbstractValue(f"stack{index}")

    def temp(self, index: int) -> AbstractValue:
        return AbstractValue(f"temp{index}")

    def stack_values(self) -> list[AbstractValue]:
        return [self.stack_value(i) for i in range(self.stack_slots)]

    def temps(self) -> list[AbstractValue]:
        return [self.temp(i) for i in range(self.temp_slots)]

    def all_values(self) -> list[AbstractValue]:
        return [self.receiver, *self.stack_values(), *self.temps()]
