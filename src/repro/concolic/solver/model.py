"""Solver models: kind assignments plus numeric witnesses.

A :class:`Model` is "interpreted to build concrete objects" (paper Fig.
3): the materializer walks it to construct the concrete input frame for
the differential test execution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.concolic.terms import Term, compiled
from repro.memory.layout import MAX_SMALL_INT, MIN_SMALL_INT, ObjectFormat


def default_witness_value(name: str) -> int:
    """Deterministic, small, name-derived default for unconstrained values.

    Distinct per variable (``stack0`` != ``stack1``) so that value-level
    compiler defects are observable on default witnesses.
    """
    return sum(ord(character) for character in name) % 97 + 1


class KindTag(enum.Enum):
    """The possible kinds of an abstract VM value."""

    SMALL_INT = "small_int"
    FLOAT = "float"
    NIL = "nil"
    TRUE = "true"
    FALSE = "false"
    OBJECT = "object"


ALL_KINDS = frozenset(KindTag)


@dataclass(frozen=True)
class Kind:
    """A resolved kind: the tag plus its parameters."""

    tag: KindTag
    #: SMALL_INT: the integer value.  FLOAT: unused (see Model.float_values).
    value: int = 0
    #: OBJECT: class table index.
    class_index: int = -1
    #: OBJECT: total slot count.
    num_slots: int = 0


@dataclass(frozen=True)
class SolverContext:
    """VM type information the solver needs to interpret predicates."""

    small_integer_class_index: int
    float_class_index: int
    nil_class_index: int
    true_class_index: int
    false_class_index: int
    #: class index -> ObjectFormat value (int) for instantiable classes.
    class_formats: dict
    #: class index -> is_variable flag.
    class_is_variable: dict
    #: class index -> fixed named-slot count.
    fixed_slot_counts: dict
    #: Class indices the solver may choose for unconstrained objects.
    default_object_classes: tuple
    #: Solver integer precision in bits (paper Section 4.3: 56).
    precision_bits: int = 56
    max_slots: int = 64
    max_stack: int = 12
    max_temps: int = 16

    @property
    def int_min(self) -> int:
        return -(1 << (self.precision_bits - 1))

    @property
    def int_max(self) -> int:
        return (1 << (self.precision_bits - 1)) - 1

    @classmethod
    def from_memory(cls, memory) -> "SolverContext":
        """Build a context from a bootstrapped object memory."""
        table = memory.class_table
        formats = {c.index: int(c.instance_format) for c in table}
        variable = {c.index: c.is_variable for c in table}
        fixed = {c.index: c.fixed_slots for c in table}
        return cls(
            small_integer_class_index=memory.small_integer_class_index,
            float_class_index=memory.float_class_index,
            nil_class_index=table.named("UndefinedObject").index,
            true_class_index=table.named("True").index,
            false_class_index=table.named("False").index,
            class_formats=formats,
            class_is_variable=variable,
            fixed_slot_counts=fixed,
            default_object_classes=(
                table.named("Association").index,
                table.named("Array").index,
                table.named("ByteArray").index,
                table.named("WordArray").index,
                table.named("ExternalAddress").index,
                table.named("PlainObject").index,
                table.named("Point").index,
                table.named("Behavior").index,
                table.named("ByteString").index,
                table.named("CompiledMethod").index,
                table.named("BoxedFloat64").index,
            ),
        )

    def class_index_for_kind(self, kind: Kind) -> int:
        mapping = {
            KindTag.SMALL_INT: self.small_integer_class_index,
            KindTag.FLOAT: self.float_class_index,
            KindTag.NIL: self.nil_class_index,
            KindTag.TRUE: self.true_class_index,
            KindTag.FALSE: self.false_class_index,
        }
        if kind.tag == KindTag.OBJECT:
            return kind.class_index
        return mapping[kind.tag]

    def format_for_kind(self, kind: Kind) -> int:
        if kind.tag == KindTag.OBJECT:
            return self.class_formats[kind.class_index]
        if kind.tag == KindTag.FLOAT:
            return int(ObjectFormat.BOXED_FLOAT)
        return int(ObjectFormat.FIXED_POINTERS)

    def slot_count_for_kind(self, kind: Kind) -> int:
        if kind.tag == KindTag.OBJECT:
            return kind.num_slots
        if kind.tag == KindTag.FLOAT:
            return 2
        return 0


@dataclass
class Model:
    """A satisfying assignment for a path condition."""

    context: SolverContext
    #: var name -> Kind, for every abstract oop value.
    kinds: dict = field(default_factory=dict)
    #: var name -> float value (for FLOAT-kind values).
    float_values: dict = field(default_factory=dict)
    #: plain integer variables (stack_size, temp_count, raw slots).
    int_values: dict = field(default_factory=dict)
    #: alias groups: var name -> representative name (identity theory).
    aliases: dict = field(default_factory=dict)

    # ------------------------------------------------------------------

    def representative(self, name: str) -> str:
        seen = name
        while seen in self.aliases:
            seen = self.aliases[seen]
        return seen

    def kind_of(self, name: str) -> Kind:
        name = self.representative(name)
        kind = self.kinds.get(name)
        if kind is None:
            # Unconstrained values default to small integers (the paper's
            # Table 1 starts with integers too) — but *distinct* per
            # variable: identical defaults would blind the differential
            # comparison to value-level defects (a compiled `a - b` is
            # indistinguishable from `a + b` when every input is 0).
            kind = Kind(KindTag.SMALL_INT, value=default_witness_value(name))
        return kind

    def float_value_of(self, name: str) -> float:
        return self.float_values.get(self.representative(name), 1.0)

    def int_value_of(self, name: str) -> int:
        kind = self.kind_of(name)
        if kind.tag == KindTag.SMALL_INT:
            return kind.value
        # Untagging a non-integer: deterministic garbage.
        return 0

    # ------------------------------------------------------------------
    # term-evaluation environment

    def environment(self):
        """Closure suitable for :func:`repro.concolic.terms.evaluate`."""
        context = self.context

        def env(op: str, payload):
            if op == "var":
                name = payload
                if name in self.int_values:
                    return self.int_values[name]
                kind = self.kinds.get(self.representative(name))
                if kind is not None and kind.tag == KindTag.SMALL_INT:
                    return kind.value
                return self.int_values.get(name, 0)
            if op == "is_small_int":
                return self.kind_of(payload).tag == KindTag.SMALL_INT
            if op == "is_float":
                return self.kind_of(payload).tag == KindTag.FLOAT
            if op == "is_nil":
                return self.kind_of(payload).tag == KindTag.NIL
            if op == "is_true":
                return self.kind_of(payload).tag == KindTag.TRUE
            if op == "is_false":
                return self.kind_of(payload).tag == KindTag.FALSE
            if op == "int_value_of":
                return self.int_value_of(payload)
            if op == "float_value_of":
                return self.float_value_of(payload)
            if op == "class_index_of":
                return context.class_index_for_kind(self.kind_of(payload))
            if op == "format_of":
                return context.format_for_kind(self.kind_of(payload))
            if op == "slot_count_of":
                return context.slot_count_for_kind(self.kind_of(payload))
            if op == "identical":
                left, right = payload
                if self.representative(left) == self.representative(right):
                    return True
                lk, rk = self.kind_of(left), self.kind_of(right)
                if lk.tag != rk.tag:
                    return False
                if lk.tag == KindTag.SMALL_INT:
                    return lk.value == rk.value
                if lk.tag in (KindTag.NIL, KindTag.TRUE, KindTag.FALSE):
                    return True
                return False  # distinct heap objects unless aliased
            raise KeyError(f"unknown environment query {op}")

        return env

    def satisfies(self, literals: list[Term]) -> bool:
        """Check every literal evaluates to True under this model."""
        env = self.environment()
        try:
            return all(compiled(literal)(env) for literal in literals)
        except Exception:
            return False

    # ------------------------------------------------------------------
    # serialization (for generated test suites)

    def to_dict(self) -> dict:
        """Literal representation embeddable in generated source code."""
        return {
            "kinds": {
                name: (kind.tag.value, kind.value, kind.class_index,
                       kind.num_slots)
                for name, kind in self.kinds.items()
            },
            "float_values": dict(self.float_values),
            "int_values": dict(self.int_values),
            "aliases": dict(self.aliases),
        }

    @classmethod
    def from_dict(cls, context: "SolverContext", data: dict) -> "Model":
        """Rebuild a model serialized with :meth:`to_dict`."""
        kinds = {
            name: Kind(KindTag(tag), value=value, class_index=class_index,
                       num_slots=num_slots)
            for name, (tag, value, class_index, num_slots)
            in data.get("kinds", {}).items()
        }
        return cls(
            context=context,
            kinds=kinds,
            float_values=dict(data.get("float_values", {})),
            int_values=dict(data.get("int_values", {})),
            aliases=dict(data.get("aliases", {})),
        )

    def describe(self) -> str:
        parts = []
        for name in sorted(self.kinds):
            kind = self.kinds[name]
            if kind.tag == KindTag.SMALL_INT:
                parts.append(f"{name}=int({kind.value})")
            elif kind.tag == KindTag.FLOAT:
                parts.append(f"{name}=float({self.float_value_of(name)})")
            elif kind.tag == KindTag.OBJECT:
                parts.append(
                    f"{name}=obj(class={kind.class_index}, slots={kind.num_slots})"
                )
            else:
                parts.append(f"{name}={kind.tag.value}")
        for name, value in sorted(self.int_values.items()):
            parts.append(f"{name}={value}")
        return ", ".join(parts)


# Convenient bounds re-exported for candidate pools.
SMALL_INT_BOUNDS = (MIN_SMALL_INT, MAX_SMALL_INT)
