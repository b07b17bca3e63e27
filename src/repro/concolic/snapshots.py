"""Input/output snapshots of one concolic path execution.

"One key aspect of our solution is that we store copies of both the
input and output constraints created during the concolic execution ...
because VM instructions have side effects" (paper Section 3.2).  The
input side is fully described by the solver model; the output side is
captured here after the instruction ran: the observable frame state,
symbolic descriptors for derived values (the ``s3 = s1 + s2`` of Fig.
2), and the heap effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.concolic.values import ConcolicInt, ConcolicOop, oop_concrete


@dataclass(frozen=True)
class ValueDescriptor:
    """Concrete oop plus a human-readable symbolic description."""

    concrete: int
    symbolic: str | None
    rendered: str

    def __str__(self) -> str:
        if self.symbolic:
            return f"{self.rendered} [{self.symbolic}]"
        return self.rendered


def describe_value(memory, value) -> ValueDescriptor:
    """Build a descriptor for a stack/temp slot value."""
    if isinstance(value, ConcolicInt):
        symbolic = str(value.symbolic) if value.symbolic is not None else None
        return ValueDescriptor(value.concrete, symbolic, f"raw({value.concrete})")
    concrete = oop_concrete(value) if value is not None else 0
    symbolic = None
    if isinstance(value, ConcolicOop):
        if value.abstract is not None:
            symbolic = value.abstract.name
        elif value.shape is not None:
            symbolic = f"{value.shape[0]}:{value.shape[1]}"
    return ValueDescriptor(concrete, symbolic, render_oop(memory, concrete))


def render_oop(memory, oop: int) -> str:
    """Render a concrete oop for reports ("int(5)", "float(1.5)", ...)."""
    from repro.memory.layout import (
        header_class_index,
        is_small_int_oop,
        small_int_value,
        words_to_float,
    )

    try:
        if is_small_int_oop(oop):
            return f"int({small_int_value(oop)})"
        if oop == memory.nil_object:
            return "nil"
        if oop == memory.true_object:
            return "true"
        if oop == memory.false_object:
            return "false"
        cls = memory.class_table.at(header_class_index(memory.heap.read_word(oop)))
        if cls.name == "BoxedFloat64":
            high = memory.heap.read_word(memory.slot_address(oop, 0))
            low = memory.heap.read_word(memory.slot_address(oop, 1))
            return f"float({words_to_float(high, low)})"
        return f"{cls.name}@{oop:#x}"
    except Exception:
        return f"oop({oop:#x})"


@dataclass
class OutputSnapshot:
    """Observable state after one instruction execution."""

    stack: list = field(default_factory=list)  # ValueDescriptors, bottom->top
    temps: list = field(default_factory=list)
    receiver: ValueDescriptor | None = None
    pc: int = 0
    #: address -> (old, new) for heap words changed by the instruction.
    heap_writes: dict = field(default_factory=dict)
    #: ValueDescriptor of a returned value, when the exit is a return.
    returned: ValueDescriptor | None = None

    @classmethod
    def capture_cow(cls, memory, frame, exit_result, mark) -> "OutputSnapshot":
        """Capture against a copy-on-write heap checkpoint.

        ``Heap.writes_since`` reports the same (address -> (old, new))
        map as ``Heap.diff`` against a full snapshot of the same moment,
        in time proportional to the writes the instruction made rather
        than the heap size.
        """
        returned = None
        if exit_result.returned_value is not None:
            returned = describe_value(memory, exit_result.returned_value)
        return cls(
            stack=[describe_value(memory, v) for v in frame.stack],
            temps=[
                describe_value(memory, v) if v is not None else None
                for v in frame.temps
            ],
            receiver=describe_value(memory, frame.receiver),
            pc=frame.pc,
            heap_writes=memory.heap.writes_since(mark),
            returned=returned,
        )

    def describe(self) -> str:
        stack = ", ".join(str(d) for d in self.stack)
        parts = [f"stack=[{stack}]", f"pc={self.pc}"]
        if self.returned is not None:
            parts.append(f"returned={self.returned}")
        if self.heap_writes:
            parts.append(f"heap_writes={len(self.heap_writes)}")
        return " ".join(parts)
