"""Concolic values: a concrete value paired with a symbolic term.

The interpreter computes on whatever the object-memory protocol hands it.
In concolic mode those are the classes below; Python's operator protocol
keeps the interpreter source unchanged while every branch on a
:class:`ConcolicBool` records a path constraint into the active
:class:`~repro.concolic.trace.PathTrace`.

Opaque operations (``bit_length``, trigonometry via ``__float__``,
``__index__`` for ``range``) intentionally *concretize*: the result
carries no symbolic term.  This matches standard concolic practice —
unsupported theories degrade to concrete-only reasoning instead of
failing (the paper's solver similarly lacks bit-wise support).
"""

from __future__ import annotations

import contextlib
from typing import Optional

from repro.concolic.abstract import AbstractValue
from repro.concolic.terms import (
    Sort,
    Term,
    compare,
    const,
    float_binary,
    int_binary,
    neg,
    oop_attribute,
)
from repro.concolic.trace import PathTrace

# ----------------------------------------------------------------------
# active trace

_ACTIVE_TRACE: Optional[PathTrace] = None


@contextlib.contextmanager
def tracing(trace: PathTrace):
    """Install *trace* as the recorder for the dynamic extent."""
    global _ACTIVE_TRACE
    previous = _ACTIVE_TRACE
    _ACTIVE_TRACE = trace
    try:
        yield trace
    finally:
        _ACTIVE_TRACE = previous


def record_branch(term: Optional[Term], taken: bool) -> None:
    if term is not None and _ACTIVE_TRACE is not None:
        _ACTIVE_TRACE.record(term, taken)


# ----------------------------------------------------------------------
# coercion helpers


def int_concrete(value) -> int:
    return value.concrete if isinstance(value, ConcolicInt) else int(value)


def int_term(value) -> Optional[Term]:
    if isinstance(value, ConcolicInt):
        return value.symbolic
    return None


def float_concrete(value) -> float:
    return value.concrete if isinstance(value, ConcolicFloat) else float(value)


def float_term(value) -> Optional[Term]:
    if isinstance(value, ConcolicFloat):
        return value.symbolic
    return None


def _combine_int(op: str, left, right) -> "ConcolicInt":
    lt, rt = int_term(left), int_term(right)
    symbolic = None
    if lt is not None or rt is not None:
        symbolic = int_binary(
            op,
            lt if lt is not None else const(int_concrete(left)),
            rt if rt is not None else const(int_concrete(right)),
        )
    from repro.concolic.terms import _INT_BINARIES  # local: avoid cycle at import

    concrete = _INT_BINARIES[op](int_concrete(left), int_concrete(right))
    if concrete is None:
        raise ZeroDivisionError(f"undefined {op} on concrete operands")
    return ConcolicInt(concrete, symbolic)


def _compare_int(op: str, left, right) -> "ConcolicBool":
    lt, rt = int_term(left), int_term(right)
    symbolic = None
    if lt is not None or rt is not None:
        symbolic = compare(
            op,
            lt if lt is not None else const(int_concrete(left)),
            rt if rt is not None else const(int_concrete(right)),
        )
    from repro.concolic.terms import _COMPARISONS

    return ConcolicBool(
        _COMPARISONS[op](int_concrete(left), int_concrete(right)), symbolic
    )


def _combine_float(op: str, left, right) -> "ConcolicFloat":
    lt, rt = float_term(left), float_term(right)
    symbolic = None
    if lt is not None or rt is not None:
        symbolic = float_binary(
            op,
            lt if lt is not None else const(float_concrete(left)),
            rt if rt is not None else const(float_concrete(right)),
        )
    from repro.concolic.terms import _FLOAT_BINARIES

    concrete = _FLOAT_BINARIES["f" + op](float_concrete(left), float_concrete(right))
    if concrete is None:
        raise ZeroDivisionError("float division by zero on concrete operands")
    return ConcolicFloat(concrete, symbolic)


def _compare_float(op: str, left, right) -> "ConcolicBool":
    lt, rt = float_term(left), float_term(right)
    symbolic = None
    if lt is not None or rt is not None:
        symbolic = compare(
            op,
            lt if lt is not None else const(float_concrete(left)),
            rt if rt is not None else const(float_concrete(right)),
            operand_sort=Sort.FLOAT,
        )
    from repro.concolic.terms import _COMPARISONS

    return ConcolicBool(
        _COMPARISONS[op](float_concrete(left), float_concrete(right)), symbolic
    )


# ----------------------------------------------------------------------
# value classes


class ConcolicBool:
    """A boolean whose truth test records a path constraint."""

    __slots__ = ("concrete", "symbolic")

    def __init__(self, concrete: bool, symbolic: Optional[Term] = None):
        self.concrete = bool(concrete)
        self.symbolic = symbolic

    def __bool__(self) -> bool:
        record_branch(self.symbolic, self.concrete)
        return self.concrete

    def __eq__(self, other):  # type: ignore[override]
        # Comparing two booleans forces both truth values; each records
        # its own constraint — the standard concolic decomposition.
        return bool(self) == bool(other)

    def __ne__(self, other):  # type: ignore[override]
        return bool(self) != bool(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ConcolicBool({self.concrete}, {self.symbolic})"


class ConcolicInt:
    """An untagged integer value with an optional symbolic term."""

    __slots__ = ("concrete", "symbolic")

    def __init__(self, concrete: int, symbolic: Optional[Term] = None):
        self.concrete = int(concrete)
        self.symbolic = symbolic

    # arithmetic -------------------------------------------------------
    def __add__(self, other):
        return _combine_int("add", self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return _combine_int("sub", self, other)

    def __rsub__(self, other):
        return _combine_int("sub", other, self)

    def __mul__(self, other):
        return _combine_int("mul", self, other)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        return _combine_int("floordiv", self, other)

    def __rfloordiv__(self, other):
        return _combine_int("floordiv", other, self)

    def __mod__(self, other):
        return _combine_int("mod", self, other)

    def __rmod__(self, other):
        return _combine_int("mod", other, self)

    def __lshift__(self, other):
        return _combine_int("shl", self, other)

    def __rlshift__(self, other):
        return _combine_int("shl", other, self)

    def __rshift__(self, other):
        return _combine_int("shr", self, other)

    def __rrshift__(self, other):
        return _combine_int("shr", other, self)

    def __and__(self, other):
        return _combine_int("bitand", self, other)

    __rand__ = __and__

    def __or__(self, other):
        return _combine_int("bitor", self, other)

    __ror__ = __or__

    def __xor__(self, other):
        return _combine_int("bitxor", self, other)

    __rxor__ = __xor__

    def __neg__(self):
        symbolic = neg(self.symbolic) if self.symbolic is not None else None
        return ConcolicInt(-self.concrete, symbolic)

    def __invert__(self):
        # ~x == -x - 1; expressible without a bit-wise theory.
        symbolic = None
        if self.symbolic is not None:
            symbolic = int_binary("sub", neg(self.symbolic), const(1))
        return ConcolicInt(~self.concrete, symbolic)

    def __abs__(self):
        # abs is branch-free here; interpreter code branches explicitly.
        return ConcolicInt(abs(self.concrete), None)

    # comparisons ------------------------------------------------------
    def __lt__(self, other):
        return _compare_int("lt", self, other)

    def __le__(self, other):
        return _compare_int("le", self, other)

    def __gt__(self, other):
        return _compare_int("gt", self, other)

    def __ge__(self, other):
        return _compare_int("ge", self, other)

    def __eq__(self, other):  # type: ignore[override]
        return _compare_int("eq", self, other)

    def __ne__(self, other):  # type: ignore[override]
        return _compare_int("ne", self, other)

    __hash__ = None  # type: ignore[assignment]

    # concretizing escapes --------------------------------------------
    def __index__(self) -> int:
        return self.concrete

    def __int__(self) -> int:
        return self.concrete

    def __float__(self) -> float:
        return float(self.concrete)

    def bit_length(self) -> int:
        return self.concrete.bit_length()

    def __repr__(self) -> str:
        return f"ConcolicInt({self.concrete}, {self.symbolic})"


class ConcolicFloat:
    """A double-precision value with an optional symbolic term."""

    __slots__ = ("concrete", "symbolic")

    def __init__(self, concrete: float, symbolic: Optional[Term] = None):
        self.concrete = float(concrete)
        self.symbolic = symbolic

    def __add__(self, other):
        return _combine_float("add", self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return _combine_float("sub", self, other)

    def __rsub__(self, other):
        return _combine_float("sub", other, self)

    def __mul__(self, other):
        return _combine_float("mul", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _combine_float("div", self, other)

    def __rtruediv__(self, other):
        return _combine_float("div", other, self)

    def __neg__(self):
        symbolic = (
            float_binary("sub", const(0.0), self.symbolic)
            if self.symbolic is not None
            else None
        )
        return ConcolicFloat(-self.concrete, symbolic)

    def __abs__(self):
        return ConcolicFloat(abs(self.concrete), None)

    def __lt__(self, other):
        return _compare_float("lt", self, other)

    def __le__(self, other):
        return _compare_float("le", self, other)

    def __gt__(self, other):
        return _compare_float("gt", self, other)

    def __ge__(self, other):
        return _compare_float("ge", self, other)

    def __eq__(self, other):  # type: ignore[override]
        return _compare_float("eq", self, other)

    def __ne__(self, other):  # type: ignore[override]
        return _compare_float("ne", self, other)

    __hash__ = None  # type: ignore[assignment]

    def __float__(self) -> float:
        return self.concrete

    def __int__(self) -> int:
        return int(self.concrete)

    def __trunc__(self) -> int:
        return int(self.concrete)

    def __repr__(self) -> str:
        return f"ConcolicFloat({self.concrete}, {self.symbolic})"


class ConcolicOop:
    """An oop with its abstract identity and/or construction shape.

    * ``abstract`` is set for input-derived unknowns: the paper's
      AbstractObject id.  Predicates on the oop become constraints on
      that variable.
    * ``shape`` describes oops built during execution from symbolic
      parts: ``("small_int", int_term)``, ``("float", float_term)`` or
      ``("bool", bool_term)``.  Output snapshots use it to express the
      paper's output constraints (e.g. ``s3 = s1 + s2`` in Fig. 2).
    """

    __slots__ = ("concrete", "abstract", "shape")

    def __init__(
        self,
        concrete: int,
        abstract: Optional[AbstractValue] = None,
        shape: Optional[tuple] = None,
    ):
        self.concrete = int(concrete)
        self.abstract = abstract
        self.shape = shape

    @property
    def variable(self) -> Optional[Term]:
        return self.abstract.variable if self.abstract is not None else None

    def int_value_term(self) -> Optional[Term]:
        """Symbolic term for this oop's untagged integer value."""
        if self.abstract is not None:
            return oop_attribute("int_value_of", self.variable)
        if self.shape is not None and self.shape[0] == "small_int":
            return self.shape[1]
        return None

    def float_value_term(self) -> Optional[Term]:
        if self.abstract is not None:
            return oop_attribute("float_value_of", self.variable)
        if self.shape is not None and self.shape[0] == "float":
            return self.shape[1]
        return None

    def __repr__(self) -> str:
        tag = self.abstract or (self.shape and self.shape[0]) or "concrete"
        return f"ConcolicOop({self.concrete:#x}, {tag})"


def oop_concrete(value) -> int:
    """The raw oop behind either a ConcolicOop or a plain integer oop."""
    return value.concrete if isinstance(value, ConcolicOop) else int(value)
