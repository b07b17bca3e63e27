"""Concolic meta-interpretation of the VM interpreter (paper Sections 2-3).

The interpreter code in :mod:`repro.interpreter` is written against the
object-memory and frame protocols.  This package substitutes
constraint-recording implementations of those protocols and re-executes
the *unmodified* interpreter:

* :mod:`repro.concolic.values` — concolic values carrying a concrete
  value and a symbolic term; branching on a concolic boolean records a
  path constraint with the taken polarity.
* :mod:`repro.concolic.symbolic_memory` — an ObjectMemory whose semantic
  predicates (``isSmallInteger``, ``classIndexOf`` ...) return concolic
  booleans, realizing the paper's Section 3.3 choice of modelling *VM
  semantics* rather than raw pointer manipulation.
* :mod:`repro.concolic.abstract` — abstract frames/objects/classes
  (paper Fig. 3) that give constraint variables their structure.
* :mod:`repro.concolic.solver` — a from-scratch conjunction solver
  (kind domains + interval propagation + witness search), standing in
  for the paper's external constraint solver.
* :mod:`repro.concolic.explorer` — the negate-last-unnegated path
  exploration loop, tracking exit conditions instead of stopping at the
  first error.
"""

from repro.concolic.terms import Sort, Term, var, const
from repro.concolic.abstract import AbstractValue, AbstractObjectSpec, AbstractFrameSpec
from repro.concolic.values import ConcolicBool, ConcolicFloat, ConcolicInt, ConcolicOop
from repro.concolic.trace import PathConstraint, PathTrace
from repro.concolic.solver import Model, solve
from repro.concolic.explorer import (
    BytecodeInstructionSpec,
    ConcolicExplorer,
    NativeMethodSpec,
    PathResult,
)
from repro.concolic.pathtree import PathTree
from repro.concolic.sequences import (
    BytecodeSequenceSpec,
    interesting_sequences,
    sequence_spec,
)

__all__ = [
    "Sort",
    "Term",
    "var",
    "const",
    "AbstractValue",
    "AbstractObjectSpec",
    "AbstractFrameSpec",
    "ConcolicBool",
    "ConcolicFloat",
    "ConcolicInt",
    "ConcolicOop",
    "PathConstraint",
    "PathTrace",
    "Model",
    "solve",
    "BytecodeInstructionSpec",
    "NativeMethodSpec",
    "ConcolicExplorer",
    "PathResult",
    "PathTree",
    "BytecodeSequenceSpec",
    "interesting_sequences",
    "sequence_spec",
]
