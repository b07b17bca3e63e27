"""Simulator-family mutants: the historical fault-describer gaps.

The paper's "Simulation Error" Table 3 family came from two real
defects: the CPU simulator's reflective fault describer had no getter
for ``R10`` and ``R11``, so any machine fault whose description needed
one of those registers crashed the *simulation* instead of producing a
comparable outcome.  The shipped simulator derives its getter table
from the register file (the fix).

These two mutants are the one way to re-seed that defect: ``R10``/
``R11`` wrap :class:`MachineSimulator.__init__` and drop their register
from each new simulator's getter table.  Each wraps whatever
``__init__`` is live, so the two compose: ``--mutant R10,R11`` seeds
both halves, which is what the paper-fidelity benchmarks
(``benchmarks/conftest.py``) and the triage tests run.
"""

from __future__ import annotations

from repro.jit.machine.simulator import MachineSimulator
from repro.mutation.registry import Mutant, register


def _install_describer_gap(register_name: str):
    def install():
        original = MachineSimulator.__init__

        def mutated(self, *args, **kwargs):
            original(self, *args, **kwargs)
            self._fault_getters.pop(register_name, None)

        MachineSimulator.__init__ = mutated

        def undo():
            MachineSimulator.__init__ = original

        return undo

    return install


for _register_name in ("R10", "R11"):
    register(Mutant(
        id=_register_name,
        family="simulator",
        target="repro.jit.machine.simulator.MachineSimulator.__init__",
        description=(
            f"remove the fault describer's reflective getter for "
            f"{_register_name} (the historical defect behind "
            f"--fault-describer-gaps)"
        ),
        install=_install_describer_gap(_register_name),
        # A describer gap only fires when a machine fault's base
        # register *is* the gapped register.  R11 was long annotated
        # as latent, but the main corpus does reach it:
        # primitiveFloatTruncated faults with base R10 and
        # primitiveFloatFractionPart with base R11
        # ("FLOAD at address 0xb (base R11=0x3)"), at every default
        # budget on both backends, so both halves of the historical
        # defect now sit inside the CI recall gate.  The stitched
        # corpus reaches neither: no stitched method faults with R10
        # or R11 as base (measured in docs/MUTATION.md §R11).
    ))
