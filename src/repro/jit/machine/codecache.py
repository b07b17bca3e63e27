"""Native code cache: installed code objects with decoded views.

Mirrors the "Native Code Cache" box of the paper's Fig. 4: compiled
methods are placed at stable addresses in a dedicated region, the
simulator fetches decoded instructions from here, and trampoline
addresses live outside the region so calls to them are recognizable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MachineError

CODE_BASE = 0x0020_0000


@dataclass
class CodeObject:
    """One installed piece of machine code."""

    base_address: int
    code: bytes
    #: address -> (instruction, size); decoded at install time.
    decoded: dict = field(default_factory=dict)

    @property
    def end_address(self) -> int:
        return self.base_address + len(self.code)

    def contains(self, address: int) -> bool:
        return self.base_address <= address < self.end_address


class CodeCache:
    """Bump-allocated code region holding installed code objects."""

    def __init__(self, base: int = CODE_BASE) -> None:
        self._next = base
        self._objects: list[CodeObject] = []

    def install(self, instructions, backend) -> CodeObject:
        """Assemble *instructions* with *backend* and install the bytes."""
        base = self._next
        code = backend.assemble(instructions, base)
        decoded = {
            address: (instruction, size)
            for address, instruction, size in backend.decode(code, base)
        }
        obj = CodeObject(base, code, decoded)
        self._objects.append(obj)
        # Pad between code objects so stray jumps fault fast.
        self._next = base + len(code) + 64
        return obj

    def instruction_at(self, address: int):
        for obj in self._objects:
            if obj.contains(address):
                entry = obj.decoded.get(address)
                if entry is None:
                    raise MachineError(
                        f"jump into the middle of an instruction at {address:#x}"
                    )
                return entry
        raise MachineError(f"execution outside the code cache at {address:#x}")

    def __len__(self) -> int:
        return len(self._objects)
