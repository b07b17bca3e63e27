"""Flat word-addressable heap with a bump allocator.

The heap is the single source of truth shared by the byte-code interpreter
and the JIT-compiled machine code running on the CPU simulator.  All
addresses are byte addresses that must be word aligned; every read/write
is bounds-checked and raises :class:`~repro.errors.InvalidMemoryAccess`,
which the differential tester maps onto the paper's *Invalid Memory
Access* exit condition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HeapExhausted, InvalidMemoryAccess
from repro.memory.layout import WORD_MASK, WORD_SIZE


@dataclass(frozen=True)
class HeapCheckpoint:
    """A lightweight mark into a heap's copy-on-write journal.

    Creating one is O(1) — no words are copied.  The old value of every
    word written after the mark lives in the journal, so rewinding costs
    O(words written since) instead of O(heap size).
    """

    journal_length: int
    alloc_index: int


class Heap:
    """A fixed-size array of 32-bit words with bump allocation."""

    def __init__(self, size_words: int = 64 * 1024, base_address: int = 0x1000) -> None:
        if base_address % WORD_SIZE != 0:
            raise ValueError("heap base address must be word aligned")
        self._base = base_address
        self._words = [0] * size_words
        self._alloc_index = 0
        #: Monotonic counter of writes; cheap heap-mutation fingerprinting
        #: for the differential tester.
        self.write_count = 0
        #: Copy-on-write journal: ``(index, old_value)`` per write while
        #: journaling is on (``None`` = off).  See :meth:`checkpoint`.
        self._journal: list | None = None

    # ------------------------------------------------------------------
    # address arithmetic

    @property
    def base_address(self) -> int:
        return self._base

    @property
    def size_words(self) -> int:
        return len(self._words)

    @property
    def allocated_words(self) -> int:
        return self._alloc_index

    @property
    def free_pointer(self) -> int:
        """Byte address of the next free word (Pharo's ``freeStart``)."""
        return self._base + self._alloc_index * WORD_SIZE

    def contains(self, address: int) -> bool:
        """True when *address* points at an allocated, aligned heap word."""
        if address % WORD_SIZE != 0:
            return False
        index = (address - self._base) // WORD_SIZE
        return 0 <= index < self._alloc_index

    def _index_of(self, address: int, for_write: bool) -> int:
        if address % WORD_SIZE != 0:
            raise InvalidMemoryAccess(address, "(unaligned)")
        index = (address - self._base) // WORD_SIZE
        if not 0 <= index < self._alloc_index:
            kind = "write" if for_write else "read"
            raise InvalidMemoryAccess(address, f"({kind} outside allocated heap)")
        return index

    # ------------------------------------------------------------------
    # word access

    def read_word(self, address: int) -> int:
        return self._words[self._index_of(address, for_write=False)]

    def write_word(self, address: int, value: int) -> None:
        index = self._index_of(address, for_write=True)
        if self._journal is not None:
            self._journal.append((index, self._words[index]))
        self._words[index] = value & WORD_MASK
        self.write_count += 1

    # ------------------------------------------------------------------
    # allocation

    def allocate(self, n_words: int) -> int:
        """Bump-allocate *n_words* zeroed words; return their byte address."""
        if n_words < 0:
            raise ValueError("cannot allocate a negative number of words")
        if self._alloc_index + n_words > len(self._words):
            raise HeapExhausted(
                f"allocation of {n_words} words exceeds heap of {len(self._words)}"
            )
        address = self._base + self._alloc_index * WORD_SIZE
        self._alloc_index += n_words
        return address

    # ------------------------------------------------------------------
    # snapshots (used to compare side effects between engines)

    def snapshot(self) -> tuple[int, ...]:
        """Immutable copy of the allocated portion of the heap."""
        return tuple(self._words[: self._alloc_index])

    def restore(self, snapshot: tuple[int, ...]) -> None:
        """Restore a snapshot taken earlier, truncating later allocations.

        Restoring resets any active copy-on-write journal: checkpoints
        taken before the restore are invalidated (the journal no longer
        describes the words it would rewind).
        """
        if len(snapshot) > len(self._words):
            raise ValueError("snapshot larger than heap")
        self._words[: len(snapshot)] = list(snapshot)
        for index in range(len(snapshot), self._alloc_index):
            self._words[index] = 0
        self._alloc_index = len(snapshot)
        if self._journal is not None:
            self._journal = []

    # ------------------------------------------------------------------
    # copy-on-write checkpoints (undo journal)

    @property
    def journaling(self) -> bool:
        return self._journal is not None

    def start_journal(self) -> HeapCheckpoint:
        """Turn on copy-on-write journaling; returns the base checkpoint.

        While journaling is on, every :meth:`write_word` appends the
        word's *old* value to the journal, so any :meth:`checkpoint` can
        later be rewound in time proportional to the writes since it.
        Starting (or re-starting) empties the journal.
        """
        self._journal = []
        return HeapCheckpoint(0, self._alloc_index)

    def stop_journal(self) -> None:
        self._journal = None

    def checkpoint(self) -> HeapCheckpoint:
        """O(1) copy-on-write snapshot of the current heap state."""
        if self._journal is None:
            raise ValueError("checkpoint requires start_journal() first")
        return HeapCheckpoint(len(self._journal), self._alloc_index)

    def rewind(self, mark: HeapCheckpoint) -> None:
        """Undo every write and allocation made since *mark*."""
        journal = self._journal
        if journal is None:
            raise ValueError("rewind requires an active journal")
        if mark.journal_length > len(journal):
            raise ValueError("checkpoint is newer than the journal")
        for position in range(len(journal) - 1, mark.journal_length - 1, -1):
            index, old = journal[position]
            self._words[index] = old
        del journal[mark.journal_length:]
        self._alloc_index = mark.alloc_index

    def writes_since(self, mark: HeapCheckpoint) -> dict[int, tuple[int, int]]:
        """Net word changes since *mark*; same shape as :meth:`diff`.

        Words that existed at the mark appear only when their value
        actually changed; words allocated after the mark are all
        reported (old value 0), mirroring :meth:`diff` exactly (the heap
        tests hold the two byte-identical under random traffic).
        """
        journal = self._journal
        if journal is None:
            raise ValueError("writes_since requires an active journal")
        first_old: dict[int, int] = {}
        for index, old in journal[mark.journal_length:]:
            if index not in first_old:
                first_old[index] = old
        changes: dict[int, tuple[int, int]] = {}
        for index in sorted(first_old):
            if index < mark.alloc_index:
                old, new = first_old[index], self._words[index]
                if old != new:
                    changes[self._base + index * WORD_SIZE] = (old, new)
        for index in range(mark.alloc_index, self._alloc_index):
            changes[self._base + index * WORD_SIZE] = (0, self._words[index])
        return changes

    def diff(self, snapshot: tuple[int, ...]) -> dict[int, tuple[int, int]]:
        """Map of byte address -> (old, new) for words that changed."""
        changes: dict[int, tuple[int, int]] = {}
        common = min(len(snapshot), self._alloc_index)
        for index in range(common):
            old, new = snapshot[index], self._words[index]
            if old != new:
                changes[self._base + index * WORD_SIZE] = (old, new)
        for index in range(common, self._alloc_index):
            changes[self._base + index * WORD_SIZE] = (0, self._words[index])
        return changes
