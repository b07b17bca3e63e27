"""Bounded LRU memo of component solve verdicts.

Entries are keyed by the component's canonical form plus everything
else that can influence the raw solver's answer: the
:class:`SolverContext` fingerprint, the seed, and the conjunction-wide
constant pool.  Values store the verdict and (for SAT) the model as a
plain dict in *canonical* variable names; callers translate back to
their own names.  Node counts and budget flags are cached too so a
memo hit replays the exact :class:`SolveStats` a cold solve would have
produced — the cache changes time, never observable results.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass(frozen=True)
class MemoEntry:
    """Cached outcome of solving one canonical component."""

    status: str  # "sat" | "unsat" | "unknown"
    model: dict | None  # Model.to_dict() in canonical names, if SAT
    nodes: int
    truncated: bool
    repair_used: bool


class MemoCache:
    """Bounded LRU mapping canonical component keys to verdicts."""

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key) -> MemoEntry | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key, entry: MemoEntry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def keys(self) -> frozenset:
        """The keys held now: a mark for :meth:`entries_since`."""
        return frozenset(self._entries)

    def entries_since(self, mark: frozenset) -> list:
        """``(key, entry)`` for every held key not in *mark*, least
        recently used first."""
        return [(key, entry) for key, entry in self._entries.items()
                if key not in mark]

    def update(self, entries) -> None:
        """Put every ``(key, entry)`` of *entries*, in order."""
        for key, entry in entries:
            self.put(key, entry)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
