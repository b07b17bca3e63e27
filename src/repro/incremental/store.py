"""The persistent cross-run result store (``~/.cache/repro``).

An append-only JSONL file mapping semantic fingerprints to serialized
cell records — the same dicts the campaign journal holds, so a cache
hit is rebuilt by the exact machinery that rebuilds a resumed cell.
A loaded store holds each record ``marshal``-encoded, a fraction of
the decoded dict's size, and decodes it only on a hit: ``repro
mutate`` forks every campaign's workers from the process that holds
the store, and most records are never read.

The store is a key scheme over the journal's record log
(:class:`repro.robustness.checkpoint.RecordLog`): one ``os.write`` on
an ``O_APPEND`` descriptor per record, a CRC-32 over the payload, a
version field per line — concurrent writers (parallel campaign
workers, or two campaigns sharing one cache) never tear each other's
records, and a torn line is skipped on load, not trusted and not
fatal.  It never syncs (a lost line is only a miss), and a process
keeps its last campaign's store (:func:`campaign_store`), so each
campaign decodes only the lines appended since the one before.

Degradation paths (the "never worse than cold" contract):

* **stale version** — the store file is named after ``CACHE_VERSION``;
  a version bump simply reads/writes a fresh file and old files become
  garbage for ``repro cache --gc``;
* **corrupt lines** — skipped individually (counted in the stats);
* **unreadable store** — quarantined by renaming to ``*.corrupt`` and
  the campaign proceeds cold with a warning, mirroring how a crashing
  cell is quarantined instead of killing a run.
"""

from __future__ import annotations

import marshal
import os
from dataclasses import dataclass
from pathlib import Path

from repro import perf
from repro.incremental.fingerprint import FINGERPRINT_VERSION
from repro.robustness.checkpoint import RecordLog, encode_record

#: On-disk format version: bumped when the record shape or the
#: fingerprint recipe changes.  Mismatched stores are never read.
CACHE_VERSION = 100 + FINGERPRINT_VERSION


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro`` (XDG-aware)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return str(base / "repro")


@dataclass
class CacheStats:
    """Result-cache effectiveness for one campaign run."""

    hits: int = 0
    misses: int = 0
    #: Misses whose cell *key* is present under a different fingerprint
    #: — i.e. genuine invalidations, not first-ever executions.
    stale: int = 0
    stored: int = 0
    corrupt_lines: int = 0
    entries: int = 0
    #: Human-readable degradation warning (quarantined store), or None.
    warning: str | None = None

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class ResultStore(RecordLog):
    """Fingerprint-addressed store of serialized cell records."""

    write_errors_counter = "store.write_errors"
    #: A cache: a line a machine crash loses is a miss, recomputed.
    durable = False

    def __init__(self, directory: str) -> None:
        super().__init__(Path(directory) / f"results-v{CACHE_VERSION}.jsonl",
                         CACHE_VERSION)
        self.directory = directory
        self.stats = CacheStats()
        #: fingerprint -> the cell record, ``marshal``-encoded.
        self._records: dict = {}
        self._by_key: dict = {}
        self._corrupt = 0
        self._loaded = False

    # ------------------------------------------------------------------
    # load / lookup

    def _reset(self) -> None:
        super()._reset()
        self._records.clear()
        self._by_key.clear()
        self._corrupt = 0

    def load(self) -> None:
        """Decode the lines appended since the last load (see
        :meth:`RecordLog.scan`), counted in ``cache.lines_read``.

        A file that cannot be read at all is quarantined — renamed to
        ``<name>.corrupt`` — and the run degrades to cold with
        ``stats.warning`` set; individual bad lines are just skipped.
        """
        self._loaded = True
        try:
            for record, _reason in self.scan():
                perf.incr("cache.lines_read")
                cell = record and record.get("cell")
                if not (record and record.get("fingerprint")
                        and isinstance(cell, dict)):
                    self._corrupt += 1
                    perf.incr("cache.corrupt_lines")
                    continue
                fingerprint = record["fingerprint"]
                self._records[fingerprint] = marshal.dumps(cell)
                key = cell.get("key")
                if key:
                    self._by_key.setdefault(key, set()).add(fingerprint)
        except OSError as error:
            quarantined = self.path.with_suffix(self.path.suffix + ".corrupt")
            try:
                self.path.rename(quarantined)
                where = f"quarantined to {quarantined.name}"
            except OSError:
                where = "left in place"
            self._forget()
            self.stats.warning = (
                f"result cache unreadable ({error}); {where}, "
                "continuing with a cold run"
            )
        self.stats.entries = len(self._records)
        self.stats.corrupt_lines = self._corrupt + self.torn_tail

    def get(self, fingerprint: str, key: str | None = None) -> dict | None:
        """The serialized cell record for *fingerprint*, decoded into a
        fresh dict, or None.

        *key* (the cell's journal identity) only refines the miss
        accounting: a miss whose key is known under another fingerprint
        is an invalidation ("stale"), not a first sighting.
        """
        if not self._loaded:
            self.load()
        held = self._records.get(fingerprint)
        if held is not None:
            self.stats.hits += 1
            perf.incr("cache.hits")
            return marshal.loads(held)
        self.stats.misses += 1
        perf.incr("cache.misses")
        if key is not None and self._by_key.get(key):
            self.stats.stale += 1
            perf.incr("cache.stale")
        return None

    def records(self) -> dict:
        """fingerprint -> cell record, loading first (fresh copies)."""
        if not self._loaded:
            self.load()
        return {fingerprint: marshal.loads(held)
                for fingerprint, held in self._records.items()}

    # ------------------------------------------------------------------
    # append

    def put(self, fingerprint: str, record: dict) -> None:
        """Append one cell record under *fingerprint*.

        Safe under concurrent writers (single O_APPEND write + CRC);
        duplicate fingerprints resolve last-wins on load.  Never
        synced (see :meth:`sync`).  Persistent write failure (disk
        full, I/O errors) disables further writes with one stderr
        warning — lookups keep working, the campaign is never worse
        than cold.

        The next lookup loads again, which reads the appended line
        back: the store holds no copy of a record while the campaign
        that put it still holds its own.
        """
        if not fingerprint or not self.write(
                {"fingerprint": fingerprint, "cell": record}, "store"):
            return
        self.stats.stored += 1
        perf.incr("cache.stored")
        self._loaded = False

    def _degraded_warning(self, error: OSError) -> str:
        self.stats.warning = (
            f"result store writes disabled after {self._failures} "
            f"consecutive failures ({error}); continuing in-memory"
        )
        return self.stats.warning

    # ------------------------------------------------------------------
    # inspection / GC (the `repro cache` subcommand)

    def files(self) -> list:
        """Every store-related file in the cache directory: a list of
        ``(path, kind)`` with kind in {"current", "stale", "corrupt"}."""
        directory = Path(self.directory)
        if not directory.is_dir():
            return []
        found = []
        for path in sorted(directory.glob("results-v*.jsonl")):
            kind = "current" if path == self.path else "stale"
            found.append((path, kind))
        for path in sorted(directory.glob("results-v*.jsonl.corrupt")):
            found.append((path, "corrupt"))
        return found

    def gc(self) -> dict:
        """Compact the current file (last-wins dedup) and delete stale
        versions and quarantined corpses.  Returns a summary dict."""
        self.load()
        reclaimed = 0
        removed = []
        for path, kind in self.files():
            if kind == "current":
                continue
            reclaimed += path.stat().st_size
            path.unlink()
            removed.append(path.name)
        path = self.path
        before = path.stat().st_size if path.exists() else 0
        if self._records:
            compact = b"".join(
                encode_record(
                    {"fingerprint": fingerprint, "cell": cell},
                    version=CACHE_VERSION,
                )
                for fingerprint, cell in sorted(self.records().items())
            )
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(compact)
            tmp.replace(path)
            reclaimed += max(0, before - len(compact))
        elif path.exists():
            path.unlink()
            reclaimed += before
        return {
            "entries": len(self._records),
            "removed_files": removed,
            "reclaimed_bytes": reclaimed,
        }

    def clear(self) -> int:
        """Delete every store file; returns the number removed."""
        count = 0
        for path, _kind in self.files():
            path.unlink()
            count += 1
        self._close_fd()
        self._reset()
        self.stats = CacheStats()
        self._loaded = True
        return count


#: The store of the last campaign this process ran (see campaign_store).
_last_store: ResultStore | None = None


def campaign_store(directory) -> ResultStore:
    """The loaded store for one campaign over *directory*, with fresh
    stats: the last campaign's store when it used the same directory,
    so ``repro mutate`` decodes each store line once, not once per
    campaign.  Disabled writes stay disabled, with their warning."""
    global _last_store
    store = _last_store
    if store is None or store.directory != str(directory):
        if store is not None:
            store.close()
        store = _last_store = ResultStore(str(directory))
    store.stats = CacheStats(warning=store.stats.warning
                             if store.degraded else None)
    store.load()
    return store
