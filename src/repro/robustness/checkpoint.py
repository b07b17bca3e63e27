"""Checkpoint/resume: the append-only record log and the campaign journal.

The runner appends one JSON record per *completed* cell — counters plus
per-comparison verdicts, enough to rebuild the aggregate report rows
exactly.  On ``--resume`` the journal is replayed and completed cells
are skipped, so an interrupted campaign (crash, ^C, expired deadline)
picks up where it left off and still produces identical aggregate
counts.

The journal and the persistent result store (:mod:`repro.incremental.store`)
are two key schemes over one :class:`RecordLog`, safe under
**concurrent writers** (the parallel engine's workers append directly):

* each record is emitted as one ``os.write`` on an ``O_APPEND``
  descriptor, so lines from different processes never interleave;
* each record carries a CRC-32 of its own payload, verified on load —
  a torn or corrupted line is skipped (not trusted, not fatal) and
  every later well-formed record is still replayed;
* duplicate keys resolve last-wins, so a cell re-run after a partial
  failure supersedes its earlier record.

A writer opens its file once and never syncs per record: written pages
survive a SIGKILL anyway, so a killed campaign loses only the cells in
flight.  The journal syncs once per shard and once when its writer
stops; the store, a cache, never syncs.  A power loss can thus also
lose each journal writer's shard in flight and an unsynced store tail.

Replay health is not silent: :meth:`CampaignJournal.load` counts torn
and foreign lines in :class:`JournalReplay` (surfaced in the campaign
report's resilience section and ``repro cache --journal``), and a log
whose *writes* keep failing (disk full, I/O errors) disables itself
after :data:`MAX_WRITE_FAILURES` consecutive errors with one stderr
warning — the campaign finishes correctly in-memory, never worse than
running journal-less.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro import perf
from repro.robustness.faults import maybe_inject

#: Bumped when the record shape changes; mismatched journals are ignored
#: rather than mis-replayed.
JOURNAL_VERSION = 1

#: Consecutive write failures after which a log (journal or result
#: store) disables itself for the rest of the run.  Transient errors
#: below the threshold lose at most their own record; the counter
#: resets on every successful write.
MAX_WRITE_FAILURES = 3


def cell_key(experiment: str, compiler: str, kind: str, instruction: str) -> str:
    """Stable identity of one campaign cell across runs."""
    return f"{experiment}::{compiler}::{kind}::{instruction}"


#: Journal-key namespace for triage cause records.  Triage shares the
#: campaign journal: cause records ride alongside cell records (same
#: versioning, checksumming, last-wins semantics) but live under this
#: prefix so cell replay and triage replay never collide.
TRIAGE_KEY_PREFIX = "triage::"


def triage_key(digest: str) -> str:
    """Stable identity of one triaged cause bucket across runs."""
    return f"{TRIAGE_KEY_PREFIX}{digest}"


def triage_records(completed: dict) -> dict:
    """The triage sub-map of a loaded journal: digest -> record."""
    return {
        key[len(TRIAGE_KEY_PREFIX):]: record
        for key, record in completed.items()
        if key.startswith(TRIAGE_KEY_PREFIX)
    }


def _checksum(payload: str) -> int:
    return zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF


def encode_record(record: dict, version: int = JOURNAL_VERSION) -> bytes:
    """One log line: versioned, checksummed, newline-terminated.

    The same discipline serves the campaign journal and the persistent
    result store, each under its own *version* namespace.
    """
    record = dict(record, version=version)
    payload = json.dumps(record, sort_keys=True)
    record["crc"] = _checksum(payload)
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def _decode_line(line, version: int) -> tuple[dict | None, str]:
    """(record, reason) for one log line (``str`` or ``bytes``).

    Reasons: ``"ok"`` — replayable; ``"torn"`` — undecodable (a torn
    write or bit rot: unparseable JSON or a checksum mismatch);
    ``"foreign"`` — intact but not ours (another format version).
    """
    try:
        record = json.loads(line)
    except ValueError:  # bad JSON, or bytes that are not UTF-8
        return None, "torn"
    if not isinstance(record, dict):
        return None, "torn"
    crc = record.pop("crc", None)
    if crc != _checksum(json.dumps(record, sort_keys=True)):
        return None, "torn"
    if record.get("version") != version:
        return None, "foreign"
    return record, "ok"


def decode_record(line: str, version: int = JOURNAL_VERSION) -> dict | None:
    """Parse and verify one log line; None if torn/corrupt/foreign."""
    record, _reason = _decode_line(line, version)
    return record


class RecordLog:
    """One append-only file of versioned, CRC-checked JSON records,
    written through one descriptor and read incrementally: :meth:`scan`
    yields only the lines appended since the previous scan."""

    #: Perf counter of failed writes (one literal per key scheme).
    write_errors_counter = "journal.write_errors"
    #: Whether :meth:`sync` fsyncs this log's appends.
    durable = True

    def __init__(self, path, version: int) -> None:
        self.path = Path(path)
        self.version = version
        self.degraded = False
        #: The last scan ended at an unterminated fragment (a torn write,
        #: or NUL bytes); left unread until an append terminates it.
        self.torn_tail = False
        self._failures = 0
        self._fd: int | None = None
        self._unsynced = False
        # Where the reader is: file identity, offset, bytes before it.
        self._identity = None
        self._offset = 0
        self._mark = b""

    def write(self, record: dict, site: str) -> bool:
        """Append one record; False if it failed or the log is disabled.

        On opening, an unterminated last line (a SIGKILL mid-write) gets
        a newline first, so the record is never glued onto it.
        """
        if self.degraded:
            return False
        # Imported here, not at the top: the package imports this
        # module, and ``python -m repro.robustness.chaos`` must find
        # chaos unimported when it runs the module as ``__main__``.
        from repro.robustness import chaos

        try:
            maybe_inject(site)
            data = encode_record(record, self.version)
            chaos.write_point(site, self.path, data)
            if self._fd is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fd = os.open(self.path,
                                   os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
                size = os.fstat(self._fd).st_size
                if size and os.pread(self._fd, 1, size - 1) != b"\n":
                    data = b"\n" + data
            os.write(self._fd, data)
        except OSError as error:
            self._failed(error)
            return False
        self._failures = 0
        self._unsynced = self.durable
        return True

    def _failed(self, error: OSError) -> None:
        self._close_fd()
        self._failures += 1
        perf.incr(self.write_errors_counter)
        if self._failures >= MAX_WRITE_FAILURES:
            self.degraded = True
            perf.incr("io.degraded")
            print(f"warning: {self._degraded_warning(error)}",
                  file=sys.stderr)

    def _degraded_warning(self, error: OSError) -> str:
        return (
            f"campaign journal {self.path} disabled after "
            f"{self._failures} consecutive write failures ({error}); "
            "continuing without checkpointing"
        )

    def sync(self) -> None:
        """fsync this writer's pending appends, if any (a group commit)."""
        if self._unsynced:
            self._unsynced = False
            try:
                os.fsync(self._fd)
            except OSError as error:
                self._failed(error)

    def close(self) -> None:
        """Sync, then close the descriptor (a later write reopens)."""
        self.sync()
        self._close_fd()

    def _close_fd(self) -> None:
        fd, self._fd, self._unsynced = self._fd, None, False
        if fd is not None:
            with contextlib.suppress(OSError):
                os.close(fd)

    def _reset(self) -> None:
        """Read from the start next time (a key scheme drops its data)."""
        self._offset = 0
        self._mark = b""

    def _forget(self, identity=None) -> None:
        """The file changed: drop the read position and the descriptor."""
        self.close()
        self._identity = identity
        self._reset()

    def scan(self):
        """Stream ``(record, reason)`` (:func:`_decode_line`) for each
        complete line appended since the last scan, or for every line
        if the file was replaced, removed or truncated since."""
        self.torn_tail = False
        try:
            handle = self.path.open("rb")
        except FileNotFoundError:
            if self._identity is not None:
                self._forget()
            return
        with handle:
            fd = handle.fileno()
            stat = os.fstat(fd)
            identity = (stat.st_dev, stat.st_ino)
            if (identity != self._identity or stat.st_size < self._offset
                    or os.pread(fd, len(self._mark),
                                self._offset - len(self._mark)) != self._mark):
                self._forget(identity)
            handle.seek(self._offset)
            for line in handle:
                if not line.endswith(b"\n"):
                    self.torn_tail = bool(line.strip())
                    break
                self._offset += len(line)
                self._mark = line[-32:]
                if line.strip():
                    yield _decode_line(line, self.version)


@dataclass
class JournalReplay:
    """Accounting of one journal load — the replay-health report."""

    #: Well-formed records replayed (after last-wins dedup collapses
    #: duplicates, this can exceed the number of distinct keys).
    records: int = 0
    #: Undecodable lines skipped: torn writes, checksum mismatches.
    torn_lines: int = 0
    #: Decodable lines skipped as foreign: version mismatch or no key.
    skipped_lines: int = 0


class CampaignJournal(RecordLog):
    """One JSONL file journaling completed campaign cells."""

    def __init__(self, path) -> None:
        super().__init__(path, JOURNAL_VERSION)
        self.replay = JournalReplay()

    def load(self) -> dict:
        """key -> record for every well-formed journaled cell.

        Always reads the whole file.  Malformed lines (torn writes,
        checksum mismatches) are skipped individually: with concurrent
        writers a bad line is not necessarily the last one.  Duplicate
        keys resolve last-wins.  What was skipped is counted in
        :attr:`replay` and the ``journal.torn_lines`` /
        ``journal.skipped_lines`` perf counters — replay health is
        reported, not silent.
        """
        self.replay = replay = JournalReplay()
        self._reset()
        completed: dict = {}
        for record, reason in self.scan():
            if reason == "torn":
                replay.torn_lines += 1
                perf.incr("journal.torn_lines")
            elif record is None or not record.get("key"):
                replay.skipped_lines += 1
                perf.incr("journal.skipped_lines")
            else:
                completed[record["key"]] = record
                replay.records += 1
        if self.torn_tail:
            replay.torn_lines += 1
            perf.incr("journal.torn_lines")
        return completed

    def append(self, record: dict) -> None:
        """Append one cell (or triage cause) record, unsynced."""
        key = str(record.get("key", ""))
        self.write(record,
                   "triage" if key.startswith(TRIAGE_KEY_PREFIX) else "journal")
