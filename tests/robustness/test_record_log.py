"""The record log's durability policy, shared by the journal and the store.

A SIGKILL loses nothing a writer appended, sync or not; a sync only
guards against a machine crash.  So the journal syncs once per shard
and once when its writer stops, and the result store (a cache) never
syncs.  A machine crash can also leave a file ending in NUL bytes
(ext4 zero-fills blocks whose data never reached the disk): both
files must load past such a tail and append after it on a fresh line.
"""

from __future__ import annotations

import os

import pytest

from repro.difftest.runner import campaign_rows, run_campaign
from repro.incremental import ResultStore
from repro.parallel.shard import plan_shards
from repro.robustness.checkpoint import CampaignJournal

from tests.robustness.test_campaign_resilience import CONFIG
from tests.robustness.test_checkpoint import record_for

#: What a power loss can leave where an unsynced record was.
NUL_TAIL = b"\0" * 64


@pytest.fixture
def fsyncs(tmp_path, monkeypatch):
    """Log every ``os.fsync`` as ``pid inode``, from this process and
    from the pool workers it forks (they inherit the patched module)."""
    log = tmp_path / "fsyncs.log"
    real_fsync = os.fsync

    def counting_fsync(fd):
        line = f"{os.getpid()} {os.fstat(fd).st_ino}\n".encode()
        out = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(out, line)
        finally:
            os.close(out)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)

    def read(path) -> dict:
        """pid -> fsyncs of *path* (by inode)."""
        inode = str(os.stat(path).st_ino)
        counts: dict = {}
        if log.exists():
            for line in log.read_text().splitlines():
                pid, synced = line.split()
                if synced == inode:
                    counts[pid] = counts.get(pid, 0) + 1
        return counts

    return read


class TestSyncPolicy:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_journal_syncs_per_shard_and_store_never(self, tmp_path,
                                                     fsyncs, jobs):
        journal = tmp_path / "run.jsonl"
        cache_dir = tmp_path / "cache"
        result = run_campaign(CONFIG, jobs=jobs, journal_path=journal,
                              cache_dir=str(cache_dir))
        cells = sum(len(report.results) for report in result)
        shards = len(plan_shards(campaign_rows(CONFIG), {}))
        assert cells > shards  # else one sync per cell would pass too
        assert result.cache.stored == cells

        assert fsyncs(ResultStore(str(cache_dir)).path) == {}
        writers = fsyncs(journal)
        assert writers, "the journal was never synced"
        assert 1 <= len(writers) <= jobs
        # Each writer syncs at most once per shard it served plus once
        # when it stops; summed over writers:
        assert sum(writers.values()) <= shards + len(writers)
        assert len(CampaignJournal(journal).load()) == cells

    def test_close_syncs_only_what_is_pending(self, tmp_path, fsyncs):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.append(record_for("main::c::bytecode::a"))
        journal.append(record_for("main::c::bytecode::b"))
        journal.sync()
        journal.close()
        journal.close()
        assert sum(fsyncs(journal.path).values()) == 1

    def test_store_close_never_syncs(self, tmp_path, fsyncs):
        store = ResultStore(str(tmp_path / "cache"))
        store.put("fp1", {"key": "cell-a"})
        store.sync()
        store.close()
        assert fsyncs(store.path) == {}

    def test_a_writer_opens_its_file_once(self, tmp_path, monkeypatch):
        opened = []
        real_open = os.open

        def counting_open(path, *args, **kwargs):
            opened.append(str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", counting_open)
        journal = CampaignJournal(tmp_path / "j.jsonl")
        store = ResultStore(str(tmp_path / "cache"))
        for index in range(5):
            journal.append(record_for(f"main::c::bytecode::i{index}"))
            store.put(f"fp{index}", {"key": f"cell-{index}"})
        assert opened.count(str(journal.path)) == 1
        assert opened.count(str(store.path)) == 1


class TestNulTail:
    def test_journal_skips_the_tail_and_appends_after_it(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.append(record_for("main::c::bytecode::a"))
        journal.close()
        with journal.path.open("ab") as handle:
            handle.write(NUL_TAIL)

        assert set(journal.load()) == {"main::c::bytecode::a"}
        assert journal.replay.torn_lines == 1

        writer = CampaignJournal(journal.path)  # the next process
        writer.append(record_for("main::c::bytecode::b"))
        writer.close()
        assert journal.path.read_bytes().endswith(b"\n")
        loaded = CampaignJournal(journal.path)
        assert set(loaded.load()) == {"main::c::bytecode::a",
                                      "main::c::bytecode::b"}
        assert loaded.replay.torn_lines == 1

    def test_store_skips_the_tail_and_appends_after_it(self, tmp_path):
        directory = str(tmp_path / "cache")
        ResultStore(directory).put("fp1", {"key": "cell-a"})
        path = ResultStore(directory).path
        with path.open("ab") as handle:
            handle.write(NUL_TAIL)

        reader = ResultStore(directory)
        reader.load()
        assert reader.stats.corrupt_lines == 1
        assert set(reader.records()) == {"fp1"}

        ResultStore(directory).put("fp2", {"key": "cell-b"})
        after = ResultStore(directory)
        after.load()
        assert set(after.records()) == {"fp1", "fp2"}
        assert after.stats.corrupt_lines == 1
