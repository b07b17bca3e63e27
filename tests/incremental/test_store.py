"""The persistent result store: durability, degradation, GC.

The store inherits the journal's discipline (CRC per line, O_APPEND,
last-wins), so the tests mirror tests/robustness/test_checkpoint.py —
plus the store-specific contracts: version isolation, quarantine of an
unreadable file, stale-entry accounting and the `repro cache` GC.
"""

from __future__ import annotations

import os

import pytest

from repro import perf
from repro.cli import main as cli_main
from repro.incremental import CACHE_VERSION, CacheStats, ResultStore
from repro.incremental.store import campaign_store, default_cache_dir


def record(key: str, value: int = 0) -> dict:
    return {"key": key, "value": value}


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "cache"))


class TestRoundTrip:
    def test_put_then_get(self, store):
        store.put("fp1", record("cell-a", 1))
        fresh = ResultStore(store.directory)
        assert fresh.get("fp1") == record("cell-a", 1)
        assert fresh.stats.hits == 1

    def test_put_on_a_loaded_store_is_read_back(self, store):
        store.load()
        store.put("fp1", record("cell-a", 1))
        assert store.get("fp1") == record("cell-a", 1)
        assert store.stats.entries == 1

    def test_get_returns_a_copy(self, store):
        store.put("fp1", record("cell-a"))
        first = store.get("fp1")
        first["value"] = 99
        assert store.get("fp1") == record("cell-a")

    def test_miss_accounting(self, store):
        assert store.get("absent") is None
        assert store.stats.misses == 1
        assert store.stats.stale == 0

    def test_stale_is_a_miss_with_a_known_key(self, store):
        """An invalidation (same cell, new fingerprint) is counted
        apart from a first-ever execution."""
        store.put("fp-old", record("cell-a"))
        fresh = ResultStore(store.directory)
        assert fresh.get("fp-new", key="cell-a") is None
        assert fresh.get("fp-other", key="cell-b") is None
        assert fresh.stats.stale == 1
        assert fresh.stats.misses == 2

    def test_last_wins_on_duplicate_fingerprints(self, store):
        store.put("fp1", record("cell-a", 1))
        store.put("fp1", record("cell-a", 2))
        fresh = ResultStore(store.directory)
        assert fresh.get("fp1")["value"] == 2

    def test_hit_rate(self):
        stats = CacheStats(hits=9, misses=1)
        assert stats.hit_rate == 0.9
        assert CacheStats().hit_rate == 0.0


class TestDegradation:
    def test_torn_line_is_skipped_not_fatal(self, store):
        store.put("fp1", record("cell-a"))
        store.put("fp2", record("cell-b"))
        data = store.path.read_bytes()
        lines = data.splitlines(keepends=True)
        store.path.write_bytes(lines[0] + lines[1][: len(lines[1]) // 2])
        fresh = ResultStore(store.directory)
        fresh.load()
        assert fresh.stats.corrupt_lines == 1
        assert fresh.get("fp1") == record("cell-a")
        assert fresh.get("fp2") is None

    def test_flipped_byte_fails_crc(self, store):
        store.put("fp1", record("cell-a"))
        data = bytearray(store.path.read_bytes())
        index = data.index(b"cell-a")
        data[index] ^= 0x01
        store.path.write_bytes(bytes(data))
        fresh = ResultStore(store.directory)
        fresh.load()
        assert fresh.stats.corrupt_lines == 1
        assert fresh.get("fp1") is None

    def test_version_isolation(self, store, tmp_path):
        """A store written under another CACHE_VERSION is never read —
        the current version simply starts cold."""
        other = tmp_path / "cache" / f"results-v{CACHE_VERSION + 1}.jsonl"
        other.parent.mkdir(parents=True, exist_ok=True)
        donor = ResultStore(str(tmp_path / "donor"))
        donor.put("fp1", record("cell-a"))
        other.write_bytes(donor.path.read_bytes())
        store.load()
        assert store.stats.entries == 0
        assert store.get("fp1") is None

    def test_unreadable_store_quarantined_with_warning(self, store):
        """The "never worse than cold" contract: a store that cannot be
        opened is renamed aside and the campaign proceeds cold."""
        store.put("fp1", record("cell-a"))
        # A directory where the store file should be: open() raises an
        # OSError even for root (chmod 000 would not).
        store.path.unlink()
        store.path.mkdir()
        fresh = ResultStore(store.directory)
        fresh.load()
        assert fresh.stats.warning is not None
        assert "cold" in fresh.stats.warning
        assert fresh.get("fp1") is None
        corpses = list(store.path.parent.glob("*.corrupt"))
        assert len(corpses) == 1

    def test_concurrent_appends_do_not_tear(self, store):
        """Many processes appending through O_APPEND produce a fully
        readable file (same guarantee the journal tests assert)."""
        import multiprocessing

        def writer(directory, index):
            child = ResultStore(directory)
            for i in range(20):
                child.put(f"fp-{index}-{i}", record(f"cell-{index}-{i}", i))

        context = multiprocessing.get_context("fork")
        processes = [
            context.Process(target=writer, args=(store.directory, index))
            for index in range(4)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join()
        fresh = ResultStore(store.directory)
        fresh.load()
        assert fresh.stats.corrupt_lines == 0
        assert fresh.stats.entries == 80


class TestInspectionAndGC:
    def test_files_classification(self, store, tmp_path):
        store.put("fp1", record("cell-a"))
        stale = tmp_path / "cache" / f"results-v{CACHE_VERSION - 1}.jsonl"
        stale.write_text("old\n")
        corpse = tmp_path / "cache" / f"results-v{CACHE_VERSION}.jsonl.corrupt"
        corpse.write_text("bad\n")
        kinds = {path.name: kind for path, kind in store.files()}
        assert kinds == {
            store.path.name: "current",
            stale.name: "stale",
            corpse.name: "corrupt",
        }

    def test_gc_compacts_and_removes(self, store, tmp_path):
        for i in range(10):
            store.put("fp1", record("cell-a", i))  # 9 superseded lines
        stale = tmp_path / "cache" / f"results-v{CACHE_VERSION - 1}.jsonl"
        stale.write_text("old stale payload\n")
        summary = store.gc()
        assert summary["entries"] == 1
        assert summary["removed_files"] == [stale.name]
        assert summary["reclaimed_bytes"] > 0
        assert not stale.exists()
        fresh = ResultStore(store.directory)
        fresh.load()
        assert fresh.stats.entries == 1
        assert fresh.get("fp1")["value"] == 9

    def test_clear_removes_everything(self, store):
        store.put("fp1", record("cell-a"))
        assert store.clear() == 1
        assert not store.path.exists()
        assert store.get("fp1") is None

    def test_gc_on_empty_directory(self, store):
        summary = store.gc()
        assert summary["entries"] == 0
        assert summary["removed_files"] == []


class TestDefaultDirectory:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/somewhere/else")
        assert default_cache_dir() == "/somewhere/else"

    def test_xdg_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", "/xdg/cache")
        assert default_cache_dir() == "/xdg/cache/repro"

    def test_home_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        assert default_cache_dir().endswith(".cache/repro")


def lines_read(directory) -> tuple:
    """(the campaign store for *directory*, lines its load decoded)."""
    perf.enable()
    try:
        store = campaign_store(directory)
        return store, perf.snapshot()["counters"].get("cache.lines_read", 0)
    finally:
        perf.disable()


class TestReadOnce:
    """A process keeps its last campaign's store: the next campaign
    decodes only the lines appended since, unless the file changed
    under it."""

    @pytest.fixture
    def first(self, tmp_path):
        directory = str(tmp_path / "cache")
        writer = ResultStore(directory)  # another process's appends
        for index in range(6):
            writer.put(f"fp{index}", record(f"cell-{index}", index))
        store, read = lines_read(directory)
        assert read == 6 and store.stats.entries == 6
        return directory, writer

    def test_second_campaign_reads_only_new_lines(self, first):
        directory, writer = first
        writer.put("fp6", record("cell-6"))
        writer.put("fp7", record("cell-7"))
        store, read = lines_read(directory)
        assert read == 2
        assert store.stats.entries == 8
        assert store.get("fp0") == record("cell-0", 0)
        assert store.get("fp7") == record("cell-7")
        assert lines_read(directory)[1] == 0

    def test_each_campaign_gets_fresh_stats(self, first):
        directory, _writer = first
        store, _read = lines_read(directory)
        store.get("fp0")
        store.put("fp9", record("cell-9"))
        again, _read = lines_read(directory)
        assert again is store
        assert (again.stats.hits, again.stats.stored) == (0, 0)

    def test_compacted_store_is_read_from_the_start(self, first):
        directory, writer = first
        writer.put("fp0", record("cell-0", 99))  # superseded line
        assert cli_main(["cache", "--cache-dir", directory, "--gc"]) == 0
        store, read = lines_read(directory)
        assert read == 6
        assert store.get("fp0") == record("cell-0", 99)

    def test_truncated_store_is_read_from_the_start(self, first):
        directory, writer = first
        lines = writer.path.read_bytes().splitlines(keepends=True)
        os.truncate(writer.path, sum(len(line) for line in lines[:2]))
        store, read = lines_read(directory)
        assert read == 2
        assert set(store.records()) == {"fp0", "fp1"}
        assert store.get("fp5") is None

    def test_truncated_and_regrown_store_is_read_from_the_start(self, first):
        directory, writer = first
        lines = writer.path.read_bytes().splitlines(keepends=True)
        os.truncate(writer.path, len(lines[0]))
        for index in range(8):
            writer.put(f"new{index}", record(f"cell-new{index}"))
        store, read = lines_read(directory)
        assert read == 9
        assert store.get("fp5") is None
        assert store.get("new7") == record("cell-new7")

    def test_replaced_store_is_read_from_the_start(self, first, tmp_path):
        directory, writer = first
        donor = ResultStore(str(tmp_path / "donor"))
        donor.put("other", record("cell-other"))
        os.replace(donor.path, writer.path)
        store, read = lines_read(directory)
        assert read == 1
        assert set(store.records()) == {"other"}
        # Writes go to the new file, not the one it replaced.
        store.put("mine", record("cell-mine"))
        assert set(ResultStore(directory).records()) == {"other", "mine"}

    def test_removed_store_reads_cold(self, first):
        directory, writer = first
        writer.path.unlink()
        store, read = lines_read(directory)
        assert read == 0
        assert store.stats.entries == 0

    def test_unreadable_store_is_still_quarantined(self, first):
        directory, writer = first
        writer.path.unlink()
        writer.path.mkdir()
        store, _read = lines_read(directory)
        assert store.stats.warning is not None
        assert "cold" in store.stats.warning
        assert store.stats.entries == 0
        assert len(list(writer.path.parent.glob("*.corrupt"))) == 1

    def test_repro_cache_counts_every_corrupt_line(self, first, capsys):
        directory, writer = first
        store, _read = lines_read(directory)
        with writer.path.open("ab") as handle:
            handle.write(b"torn one\n{\"torn\": 2}\npartial")
        assert lines_read(directory)[0].stats.corrupt_lines == 3
        capsys.readouterr()
        assert cli_main(["cache", "--cache-dir", directory]) == 0
        out = capsys.readouterr().out
        assert "entries:         6" in out
        assert "corrupt lines:   3 (skipped)" in out
