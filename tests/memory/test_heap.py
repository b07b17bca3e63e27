"""Unit tests for the flat heap and its bounds checking."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import HeapExhausted, InvalidMemoryAccess
from repro.memory.heap import Heap, HeapCheckpoint
from repro.memory.layout import WORD_SIZE


@pytest.fixture
def heap():
    return Heap(size_words=128)


class TestAllocation:
    def test_allocation_is_word_aligned(self, heap):
        a = heap.allocate(3)
        b = heap.allocate(1)
        assert a % WORD_SIZE == 0
        assert b == a + 3 * WORD_SIZE

    def test_allocation_is_zeroed(self, heap):
        address = heap.allocate(4)
        for offset in range(4):
            assert heap.read_word(address + offset * WORD_SIZE) == 0

    def test_exhaustion_raises(self, heap):
        heap.allocate(128)
        with pytest.raises(HeapExhausted):
            heap.allocate(1)

    def test_negative_allocation_rejected(self, heap):
        with pytest.raises(ValueError):
            heap.allocate(-1)

    def test_free_pointer_advances(self, heap):
        start = heap.free_pointer
        heap.allocate(2)
        assert heap.free_pointer == start + 2 * WORD_SIZE


class TestAccess:
    def test_read_write_round_trip(self, heap):
        address = heap.allocate(1)
        heap.write_word(address, 0xDEADBEEF)
        assert heap.read_word(address) == 0xDEADBEEF

    def test_writes_are_masked_to_32_bits(self, heap):
        address = heap.allocate(1)
        heap.write_word(address, 1 << 40)
        assert heap.read_word(address) == 0

    def test_unallocated_read_raises(self, heap):
        heap.allocate(1)
        with pytest.raises(InvalidMemoryAccess):
            heap.read_word(heap.free_pointer)

    def test_below_base_read_raises(self, heap):
        with pytest.raises(InvalidMemoryAccess):
            heap.read_word(heap.base_address - WORD_SIZE)

    def test_unaligned_access_raises(self, heap):
        heap.allocate(2)
        with pytest.raises(InvalidMemoryAccess):
            heap.read_word(heap.base_address + 1)

    def test_contains(self, heap):
        address = heap.allocate(1)
        assert heap.contains(address)
        assert not heap.contains(heap.free_pointer)
        assert not heap.contains(address + 1)

    def test_write_count_tracks_mutations(self, heap):
        address = heap.allocate(2)
        before = heap.write_count
        heap.write_word(address, 1)
        heap.write_word(address + WORD_SIZE, 2)
        assert heap.write_count == before + 2


class TestSnapshots:
    def test_diff_reports_changed_words(self, heap):
        address = heap.allocate(2)
        snapshot = heap.snapshot()
        heap.write_word(address + WORD_SIZE, 7)
        diff = heap.diff(snapshot)
        assert diff == {address + WORD_SIZE: (0, 7)}

    def test_diff_reports_new_allocations(self, heap):
        heap.allocate(1)
        snapshot = heap.snapshot()
        new = heap.allocate(1)
        heap.write_word(new, 9)
        assert heap.diff(snapshot) == {new: (0, 9)}

    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=16))
    def test_snapshot_is_faithful(self, values):
        heap = Heap(size_words=32)
        address = heap.allocate(len(values))
        for offset, value in enumerate(values):
            heap.write_word(address + offset * WORD_SIZE, value)
        assert list(heap.snapshot()) == values


class TestCopyOnWriteJournal:
    def test_checkpoint_requires_journal(self, heap):
        assert not heap.journaling
        with pytest.raises(ValueError):
            heap.checkpoint()
        with pytest.raises(ValueError):
            heap.rewind(HeapCheckpoint(0, 0))

    def test_rewind_undoes_writes_and_allocations(self, heap):
        a = heap.allocate(2)
        heap.write_word(a, 7)
        base = heap.start_journal()
        heap.write_word(a, 99)
        b = heap.allocate(2)
        heap.write_word(b, 123)
        heap.rewind(base)
        assert heap.read_word(a) == 7
        assert heap.allocated_words == 2
        assert not heap.contains(b)

    def test_rewound_allocations_come_back_zeroed(self, heap):
        base = heap.start_journal()
        a = heap.allocate(2)
        heap.write_word(a, 0xDEAD)
        heap.rewind(base)
        b = heap.allocate(2)
        assert b == a
        assert heap.read_word(b) == 0

    def test_nested_checkpoints_rewind_independently(self, heap):
        a = heap.allocate(1)
        heap.start_journal()
        heap.write_word(a, 1)
        mid = heap.checkpoint()
        heap.write_word(a, 2)
        heap.rewind(mid)
        assert heap.read_word(a) == 1

    def test_writes_since_matches_diff(self, heap):
        """The COW capture path is byte-identical to the snapshot diff."""
        a = heap.allocate(4)
        heap.write_word(a, 10)
        heap.write_word(a + WORD_SIZE, 20)
        mark = heap.start_journal()
        snap = heap.snapshot()
        heap.write_word(a, 11)            # changed
        heap.write_word(a + WORD_SIZE, 20)  # written, unchanged
        b = heap.allocate(2)
        heap.write_word(b, 33)            # new allocation, written
        # b+WORD_SIZE: new allocation, never written (still reported)
        assert heap.writes_since(mark) == heap.diff(snap)
        assert heap.writes_since(mark) == {
            a: (10, 11),
            b: (0, 33),
            b + WORD_SIZE: (0, 0),
        }

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("write"), st.integers(0, 15), st.integers(0, 2**32 - 1)),
                st.tuples(st.just("alloc"), st.integers(1, 4), st.just(0)),
            ),
            max_size=40,
        )
    )
    def test_journal_agrees_with_snapshots_under_random_traffic(self, ops):
        heap = Heap(size_words=256)
        start = heap.allocate(16)
        for offset in range(16):
            heap.write_word(start + offset * WORD_SIZE, offset + 1)
        mark = heap.start_journal()
        snap = heap.snapshot()
        for op, x, value in ops:
            if op == "write":
                heap.write_word(start + x * WORD_SIZE, value)
            else:
                heap.allocate(x)
        assert heap.writes_since(mark) == heap.diff(snap)
        heap.rewind(mark)
        assert heap.snapshot() == snap
        assert heap.writes_since(mark) == {}
