"""High-level object memory API used by the interpreter and the JIT.

This is the reproduction of the ``objectMemory`` protocol the paper's
interpreter code is written against (Listing 1 uses ``areIntegers:and:``,
``integerValueOf:``, ``isIntegerValue:``, ``integerObjectOf:``).  The
concolic engine replaces this object with a constraint-recording wrapper
(:mod:`repro.concolic.symbolic_memory`) while the *same interpreter code*
keeps running — that is the paper's "interpreters are executable
specifications" insight realized at the API boundary.

Safety policy (paper Section 3.1): the accessors here mirror the VM and
perform **no type checks** — ``integer_value_of`` on a pointer yields
garbage, ``float_value_of`` on a non-float unboxes random bits.  Safe
native methods perform their own checks; unsafe byte-codes do not.
"""

from __future__ import annotations

from repro.errors import InvalidMemoryAccess, UntaggedValueError
from repro.memory.class_table import ClassDescription, ClassTable
from repro.memory.heap import Heap
from repro.memory.layout import (
    HEADER_WORDS,
    WORD_SIZE,
    ObjectFormat,
    encode_header,
    fits_small_int,
    float_to_words,
    header_class_index,
    header_format,
    is_small_int_oop,
    small_int_oop,
    small_int_value,
    words_to_float,
)


class ObjectMemory:
    """Tagged-oop object memory over a flat :class:`Heap`."""

    def __init__(self, heap: Heap, class_table: ClassTable) -> None:
        self.heap = heap
        self.class_table = class_table
        # Special oops; filled in by bootstrap.
        self.nil_object: int = 0
        self.true_object: int = 0
        self.false_object: int = 0
        # Well-known class indices; filled in by bootstrap.
        self.small_integer_class_index: int = -1
        self.float_class_index: int = -1
        self.array_class_index: int = -1

    # ------------------------------------------------------------------
    # tagged SmallIntegers (Listing 1 protocol)

    def is_integer_object(self, oop: int) -> bool:
        """``isIntegerObject:`` — is this oop a tagged SmallInteger?"""
        return is_small_int_oop(oop)

    def are_integers(self, receiver: int, argument: int) -> bool:
        """``areIntegers:and:`` — both oops tagged SmallIntegers?"""
        return is_small_int_oop(receiver) and is_small_int_oop(argument)

    def integer_value_of(self, oop: int) -> int:
        """``integerValueOf:`` — untag without checking (unsafe)."""
        return small_int_value(oop)

    def is_integer_value(self, value: int) -> bool:
        """``isIntegerValue:`` — does *value* fit a tagged SmallInteger?"""
        return fits_small_int(value)

    def integer_object_of(self, value: int) -> int:
        """``integerObjectOf:`` — tag a value known to fit."""
        return small_int_oop(value)

    # ------------------------------------------------------------------
    # booleans

    def boolean_object_of(self, value: bool) -> int:
        return self.true_object if value else self.false_object

    def is_boolean_object(self, oop: int) -> bool:
        return oop in (self.true_object, self.false_object)

    def is_true_object(self, oop: int) -> bool:
        return oop == self.true_object

    def is_false_object(self, oop: int) -> bool:
        return oop == self.false_object

    def is_nil_object(self, oop: int) -> bool:
        return oop == self.nil_object

    def are_identical(self, left: int, right: int) -> bool:
        """Pointer-identity comparison (the ``==`` byte-code semantics)."""
        return left == right

    def identity_hash_of(self, oop: int) -> int:
        """Identity hash derived from the (word-aligned) oop."""
        return (oop >> 2) & 0xFFFFFF

    # ------------------------------------------------------------------
    # headers

    def _header_address(self, oop: int) -> int:
        if is_small_int_oop(oop):
            raise UntaggedValueError(f"oop {oop:#x} is a tagged integer, not a pointer")
        return oop

    def class_index_of(self, oop: int) -> int:
        """Class index of any oop (SmallIntegers report their own class)."""
        if is_small_int_oop(oop):
            return self.small_integer_class_index
        return header_class_index(self.heap.read_word(self._header_address(oop)))

    def class_of(self, oop: int) -> ClassDescription:
        return self.class_table.at(self.class_index_of(oop))

    def format_of(self, oop: int) -> ObjectFormat:
        return header_format(self.heap.read_word(self._header_address(oop)))

    def num_slots_of(self, oop: int) -> int:
        return self.heap.read_word(self._header_address(oop) + WORD_SIZE)

    def is_float_object(self, oop: int) -> bool:
        return (
            not is_small_int_oop(oop)
            and self.class_index_of(oop) == self.float_class_index
        )

    # ------------------------------------------------------------------
    # slots

    def slot_address(self, oop: int, index: int) -> int:
        """Raw byte address of slot *index* — no bounds check (unsafe)."""
        return self._header_address(oop) + (HEADER_WORDS + index) * WORD_SIZE

    def fetch_pointer(self, index: int, oop: int) -> int:
        """``fetchPointer:ofObject:`` — raw slot read, VM-style unsafe.

        Out-of-bounds indices read whatever word follows the object (a
        neighbour's header or slot) or raise
        :class:`~repro.errors.InvalidMemoryAccess` past the heap end —
        exactly the corruption surface missing type checks expose.
        """
        return self.heap.read_word(self.slot_address(oop, index))

    def store_pointer(self, index: int, oop: int, value: int) -> None:
        """``storePointer:ofObject:withValue:`` — raw slot write (unsafe)."""
        self.heap.write_word(self.slot_address(oop, index), value)

    def checked_fetch_pointer(self, index: int, oop: int) -> int:
        """Bounds-checked slot read, as safe native methods perform it."""
        self._check_slot_bounds(index, oop)
        return self.fetch_pointer(index, oop)

    def checked_store_pointer(self, index: int, oop: int, value: int) -> None:
        """Bounds-checked slot write, as safe native methods perform it."""
        self._check_slot_bounds(index, oop)
        self.store_pointer(index, oop, value)

    def _check_slot_bounds(self, index: int, oop: int) -> None:
        if not 0 <= index < self.num_slots_of(oop):
            raise InvalidMemoryAccess(
                self.slot_address(oop, index), "(slot index out of bounds)"
            )

    # ------------------------------------------------------------------
    # allocation

    def instantiate(self, cls: ClassDescription, indexable_size: int = 0) -> int:
        """Allocate a fresh instance of *cls* and return its oop."""
        if indexable_size and not cls.is_variable:
            raise ValueError(f"{cls.name} instances have no indexable slots")
        n_slots = cls.fixed_slots + indexable_size
        address = self.heap.allocate(HEADER_WORDS + n_slots)
        self.heap.write_word(address, encode_header(cls.index, cls.instance_format))
        self.heap.write_word(address + WORD_SIZE, n_slots)
        nil = self.nil_object
        if cls.instance_format.is_pointers:
            for index in range(n_slots):
                self.store_pointer(index, address, nil)
        return address

    # ------------------------------------------------------------------
    # boxed floats

    def float_object_of(self, value: float) -> int:
        """Allocate a boxed float holding *value*."""
        cls = self.class_table.at(self.float_class_index)
        oop = self.instantiate(cls, indexable_size=2)
        high, low = float_to_words(value)
        self.store_pointer(0, oop, high)
        self.store_pointer(1, oop, low)
        return oop

    def float_value_of(self, oop: int) -> float:
        """Unbox a double from *oop*'s body — **no type check** (unsafe).

        Reading a non-float object through this accessor produces the
        "random numbers" / segfault behaviour of the paper's missing
        type-check defects; past-the-heap bodies raise
        :class:`~repro.errors.InvalidMemoryAccess` (the simulated
        segmentation fault).
        """
        high = self.fetch_pointer(0, oop)
        low = self.fetch_pointer(1, oop)
        return words_to_float(high, low)

    # ------------------------------------------------------------------
    # convenience constructors

    def new_array(self, elements: list[int]) -> int:
        cls = self.class_table.at(self.array_class_index)
        oop = self.instantiate(cls, indexable_size=len(elements))
        for index, element in enumerate(elements):
            self.store_pointer(index, oop, element)
        return oop

    def array_elements(self, oop: int) -> list[int]:
        return [
            self.fetch_pointer(index, oop) for index in range(self.num_slots_of(oop))
        ]
