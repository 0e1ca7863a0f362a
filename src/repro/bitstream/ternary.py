"""Ternary (0/1/X) bit vectors.

Scan test cubes are sequences over ``{0, 1, X}`` where ``X`` marks a
don't-care position that the compressor is free to assign.  This module
provides :class:`TernaryVector`, an immutable vector over that alphabet,
used as the common currency between the ATPG substrate, the workload
generators and every compressor in the library.

Representation
--------------
A vector of length ``n`` stores two unsigned integers:

* ``care``  — bit ``i`` is 1 iff position ``i`` is specified (0 or 1),
* ``value`` — bit ``i`` holds the specified value; it is normalised to 0
  wherever ``care`` is 0.

Position ``i`` of the vector maps to integer bit ``i`` (LSB-first): the
*first* bit of the stream is the least significant bit of both masks.
:meth:`TernaryVector.to_int` and :meth:`TernaryVector.from_int` follow
the same convention, so round-trips never reorder bits.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from .fields import pack_fields, unpack_fields

__all__ = ["X", "TernaryVector"]

#: Sentinel used for a don't-care position when iterating / indexing.
X = None

_CHAR_TO_BIT = {"0": 0, "1": 1, "x": X, "X": X, "-": X}
_TERNARY_CHARS = frozenset(_CHAR_TO_BIT)
# Each character as a binary digit of the value and of the care mask.
_VALUE_DIGITS = str.maketrans("01xX-", "01000")
_CARE_DIGITS = str.maketrans("01xX-", "11000")


def _nibble_strings() -> List[str]:
    """Display string of each 4-bit ``(care, value)`` pair at ``care << 4 | value``."""
    table = [""] * 256
    for care in range(16):
        for value in range(16):
            table[care << 4 | value] = "".join(
                ("1" if value >> i & 1 else "0") if care >> i & 1 else "X"
                for i in range(4)
            )
    return table


_NIBBLE_STRINGS = _nibble_strings()


class TernaryVector:
    """An immutable vector over ``{0, 1, X}``.

    Instances behave like sequences: ``len``, indexing (returning ``0``,
    ``1`` or :data:`X`), slicing (returning a new vector) and
    concatenation with ``+`` are all supported.
    """

    __slots__ = ("_value", "_care", "_length")

    def __init__(self, bits: Union[str, Iterable[Optional[int]], None] = None):
        value = 0
        care = 0
        length = 0
        if isinstance(bits, str):
            if not _TERNARY_CHARS.issuperset(bits):
                for ch in bits:
                    _parse_char(ch)  # raises on the first invalid character
            # Reversed, the first character lands on integer bit 0;
            # base-2 ``int`` is linear in the string length.
            reverse = bits[::-1]
            value = int(reverse.translate(_VALUE_DIGITS) or "0", 2)
            care = int(reverse.translate(_CARE_DIGITS) or "0", 2)
            length = len(bits)
        elif bits is not None:
            bits = list(bits)
            for bit in bits:
                if bit is not X and bit not in (0, 1):
                    raise ValueError(f"ternary bit must be 0, 1 or X, got {bit!r}")
            value = pack_fields([1 if bit else 0 for bit in bits], 1)
            care = pack_fields([0 if bit is X else 1 for bit in bits], 1)
            length = len(bits)
        self._value = value
        self._care = care
        self._length = length

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_masks(cls, value: int, care: int, length: int) -> "TernaryVector":
        """Build a vector directly from its two masks.

        ``value`` bits outside ``care`` are normalised away; bits of
        either mask beyond ``length`` are truncated.
        """
        if length < 0:
            raise ValueError("length must be non-negative")
        mask = (1 << length) - 1
        tv = cls.__new__(cls)
        tv._care = care & mask
        tv._value = value & tv._care
        tv._length = length
        return tv

    @classmethod
    def from_int(cls, value: int, length: int) -> "TernaryVector":
        """A fully specified vector holding ``length`` bits of ``value``."""
        if value < 0:
            raise ValueError("value must be non-negative")
        if length < value.bit_length():
            raise ValueError(f"value {value} does not fit in {length} bits")
        mask = (1 << length) - 1 if length else 0
        return cls.from_masks(value, mask, length)

    @classmethod
    def zeros(cls, length: int) -> "TernaryVector":
        """A fully specified all-zero vector."""
        return cls.from_int(0, length)

    @classmethod
    def xs(cls, length: int) -> "TernaryVector":
        """A vector of ``length`` don't-care bits."""
        return cls.from_masks(0, 0, length)

    @classmethod
    def random(
        cls,
        length: int,
        x_density: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> "TernaryVector":
        """A random vector where each bit is X with probability ``x_density``."""
        if not 0.0 <= x_density <= 1.0:
            raise ValueError("x_density must be within [0, 1]")
        rng = rng or random
        values = []
        cares = []
        for _ in range(length):
            specified = rng.random() >= x_density
            cares.append(specified)
            values.append(specified and rng.random() < 0.5)
        return cls.from_masks(pack_fields(values, 1), pack_fields(cares, 1), length)

    @classmethod
    def concat_all(cls, parts: Sequence["TernaryVector"]) -> "TernaryVector":
        """Concatenate many vectors in linear time (left part comes first)."""
        widths = [part._length for part in parts]
        return cls.from_masks(
            pack_fields([part._value for part in parts], widths),
            pack_fields([part._care for part in parts], widths),
            sum(widths),
        )

    # ------------------------------------------------------------------
    # Mask access
    # ------------------------------------------------------------------
    @property
    def value_mask(self) -> int:
        """Integer of specified-one bits (LSB = first position)."""
        return self._value

    @property
    def care_mask(self) -> int:
        """Integer with a 1 at every specified position."""
        return self._care

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Optional[int]]:
        cares = unpack_fields(self._care, self._length, 1)
        values = unpack_fields(self._value, self._length, 1)
        return iter([value if care else X for care, value in zip(cares, values)])

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            if step == 1:
                width = max(0, stop - start)
                return TernaryVector.from_masks(
                    self._value >> start, self._care >> start, width
                )
            return TernaryVector(self[i] for i in range(start, stop, step))
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("ternary vector index out of range")
        bit = 1 << index
        if self._care & bit:
            return 1 if self._value & bit else 0
        return X

    def __add__(self, other: "TernaryVector") -> "TernaryVector":
        if not isinstance(other, TernaryVector):
            return NotImplemented
        return TernaryVector.from_masks(
            self._value | (other._value << self._length),
            self._care | (other._care << self._length),
            self._length + other._length,
        )

    # ------------------------------------------------------------------
    # Equality / hashing / display
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, TernaryVector):
            return NotImplemented
        return (
            self._length == other._length
            and self._care == other._care
            and self._value == other._value
        )

    def __hash__(self) -> int:
        return hash((self._value, self._care, self._length))

    def __str__(self) -> str:
        count = (self._length + 3) >> 2
        cares = unpack_fields(self._care, count, 4)
        values = unpack_fields(self._value, count, 4)
        table = _NIBBLE_STRINGS
        text = "".join([table[c << 4 | v] for c, v in zip(cares, values)])
        return text[: self._length]

    def __repr__(self) -> str:
        shown = str(self) if self._length <= 64 else str(self[:61]) + "..."
        return f"TernaryVector('{shown}')"

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def care_count(self) -> int:
        """Number of specified (0/1) positions."""
        return bin(self._care).count("1")

    @property
    def x_count(self) -> int:
        """Number of don't-care positions."""
        return self._length - self.care_count

    @property
    def x_density(self) -> float:
        """Fraction of positions that are don't-care (0.0 for empty)."""
        return self.x_count / self._length if self._length else 0.0

    @property
    def is_fully_specified(self) -> bool:
        """True when no position is X."""
        return self.care_count == self._length

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def compatible(self, other: "TernaryVector") -> bool:
        """True when the two vectors agree on every mutually specified bit.

        Compatible vectors can be merged (intersection of cubes is
        non-empty); a compressor output is valid iff it is compatible
        with — and at least as specified as — the original cube stream.
        """
        if self._length != other._length:
            return False
        both = self._care & other._care
        return (self._value & both) == (other._value & both)

    def covers(self, other: "TernaryVector") -> bool:
        """True when ``self`` specifies every care bit of ``other`` identically.

        Used to check that a decompressed (fully specified) stream is a
        legal expansion of the original cube stream.
        """
        if self._length != other._length:
            return False
        if (self._care & other._care) != other._care:
            return False
        return (self._value & other._care) == other._value

    def merge(self, other: "TernaryVector") -> "TernaryVector":
        """Intersection of two compatible cubes (union of care bits)."""
        if not self.compatible(other):
            raise ValueError("cannot merge incompatible ternary vectors")
        return TernaryVector.from_masks(
            self._value | other._value,
            self._care | other._care,
            self._length,
        )

    # ------------------------------------------------------------------
    # Assignment / conversion
    # ------------------------------------------------------------------
    def fill(self, bit: int = 0) -> "TernaryVector":
        """Resolve every X to the constant ``bit`` (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError("fill bit must be 0 or 1")
        mask = (1 << self._length) - 1 if self._length else 0
        value = self._value
        if bit:
            value |= mask & ~self._care
        return TernaryVector.from_masks(value, mask, self._length)

    def fill_repeat_last(self, initial: int = 0) -> "TernaryVector":
        """Resolve each X to the most recent specified bit (run-extending)."""
        bits = []
        last = 1 if initial else 0
        for bit in self:
            if bit is not X:
                last = bit
            bits.append(last)
        return TernaryVector.from_int(pack_fields(bits, 1), self._length)

    def fill_random(self, rng: Optional[random.Random] = None) -> "TernaryVector":
        """Resolve each X to an independent fair coin flip."""
        rng = rng or random
        bits = [int(rng.random() < 0.5) if bit is X else bit for bit in self]
        return TernaryVector.from_int(pack_fields(bits, 1), self._length)

    def to_int(self) -> int:
        """Integer value of a fully specified vector (first bit = LSB)."""
        if not self.is_fully_specified:
            raise ValueError("vector contains X bits; fill() it first")
        return self._value

    def chunks(self, width: int) -> List["TernaryVector"]:
        """Split into consecutive ``width``-bit pieces (last may be short)."""
        if width <= 0:
            raise ValueError("chunk width must be positive")
        count = -(-self._length // width)
        values = unpack_fields(self._value, count, width)
        cares = unpack_fields(self._care, count, width)
        out = [
            TernaryVector.from_masks(v, c, width) for v, c in zip(values, cares)
        ]
        if self._length % width:
            out[-1] = TernaryVector.from_masks(
                values[-1], cares[-1], self._length % width
            )
        return out


def _parse_char(ch: str) -> Optional[int]:
    try:
        return _CHAR_TO_BIT[ch]
    except KeyError:
        raise ValueError(f"invalid ternary character {ch!r}") from None
