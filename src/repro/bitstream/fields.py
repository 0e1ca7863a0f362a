"""Linear packing and unpacking of bit fields in one integer.

Every ternary mask in the library is a Python integer holding stream
bit ``i`` at integer bit ``i`` (LSB-first).  Building such an integer
one field at a time (``acc |= field << shift``) or splitting it the same
way (``(mask >> shift) & m``) touches the whole ever-growing integer per
field, which is quadratic in the stream length.  :func:`pack_fields` and
:func:`unpack_fields` are the library's only pack and unpack: both work
on small blocks and move whole blocks through ``bytes``, so their cost
is linear in the number of bits.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, List, Union

__all__ = ["pack_fields", "unpack_fields"]

#: Bits accumulated before whole bytes are flushed (pack) and fields per
#: decoded block (unpack, a multiple of 8 so every block is byte-aligned).
#: Both keep the per-field integer operations on a few machine words.
_PACK_BLOCK_BITS = 512
_UNPACK_BLOCK_FIELDS = 64


def pack_fields(values: Iterable[int], widths: Union[int, Iterable[int]]) -> int:
    """Concatenate ``values`` LSB-first; value ``i`` occupies ``widths[i]`` bits.

    ``widths`` is either one width for every value or one width per
    value.  Each value must already fit its width (callers pass
    normalised masks and character values).
    """
    if isinstance(widths, int):
        widths = repeat(widths)
    out = bytearray()
    acc = 0
    nbits = 0
    for value, width in zip(values, widths):
        acc |= value << nbits
        nbits += width
        if nbits >= _PACK_BLOCK_BITS:
            whole = nbits & ~7
            out += (acc & ((1 << whole) - 1)).to_bytes(whole >> 3, "little")
            acc >>= whole
            nbits -= whole
    out += acc.to_bytes((nbits + 7) >> 3, "little")
    return int.from_bytes(out, "little")


def unpack_fields(packed: int, count: int, width: int) -> List[int]:
    """Split ``packed`` into ``count`` ``width``-bit fields, LSB-first.

    Bits above ``packed``'s top bit read as 0, so a field that runs past
    the end of a short vector comes out zero-extended (exactly the masks
    of an X-padded final character).
    """
    if width <= 0:
        raise ValueError("field width must be positive")
    if count <= 0:
        return []
    data = packed.to_bytes((packed.bit_length() + 7) >> 3, "little")
    step = _UNPACK_BLOCK_FIELDS * width >> 3
    shifts = range(0, _UNPACK_BLOCK_FIELDS * width, width)
    mask = (1 << width) - 1
    from_bytes = int.from_bytes
    out: List[int] = []
    for offset in range(0, -(-count * width // 8), step):
        block = from_bytes(data[offset : offset + step], "little")
        out += [(block >> shift) & mask for shift in shifts]
    del out[count:]
    return out
