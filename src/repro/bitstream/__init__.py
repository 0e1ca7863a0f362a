"""Bit-level substrate: ternary vectors, chunking and variable-width I/O."""

from .bitio import BitReader, BitWriter
from .fields import pack_fields, unpack_fields
from .packing import chars_to_vector, from_characters, pad_length, to_characters
from .ternary import TernaryVector, X

__all__ = [
    "BitReader",
    "BitWriter",
    "TernaryVector",
    "X",
    "chars_to_vector",
    "from_characters",
    "pack_fields",
    "pad_length",
    "to_characters",
    "unpack_fields",
]
