"""Chunking a ternary scan stream into LZW characters.

The LZW engine consumes the scan-in stream ``C_C`` bits at a time.  The
final chunk is padded with X bits — the decompressor output is truncated
back to the original length, so the pad assignment is immaterial and the
encoder may exploit it like any other don't-care.
"""

from __future__ import annotations

from typing import List, Sequence

from .fields import pack_fields
from .ternary import TernaryVector

__all__ = ["chars_to_vector", "to_characters", "from_characters", "pad_length"]


def pad_length(stream_bits: int, char_bits: int) -> int:
    """Number of X pad bits appended so the stream is a whole number of chars."""
    if char_bits <= 0:
        raise ValueError("char_bits must be positive")
    remainder = stream_bits % char_bits
    return 0 if remainder == 0 else char_bits - remainder


def to_characters(stream: TernaryVector, char_bits: int) -> List[TernaryVector]:
    """Split ``stream`` into ``char_bits``-wide ternary characters.

    The last character is padded with X bits when the stream length is
    not a multiple of ``char_bits``.
    """
    pad = pad_length(len(stream), char_bits)
    if pad:
        stream = stream + TernaryVector.xs(pad)
    return stream.chunks(char_bits)


def from_characters(chars: Sequence[TernaryVector]) -> TernaryVector:
    """Concatenate characters back into a single stream (pad included)."""
    return TernaryVector.concat_all(list(chars))


def chars_to_vector(chars: Sequence[int], char_bits: int) -> TernaryVector:
    """Concatenate decoded character values into a fully specified vector."""
    length = len(chars) * char_bits
    return TernaryVector.from_int(pack_fields(chars, char_bits), length)
