"""Software reference LZW decoder: the one-shot entry points.

This mirrors the hardware decompressor of the paper's Figure 5 at the
algorithmic level: given the code stream and the shared
:class:`~repro.core.config.LZWConfig`, it rebuilds the dictionary —
honouring the same capacity (``N``) and entry-width (``C_MDATA``) bounds
the encoder obeyed — and reproduces the fully specified scan stream.

The decode loop itself is :meth:`repro.core.stream.StreamDecoder.push`;
every function here is a thin wrapper over it.  :func:`iter_decode`
yields per-code expansions so the salvage decoder
(:mod:`repro.reliability.salvage`) can recover the longest decodable
prefix of a corrupted stream; :func:`decode_codes` is the strict
all-or-nothing wrapper.  Failures raise
:class:`~repro.reliability.errors.DecodeError` carrying the code index,
the bit offset of the code in the packed payload and the dictionary
state at the failure point; a seed the encoder could never have held
raises :class:`~repro.reliability.errors.SnapshotError`.

The cycle-accurate model lives in :mod:`repro.hardware.decompressor`;
both must agree bit-for-bit, which the test suite checks.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from ..bitstream import TernaryVector, chars_to_vector
from ..observability import Recorder
from ..reliability.errors import DecodeError
from .config import LZWConfig
from .dictionary import DictionarySnapshot
from .encoder import CompressedStream
from .stream import StreamDecoder

__all__ = [
    "DecodeError",
    "LZWDecodeError",
    "decode",
    "decode_codes",
    "derive_final_snapshot",
    "iter_decode",
]

#: Backwards-compatible name for the typed decode failure.
LZWDecodeError = DecodeError


def decode(
    compressed: CompressedStream,
    recorder: Optional[Recorder] = None,
    seed: Optional[DictionarySnapshot] = None,
    link: Optional[int] = None,
) -> TernaryVector:
    """Decode a :class:`CompressedStream` back to a fully specified stream.

    The result is truncated to ``compressed.original_bits`` (the encoder
    pads the final character with don't-cares).  An empty code stream
    with ``original_bits == 0`` decodes to the empty vector.

    ``seed``/``link`` decode a *warm-seeded* segment: the stream was
    produced by an encoder whose dictionary started from ``seed`` (and,
    for pipelined-wave shards, whose previous phrase ended at code
    ``link``) — see :class:`~repro.core.stream.StreamDecoder`.
    """
    config = compressed.config
    chars = decode_codes(compressed.codes, config, recorder, seed=seed, link=link)
    stream = chars_to_vector(chars, config.char_bits)
    original_bits = compressed.original_bits
    if original_bits > len(stream):
        raise DecodeError(
            f"decoded {len(stream)} bits but {original_bits} expected",
            decoded_bits=len(stream),
            expected_bits=original_bits,
        )
    return stream[:original_bits]


def decode_codes(
    codes: Sequence[int],
    config: LZWConfig,
    recorder: Optional[Recorder] = None,
    seed: Optional[DictionarySnapshot] = None,
    link: Optional[int] = None,
) -> List[int]:
    """Decode a code sequence to its character sequence.

    Pure-function core shared by :func:`decode` and the tests that
    cross-check the hardware model.
    """
    push = StreamDecoder(config, recorder, seed=seed, link=link).push
    out: List[int] = []
    for code in codes:
        out += push(code)
    return out


def iter_decode(
    codes: Sequence[int],
    config: LZWConfig,
    recorder: Optional[Recorder] = None,
    seed: Optional[DictionarySnapshot] = None,
    link: Optional[int] = None,
) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """Decode incrementally, yielding ``(code_index, characters)`` pairs.

    Each yielded tuple is the expansion of ``codes[code_index]``.
    Raising happens *before* the offending code contributes any output,
    so a consumer that stops at the first :class:`DecodeError` holds
    precisely the longest decodable prefix.
    """
    push = StreamDecoder(config, recorder, seed=seed, link=link).push
    for index, code in enumerate(codes):
        yield index, push(code)


def derive_final_snapshot(
    codes: Sequence[int],
    config: LZWConfig,
    seed: Optional[DictionarySnapshot] = None,
    link: Optional[int] = None,
) -> DictionarySnapshot:
    """Dictionary state after encoding the stream behind ``codes``.

    Decodes the codes and returns the snapshot an encoder would have
    held **after emitting the last code but before the next
    cross-boundary allocation** — the exact seed a pipelined-wave
    successor shard needs (paired with ``link=codes[-1]``).  This is how
    chain seeds are *derived* rather than stored: the decoder, the
    verifier and the supervisor's lost-seed retry path all recompute
    them from bytes they already have.

    Raises :class:`~repro.reliability.errors.DecodeError` when the
    codes are not decodable under the (seeded) dictionary — a tampered
    stream can never silently produce a wrong seed.
    """
    decoder = StreamDecoder(config, seed=seed, link=link)
    for code in codes:
        decoder.push(code)
    return decoder.snapshot()
