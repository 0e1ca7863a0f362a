"""Every decode entry point agrees: on bad seeds and on failure diagnostics.

``decode``, ``decode_codes``, ``iter_decode``, ``derive_final_snapshot``
and ``decode_container`` all run the one decode loop,
:meth:`StreamDecoder.push`.  These tests pin the two places where
separate loops used to disagree: a seed no encoder could have held
(accepted by one decoder, rejected by the others) and the diagnostics
of an undecodable code.
"""

import pytest

from repro.bitstream import TernaryVector
from repro.container import SEED_BLOB, SegmentSeed, decode_container, dump_segments
from repro.core import (
    CompressedStream,
    DictionarySnapshot,
    LZWConfig,
    StreamDecoder,
    compress,
    decode,
    decode_codes,
    derive_final_snapshot,
    iter_decode,
)
from repro.reliability.errors import DecodeError, ReproError
from repro.workloads import build_testset

# Two-character entries: C_MDATA = 14 bits of 7-bit characters.
CFG = LZWConfig(char_bits=7, dict_size=1024, entry_bits=14)
CODES = [130, 5]
# Code 128 is allocated twice, and code 130 = string(128) + 1 is a
# three-character entry under a two-character memory word.
BAD_SEED = DictionarySnapshot(7, 1024, 14, ((5, 3), (5, 3), (128, 1)))


def _decode_entry_points():
    return {
        "decode": lambda: decode(
            CompressedStream(tuple(CODES), CFG, 28), seed=BAD_SEED
        ),
        "decode_codes": lambda: decode_codes(CODES, CFG, seed=BAD_SEED),
        "iter_decode": lambda: list(iter_decode(CODES, CFG, seed=BAD_SEED)),
        "StreamDecoder": lambda: [
            StreamDecoder(CFG, seed=BAD_SEED).push(code) for code in CODES
        ],
        "derive_final_snapshot": lambda: derive_final_snapshot(
            CODES, CFG, seed=BAD_SEED
        ),
    }


def test_unreplayable_seed_parses():
    """The tamper is structurally valid, so only a replay can catch it."""
    assert DictionarySnapshot.from_bytes(BAD_SEED.to_bytes()) == BAD_SEED


@pytest.mark.parametrize("entry_point", sorted(_decode_entry_points()))
def test_unreplayable_seed_is_rejected_by_every_decoder(entry_point):
    with pytest.raises(ReproError):
        _decode_entry_points()[entry_point]()


@pytest.mark.parametrize("verify", [True, False])
def test_unreplayable_blob_seed_is_rejected_by_decode_container(verify):
    """A v4 container carrying the seed as a blob, every CRC consistent.

    The declared stream is what a decoder that skips the replay would
    produce, so the stream digest cannot be what rejects it.
    """
    stream = TernaryVector.concat_all(
        [TernaryVector.from_int(char, CFG.char_bits) for char in (5, 3, 1, 5)]
    )
    data = dump_segments(
        [CompressedStream(tuple(CODES), CFG, len(stream))],
        [stream],
        seeds=[SegmentSeed(SEED_BLOB, BAD_SEED)],
    )
    with pytest.raises(ReproError):
        decode_container(data, verify=verify)


def _tampered_codes():
    """A real code stream with one code past the next free code."""
    stream = build_testset("s5378f", scale=0.05, seed=3).to_stream()
    codes = list(compress(stream, CFG).compressed.codes)
    codes[40] = CFG.dict_size - 1
    return codes


def _diagnostics(exc):
    return {
        name: getattr(exc, name, None)
        for name in (
            "code_index",
            "code",
            "bit_offset",
            "dict_next_code",
            "chars_decoded",
        )
    }


def test_every_decoder_reports_the_same_diagnostics():
    codes = _tampered_codes()

    def stream_decoder():
        decoder = StreamDecoder(CFG)
        for code in codes:
            decoder.push(code)

    failures = []
    for run in (
        lambda: list(iter_decode(codes, CFG)),
        stream_decoder,
        lambda: derive_final_snapshot(codes, CFG),
    ):
        with pytest.raises(DecodeError) as info:
            run()
        failures.append(_diagnostics(info.value))
    assert failures[0]["code_index"] == 40
    assert failures[0]["bit_offset"] == 40 * CFG.code_bits
    assert None not in failures[0].values()
    assert failures[1] == failures[0]
    assert failures[2] == failures[0]
