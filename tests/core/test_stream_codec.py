"""Incremental codec vs one-shot: the byte-identity contract.

``StreamEncoder`` must emit *exactly* the code sequence of the one-shot
``compress()`` for the same input and config, no matter how the input
is chunked — including the adversarial chunkings: one bit at a time,
a boundary splitting a phrase mid-match, an empty final chunk.  Both
sides run under both engines: every chunked encode, with either
matcher, must equal the one-shot reference encode, and the assertions
below compare it with the one-shot encode of each engine too.
"""

import random
import tracemalloc
from dataclasses import replace

import pytest

from repro.bitstream import TernaryVector
from repro.core import LZWConfig, StreamDecoder, StreamEncoder, compress
from repro.core.decoder import derive_final_snapshot, iter_decode

CFG = LZWConfig(char_bits=4, dict_size=64, entry_bits=32)

ENGINES = ("reference", "fast")


def one_shot_codes(stream, config, engine):
    return list(compress(stream, LZWConfig(
        char_bits=config.char_bits,
        dict_size=config.dict_size,
        entry_bits=config.entry_bits,
        policy=config.policy,
        lookahead=config.lookahead,
        reset_on_full=config.reset_on_full,
        engine=engine,
    )).compressed.codes)


def chunked_codes(stream, config, chunk_bits):
    enc = StreamEncoder(config)
    codes = []
    if chunk_bits == 0:
        chunks = [stream]
    else:
        chunks = [
            stream[i : i + chunk_bits] for i in range(0, len(stream), chunk_bits)
        ]
    for chunk in chunks:
        codes.extend(enc.feed(chunk))
    codes.extend(enc.finalize())
    assert enc.original_bits == len(stream)
    return codes


def stream_codes(stream, config, chunk_bits):
    """The chunked encode's codes, checked under every engine.

    Each engine's chunked run must equal the one-shot reference encode.
    """
    expected = one_shot_codes(stream, config, "reference")
    for engine in ENGINES:
        codes = chunked_codes(stream, replace(config, engine=engine), chunk_bits)
        assert codes == expected, (engine, chunk_bits)
    return codes


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_input(engine):
    enc = StreamEncoder(CFG)
    assert enc.feed(TernaryVector.xs(0)) == []
    assert enc.finalize() == []
    assert enc.original_bits == 0
    assert one_shot_codes(TernaryVector.xs(0), CFG, engine) == []


@pytest.mark.parametrize("engine", ENGINES)
def test_input_smaller_than_one_chunk(engine):
    stream = TernaryVector("01X")
    assert stream_codes(stream, CFG, 4096) == one_shot_codes(
        stream, CFG, engine
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("chunk_bits", [1, 2, 3, 7, 64, 0])
def test_chunk_boundary_splits_phrase_mid_match(engine, chunk_bits):
    # A highly repetitive stream grows long dictionary phrases, so any
    # small chunking is guaranteed to cut through matches in progress.
    stream = TernaryVector("0110X01X" * 40)
    assert stream_codes(stream, CFG, chunk_bits) == one_shot_codes(
        stream, CFG, engine
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "policy,lookahead", [("first", 4), ("popular", 4), ("lookahead", 2),
                         ("lookahead", 4)]
)
def test_differential_random_streams(engine, policy, lookahead):
    rng = random.Random(hash((engine, policy, lookahead)) & 0xFFFF)
    for reset in (False, True):
        config = LZWConfig(
            char_bits=4,
            dict_size=48,
            entry_bits=32,
            policy=policy,
            lookahead=lookahead,
            reset_on_full=reset,
        )
        for _ in range(6):
            n = rng.randrange(0, 700)
            stream = TernaryVector.random(
                n, x_density=rng.choice([0.0, 0.25, 0.6]), rng=rng
            )
            chunk = rng.choice([1, 5, 37, 128, 0])
            assert stream_codes(stream, config, chunk) == one_shot_codes(
                stream, config, engine
            ), (n, chunk, reset)


def test_final_partial_character_padding():
    # A length that is not a multiple of char_bits exercises the
    # X-padded partial character on the finalize path.
    stream = TernaryVector("0110X01X0110X01X011")
    assert len(stream) % CFG.char_bits != 0
    for engine in ENGINES:
        assert stream_codes(stream, CFG, 3) == one_shot_codes(
            stream, CFG, engine
        )


def test_stream_decoder_matches_iter_decode():
    rng = random.Random(7)
    stream = TernaryVector.random(900, x_density=0.3, rng=rng)
    result = compress(stream, CFG)
    dec = StreamDecoder(CFG)
    pushed = []
    for code in result.compressed.codes:
        pushed.extend(dec.push(code))
    expected = []
    for _index, chars in iter_decode(result.compressed.codes, CFG):
        expected.extend(chars)
    assert pushed == expected


def test_stream_decoder_snapshot_equals_derived():
    rng = random.Random(8)
    stream = TernaryVector.random(600, x_density=0.2, rng=rng)
    codes = compress(stream, CFG).compressed.codes
    dec = StreamDecoder(CFG)
    for code in codes:
        dec.push(code)
    derived = derive_final_snapshot(codes, CFG)
    assert dec.snapshot().digest == derived.digest


def test_resume_from_boundary_is_byte_identical():
    """The crash-resume contract: seed+link from a code boundary, then
    refeed the remaining bits — the continuation emits exactly the codes
    the uninterrupted encode would have, under both engines (the fast
    one rebuilds its suffix packs from the restored dictionary)."""
    rng = random.Random(9)
    stream = TernaryVector.random(800, x_density=0.3, rng=rng)
    full = stream_codes(stream, CFG, 64)

    # Split the *code* sequence at an arbitrary prefix, derive the
    # boundary dictionary + link, and count the bits that prefix covers.
    cut = len(full) // 2
    prefix_codes = full[:cut]
    dec = StreamDecoder(CFG)
    chars = []
    for code in prefix_codes:
        chars.extend(dec.push(code))
    consumed_bits = len(chars) * CFG.char_bits
    snapshot = dec.snapshot()

    for engine in ENGINES:
        resumed = StreamEncoder(
            replace(CFG, engine=engine), seed=snapshot, link=prefix_codes[-1]
        )
        tail_codes = []
        remaining = stream[consumed_bits:]
        for i in range(0, len(remaining), 50):
            tail_codes.extend(resumed.feed(remaining[i : i + 50]))
        tail_codes.extend(resumed.finalize())
        assert prefix_codes + tail_codes == full


def test_encoder_retention_is_bounded():
    """Deterministic memory-flatness proxy: the encoder's retained
    character buffer must stay bounded by the longest dictionary entry
    plus the lookahead window plus one chunk, however long the input
    grows (the RSS assertion under setrlimit lives in the CI smoke)."""
    config = LZWConfig(char_bits=4, dict_size=64, entry_bits=32,
                       policy="lookahead", lookahead=4)
    enc = StreamEncoder(config)
    rng = random.Random(10)
    chunk_chars = 32
    bound = config.max_entry_chars + config.lookahead + chunk_chars + 2
    high_water = 0
    for _ in range(200):
        enc.feed(TernaryVector.random(
            chunk_chars * config.char_bits, x_density=0.3, rng=rng
        ))
        high_water = max(high_water, enc.buffered_chars)
    assert high_water <= bound, (high_water, bound)


def _traced_peak(data: bytes, chunk_bytes: int) -> int:
    enc = StreamEncoder(LZWConfig())
    tracemalloc.start()
    try:
        for off in range(0, len(data), chunk_bytes):
            buf = data[off : off + chunk_bytes]
            bits = int.from_bytes(buf, "little")
            enc.feed(TernaryVector.from_int(bits, 8 * len(buf)))
        enc.finalize()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_default_encoder_memory_is_flat_on_random_bytes():
    """Incompressible input makes every window new: the default (fast)
    matcher's memo tables and caches must not grow with the input.
    Same 2x bound as benchmarks/stream_smoke.py, at N and 10N bytes."""
    rng = random.Random(11)
    size = 8 * 1024
    base = _traced_peak(rng.getrandbits(8 * size).to_bytes(size, "little"), 2048)
    big = _traced_peak(
        rng.getrandbits(80 * size).to_bytes(10 * size, "little"), 2048
    )
    assert big <= 2 * base, (base, big)
