"""No hot bitstream path may be superlinear in the stream length.

Each operation is timed at ``n`` and ``8n`` bits (best of 3).  Linear
code takes about 8x as long at 8n, quadratic code about 64x; the bound
of 20x sits between them with room for timer noise on a loaded host.
"""

import random
import time

import pytest

from repro.bitstream import TernaryVector
from repro.core import CompressedStream, LZWConfig, decode

N_BITS = 150_000
GROWTH = 8
MAX_RATIO = 20.0
CHAR_BITS = 7
CONFIG = LZWConfig(char_bits=CHAR_BITS, dict_size=1024, entry_bits=63)


def _vector(bits):
    rng = random.Random(bits)
    care = rng.getrandbits(bits)
    return TernaryVector.from_masks(rng.getrandbits(bits), care, bits)


def _codes(bits):
    """A decodable code stream expanding to ``bits`` bits: base codes only."""
    rng = random.Random(bits)
    count = bits // CHAR_BITS
    codes = tuple(rng.randrange(CONFIG.base_codes) for _ in range(count))
    return CompressedStream(codes, CONFIG, count * CHAR_BITS)


OPERATIONS = {
    "str": (_vector, str),
    "chunks": (_vector, lambda vector: vector.chunks(CHAR_BITS)),
    "concat_all": (
        lambda bits: _vector(bits).chunks(CHAR_BITS),
        TernaryVector.concat_all,
    ),
    "decode": (_codes, decode),
}


def _best_time(operation, argument, bound=None):
    """Best of 3 wall times; stops early once a run is within ``bound``."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        operation(argument)
        best = min(best, time.perf_counter() - start)
        if bound is not None and best <= bound:
            break
    return best


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_time_grows_linearly(name):
    build, operation = OPERATIONS[name]
    small = _best_time(operation, build(N_BITS))
    large = _best_time(operation, build(GROWTH * N_BITS), MAX_RATIO * small)
    ratio = large / small
    assert ratio <= MAX_RATIO, (
        f"{name}: {GROWTH}x the bits took {ratio:.1f}x the time "
        f"({small * 1e3:.1f} ms -> {large * 1e3:.1f} ms)"
    )
