"""Degenerate inputs: empty and all-X streams through the full stack."""

import pytest

from repro.bitstream import TernaryVector
from repro.container import dump_bytes, load_bytes
from repro.core import CompressedStream, LZWConfig, compress, decode, decompress
from repro.reliability.errors import DecodeError


@pytest.mark.parametrize(
    "config",
    [
        LZWConfig(char_bits=3, dict_size=32, entry_bits=12),
        LZWConfig(),  # the paper's configuration
    ],
    ids=["small", "paper"],
)
class TestDegenerateStreams:
    def test_empty_round_trip(self, config):
        result = compress(TernaryVector(), config)
        assert result.compressed.codes == ()
        assert result.compressed.original_bits == 0
        decoded = decode(result.compressed)
        assert len(decoded) == 0
        assert decoded.covers(TernaryVector())

    def test_all_x_round_trip(self, config):
        for length in (1, 20, 700):
            original = TernaryVector.xs(length)
            result = compress(original, config)
            decoded = decode(result.compressed)
            assert len(decoded) == length
            assert decoded.covers(original)

    def test_single_care_bit(self, config):
        original = TernaryVector("1")
        result = compress(original, config)
        assert decode(result.compressed).covers(original)

    def test_empty_container_round_trip(self, config):
        result = compress(TernaryVector(), config)
        back = load_bytes(dump_bytes(result.compressed))
        assert back.codes == ()
        assert len(decompress(back)) == 0


class TestDecodeEdgeCases:
    def test_empty_codes_zero_bits(self):
        config = LZWConfig(char_bits=3, dict_size=32, entry_bits=12)
        decoded = decode(CompressedStream((), config, 0))
        assert decoded == TernaryVector()

    def test_empty_codes_nonzero_bits_rejected(self):
        config = LZWConfig(char_bits=3, dict_size=32, entry_bits=12)
        with pytest.raises(DecodeError) as info:
            decode(CompressedStream((), config, 5))
        assert info.value.decoded_bits == 0
        assert info.value.expected_bits == 5

    def test_chars_to_stream_empty(self):
        from repro.bitstream import chars_to_vector

        config = LZWConfig(char_bits=3, dict_size=32, entry_bits=12)
        assert chars_to_vector([], config.char_bits) == TernaryVector()
        assert chars_to_vector([], config.char_bits)[:0] == TernaryVector()
