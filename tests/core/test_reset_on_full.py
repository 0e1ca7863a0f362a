"""Unit tests for the adaptive (reset_on_full) dictionary variant."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bitstream import TernaryVector
from repro.core import LZWConfig, LZWDictionary, LZWEncoder, compress, decode
from repro.hardware import DecompressorModel, analyze_download


class TestDictionaryReset:
    def test_reset_restores_base_state(self):
        config = LZWConfig(char_bits=2, dict_size=16, entry_bits=8)
        d = LZWDictionary(config)
        c1 = d.add(0, 1)
        d.add(c1, 2)
        d.reset()
        assert len(d) == config.base_codes
        assert d.allocated == 0
        assert d.longest_entry_chars() == 0
        all_x = TernaryVector.xs(2)
        assert d.compatible_children(0, all_x.value_mask, all_x.care_mask) == []
        # The trie is usable again after the flush.
        assert d.add(0, 1) == config.base_codes


class TestRoundTrip:
    @pytest.fixture
    def config(self):
        # Tiny dictionary so the flush triggers many times.
        return LZWConfig(
            char_bits=1, dict_size=4, entry_bits=3, reset_on_full=True
        )

    def test_flush_triggers_and_decodes(self, config):
        stream = TernaryVector("01101100101101001011" * 4)
        encoder = LZWEncoder(config)
        compressed = encoder.encode(stream)
        # With N=4 and 2 base codes, a frozen dictionary would hold 2
        # entries; the flushing encoder keeps allocating code 2 forever.
        assert encoder.dictionary.allocated <= 1
        assert decode(compressed) == stream

    def test_hardware_model_mirrors_flush(self, config):
        stream = TernaryVector("0110110010" * 6)
        compressed = LZWEncoder(config).encode(stream)
        run = DecompressorModel(config, clock_ratio=3).run(
            compressed.to_bits(), len(stream)
        )
        assert run.scan_stream == decode(compressed)

    def test_timing_model_mirrors_flush(self, config):
        stream = TernaryVector("0110110010" * 6)
        compressed = LZWEncoder(config).encode(stream)
        run = DecompressorModel(config, clock_ratio=5).run(
            compressed.to_bits(), len(stream)
        )
        report = analyze_download(compressed, 5)
        assert report.tester_cycles == run.tester_cycles

    def test_default_config_never_flushes(self):
        frozen = LZWConfig(char_bits=1, dict_size=4, entry_bits=3)
        stream = TernaryVector("01101100101101001011")
        encoder = LZWEncoder(frozen)
        encoder.encode(stream)
        assert encoder.dictionary.is_full


@given(
    text=st.text(alphabet="01X", min_size=1, max_size=300),
    dict_size=st.sampled_from([4, 8, 16]),
)
@settings(max_examples=100, deadline=None)
def test_flush_preserves_coverage(text, dict_size):
    stream = TernaryVector(text)
    config = LZWConfig(
        char_bits=1, dict_size=dict_size, entry_bits=4, reset_on_full=True
    )
    result = compress(stream, config)
    assert result.verify(stream)
