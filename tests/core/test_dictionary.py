"""Unit tests for the bounded-entry LZW dictionary."""

import pytest

from repro.bitstream import TernaryVector
from repro.core import LZWConfig, LZWDictionary


def masks(tchar):
    """A ternary character as the ``(value, care)`` pair the scans take."""
    return tchar.value_mask, tchar.care_mask


@pytest.fixture
def d():
    # 2-bit chars: base codes 0..3; up to 3 chars (7 bits) per entry.
    return LZWDictionary(LZWConfig(char_bits=2, dict_size=12, entry_bits=7))


class TestBaseCodes:
    def test_initial_population(self, d):
        assert len(d) == 4
        assert d.next_code == 4
        assert d.allocated == 0
        for c in range(4):
            assert d.string(c) == (c,)
            assert d.nchars(c) == 1
            assert d.weight(c) == 1

    def test_not_full_initially(self, d):
        assert not d.is_full


class TestAdd:
    def test_add_returns_new_code(self, d):
        assert d.add(0, 1) == 4
        assert d.string(4) == (0, 1)
        assert d.nchars(4) == 2
        assert d.string_bits(4) == 4

    def test_add_builds_trie(self, d):
        c1 = d.add(0, 1)
        c2 = d.add(c1, 2)
        assert d.string(c2) == (0, 1, 2)
        assert d.lookup_child(0, 1) == c1
        assert d.lookup_child(c1, 2) == c2

    def test_duplicate_child_rejected(self, d):
        assert d.add(0, 1) == 4
        assert d.add(0, 1) is None

    def test_entry_width_bound(self, d):
        c1 = d.add(0, 1)
        c2 = d.add(c1, 2)
        # 3 chars = 6 bits <= 7; a 4th char (8 bits) must not fit.
        assert not d.can_extend(c2)
        assert d.add(c2, 3) is None

    def test_capacity_bound(self, d):
        # 12 total codes - 4 base = 8 entries.
        for i in range(8):
            assert d.add(i % 4, (i + 1) % 4) is not None or True
        # Fill deterministically instead:
        d2 = LZWDictionary(LZWConfig(char_bits=2, dict_size=6, entry_bits=7))
        assert d2.add(0, 1) == 4
        assert d2.add(1, 2) == 5
        assert d2.is_full
        assert d2.add(2, 3) is None

    def test_weight_propagates_to_ancestors(self, d):
        c1 = d.add(0, 1)
        d.add(c1, 2)
        d.add(c1, 3)
        assert d.weight(c1) == 3  # itself + two children
        assert d.weight(0) == 4  # base + subtree


class TestMatching:
    def test_compatible_children_fully_specified(self, d):
        c1 = d.add(0, 1)
        d.add(0, 3)
        found = d.compatible_children(0, *masks(TernaryVector.from_int(1, 2)))
        assert found == [(1, c1)]

    def test_compatible_children_with_x(self, d):
        c1 = d.add(0, 1)  # char 0b01
        c3 = d.add(0, 3)  # char 0b11
        d.add(0, 0)  # char 0b00
        # "X1" (bit0=1, bit1=X) matches chars 1 and 3 but not 0.
        tchar = TernaryVector.from_masks(value=0b01, care=0b01, length=2)
        found = sorted(d.compatible_children(0, *masks(tchar)))
        assert found == [(1, c1), (3, c3)]

    def test_compatible_children_all_x(self, d):
        c1 = d.add(2, 1)
        found = d.compatible_children(2, *masks(TernaryVector.xs(2)))
        assert found == [(1, c1)]

    def test_compatible_bases_includes_zero_fill(self, d):
        tchar = TernaryVector.xs(2)
        assert d.compatible_bases(*masks(tchar)) == [0]

    def test_compatible_bases_prefers_active(self, d):
        d.add(3, 1)  # base 3 now has a child
        bases = d.compatible_bases(*masks(TernaryVector.xs(2)))
        assert set(bases) == {0, 3}

    def test_compatible_bases_respects_care_bits(self, d):
        d.add(3, 1)
        # bit0 must be 0 -> base 3 (0b11) incompatible; zero-fill = 0b00.
        tchar = TernaryVector.from_masks(value=0, care=0b01, length=2)
        assert d.compatible_bases(*masks(tchar)) == [0]


class TestCMDataBoundary:
    """Entries at exactly the C_MDATA memory-word limit."""

    def test_entry_at_exact_limit_is_allocated(self):
        # entry_bits=4, char_bits=2 -> max_entry_chars = 2.
        d = LZWDictionary(LZWConfig(char_bits=2, dict_size=32, entry_bits=4))
        c = d.add(0, 1)
        assert c is not None
        assert d.nchars(c) == 2
        assert d.string_bits(c) == 4  # exactly C_MDATA

    def test_entry_one_past_limit_rejected(self):
        d = LZWDictionary(LZWConfig(char_bits=2, dict_size=32, entry_bits=4))
        c = d.add(0, 1)
        assert not d.can_extend(c)
        assert d.add(c, 2) is None
        # The rejection allocates nothing and leaves the trie intact.
        assert d.allocated == 1
        assert d.children(c) == {}

    def test_can_extend_flips_exactly_at_boundary(self, d):
        # Fixture: entry_bits=7, char_bits=2 -> max 3 chars.
        c1 = d.add(0, 1)
        c2 = d.add(c1, 2)
        assert d.can_extend(0)  # 1 -> 2 chars ok
        assert d.can_extend(c1)  # 2 -> 3 chars ok
        assert not d.can_extend(c2)  # 3 -> 4 chars over C_MDATA

    def test_base_codes_unaffected_by_tiny_entry_bits(self):
        # max_entry_chars = 1: nothing beyond base codes can ever fit.
        d = LZWDictionary(LZWConfig(char_bits=2, dict_size=32, entry_bits=2))
        assert d.add(0, 1) is None
        assert d.allocated == 0


class TestFullBehavior:
    """Once all N codes exist the dictionary freezes but keeps matching."""

    @pytest.fixture
    def full(self):
        d = LZWDictionary(LZWConfig(char_bits=2, dict_size=6, entry_bits=8))
        assert d.add(0, 1) == 4
        assert d.add(0, 2) == 5
        return d

    def test_full_flag_and_counts(self, full):
        assert full.is_full
        assert full.next_code == 6
        assert full.allocated == 2

    def test_add_when_full_is_noop(self, full):
        assert full.add(1, 3) is None
        assert full.add(4, 3) is None
        assert len(full) == 6
        assert full.children(1) == {}

    def test_matching_still_works_when_full(self, full):
        found = full.compatible_children(0, *masks(TernaryVector.xs(2)))
        assert sorted(found) == [(1, 4), (2, 5)]

    def test_weights_frozen_when_full(self, full):
        before = [full.weight(c) for c in range(len(full))]
        full.add(0, 3)
        assert [full.weight(c) for c in range(len(full))] == before


class TestReset:
    """The adaptive variant's flush must restore the pristine state."""

    def test_reset_restores_base_state(self, d):
        c1 = d.add(0, 1)
        d.add(c1, 2)
        d.reset()
        assert len(d) == 4
        assert d.allocated == 0
        assert not d.is_full
        for c in range(4):
            assert d.weight(c) == 1
            assert d.children(c) == {}

    def test_reset_clears_active_bases(self, d):
        d.add(3, 1)
        d.reset()
        # Only the zero-fill fallback remains a candidate.
        assert d.compatible_bases(*masks(TernaryVector.xs(2))) == [0]

    def test_allocation_after_reset_reuses_codes(self, d):
        first = d.add(0, 1)
        d.reset()
        again = d.add(2, 3)
        assert again == first == 4
        assert d.string(4) == (2, 3)

    def test_longest_entry_zero_after_reset(self, d):
        c1 = d.add(0, 1)
        d.add(c1, 2)
        d.reset()
        assert d.longest_entry_chars() == 0


class TestIntrospection:
    def test_iter_entries(self, d):
        c1 = d.add(0, 1)
        d.add(c1, 2)
        entries = list(d.iter_entries())
        assert entries == [(4, (0, 1)), (5, (0, 1, 2))]

    def test_longest_entry(self, d):
        assert d.longest_entry_chars() == 0
        assert d.longest_entry_bits() == 0
        c1 = d.add(0, 1)
        d.add(c1, 2)
        assert d.longest_entry_chars() == 3
        assert d.longest_entry_bits() == 6
