"""Tests for TLC program levels, the Gray mapping and page conversion."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import (
    BITS_PER_CELL,
    ERASED_LEVEL,
    GRAY_MAP,
    NUM_LEVELS,
    levels_to_pages,
    pages_to_levels,
)


class TestConstants:
    def test_tlc_has_eight_levels(self):
        assert NUM_LEVELS == 2 ** BITS_PER_CELL == 8

    def test_erased_level_is_zero(self):
        assert ERASED_LEVEL == 0

    def test_gray_map_covers_all_levels(self):
        assert set(GRAY_MAP) == set(range(NUM_LEVELS))

    def test_gray_map_values_are_distinct(self):
        assert len(set(GRAY_MAP.values())) == NUM_LEVELS

    def test_gray_property_adjacent_levels_differ_in_one_bit(self):
        """Adjacent program levels must differ in exactly one page bit."""
        for level in range(NUM_LEVELS - 1):
            bits_low = GRAY_MAP[level]
            bits_high = GRAY_MAP[level + 1]
            differences = sum(a != b for a, b in zip(bits_low, bits_high))
            assert differences == 1, (level, bits_low, bits_high)

    def test_paper_examples_from_fig1(self):
        """Fig. 1: level 7 stores 011 and the erased level stores 111."""
        assert GRAY_MAP[7] == (0, 1, 1)
        assert GRAY_MAP[0] == (1, 1, 1)
        assert GRAY_MAP[5] == (0, 0, 0)


class TestArrayConversion:
    def test_levels_to_pages_shape(self, rng):
        levels = rng.integers(0, NUM_LEVELS, size=(4, 5))
        pages = levels_to_pages(levels)
        assert pages.shape == (4, 5, 3)

    def test_roundtrip_array(self, rng):
        levels = rng.integers(0, NUM_LEVELS, size=(6, 7))
        np.testing.assert_array_equal(pages_to_levels(levels_to_pages(levels)),
                                      levels)

    def test_levels_to_pages_rejects_invalid_levels(self):
        with pytest.raises(ValueError):
            levels_to_pages(np.array([[0, 9]]))

    def test_pages_to_levels_rejects_bad_last_dim(self):
        with pytest.raises(ValueError):
            pages_to_levels(np.zeros((3, 2), dtype=int))

    def test_pages_to_levels_rejects_non_binary(self):
        with pytest.raises(ValueError):
            pages_to_levels(np.full((2, 3), 2, dtype=int))

    def test_matches_scalar_mapping(self):
        levels = np.arange(NUM_LEVELS)
        pages = levels_to_pages(levels)
        for level in range(NUM_LEVELS):
            assert tuple(pages[level]) == GRAY_MAP[level]

    @given(st.lists(st.integers(0, NUM_LEVELS - 1), min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, level_list):
        levels = np.asarray(level_list)
        np.testing.assert_array_equal(pages_to_levels(levels_to_pages(levels)),
                                      levels)

    def test_single_level_error_flips_single_page_bit(self):
        """The Gray code confines an adjacent-level error to one page."""
        for level in range(NUM_LEVELS - 1):
            pages_a = levels_to_pages(np.array(level))
            pages_b = levels_to_pages(np.array(level + 1))
            assert int(np.sum(pages_a != pages_b)) == 1
