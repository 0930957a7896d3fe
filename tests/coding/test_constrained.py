"""Tests for the ICI-mitigating constrained code."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import SimulatorChannel
from repro.coding import (
    ICIConstrainedCode,
    constrained_coding_gain,
    forbidden_pattern_positions,
    has_forbidden_pattern,
)
from repro.flash import BlockGeometry


@pytest.fixture
def block_with_pattern():
    levels = np.zeros((5, 5), dtype=int)
    levels[1, 2] = 7
    levels[3, 2] = 7          # (2, 2) is a 7-0-7 victim in the BL direction
    return levels


class TestForbiddenPatterns:
    def test_detects_bitline_high_low_high(self, block_with_pattern):
        mask = forbidden_pattern_positions(block_with_pattern)
        assert mask[2, 2]
        assert mask.sum() == 1

    def test_wordline_pattern_not_flagged(self):
        levels = np.zeros((5, 5), dtype=int)
        levels[2, 1] = 7
        levels[2, 3] = 7       # WL direction only
        assert not has_forbidden_pattern(levels)

    def test_threshold_level_respected(self, block_with_pattern):
        assert has_forbidden_pattern(block_with_pattern, high_level=7)
        block_with_pattern[1, 2] = 5
        assert not has_forbidden_pattern(block_with_pattern, high_level=6)
        assert has_forbidden_pattern(block_with_pattern, high_level=5)

    def test_programmed_victim_not_flagged(self, block_with_pattern):
        block_with_pattern[2, 2] = 3
        assert not has_forbidden_pattern(block_with_pattern)

    def test_rejects_non_2d_input(self):
        with pytest.raises(ValueError):
            forbidden_pattern_positions(np.zeros(5, dtype=int))

    def test_rejects_bad_high_level(self):
        with pytest.raises(ValueError):
            forbidden_pattern_positions(np.zeros((3, 3), dtype=int),
                                        high_level=0)


class TestICIConstrainedCode:
    def test_encode_removes_all_forbidden_patterns(self, rng=None):
        generator = np.random.default_rng(3)
        code = ICIConstrainedCode()
        levels = generator.integers(0, 8, size=(64, 64))
        encoded, _ = code.encode(levels)
        assert not has_forbidden_pattern(encoded, code.high_level)

    def test_encode_decode_roundtrip(self):
        generator = np.random.default_rng(4)
        code = ICIConstrainedCode()
        levels = generator.integers(0, 8, size=(32, 32))
        encoded, lifted = code.encode(levels)
        np.testing.assert_array_equal(code.decode(encoded, lifted), levels)

    def test_encode_only_touches_victims(self, block_with_pattern):
        code = ICIConstrainedCode()
        encoded, lifted = code.encode(block_with_pattern)
        assert lifted.sum() == 1
        assert encoded[2, 2] == code.lift_to
        untouched = ~lifted
        np.testing.assert_array_equal(encoded[untouched],
                                      block_with_pattern[untouched])

    def test_overhead_between_zero_and_one(self):
        generator = np.random.default_rng(5)
        code = ICIConstrainedCode()
        _, lifted = code.encode(generator.integers(0, 8, size=(64, 64)))
        assert 0.0 <= code.overhead(lifted) <= 0.05

    def test_decode_rejects_mismatched_mask(self):
        code = ICIConstrainedCode()
        with pytest.raises(ValueError):
            code.decode(np.zeros((4, 4), dtype=int), np.zeros((3, 3), dtype=bool))

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            ICIConstrainedCode(high_level=0)
        with pytest.raises(ValueError):
            ICIConstrainedCode(lift_to=0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, seed):
        generator = np.random.default_rng(seed)
        code = ICIConstrainedCode()
        levels = generator.integers(0, 8, size=(16, 16))
        encoded, lifted = code.encode(levels)
        assert not has_forbidden_pattern(encoded, code.high_level)
        np.testing.assert_array_equal(code.decode(encoded, lifted), levels)


class TestCodingGain:
    def test_constrained_code_reduces_errors_on_worn_device(self):
        channel = SimulatorChannel(geometry=BlockGeometry(64, 64),
                                   rng=np.random.default_rng(6))
        result = constrained_coding_gain(channel, 10000, num_blocks=12)
        assert result.coded_error_rate < result.uncoded_error_rate
        assert 0.0 < result.gain < 1.0
        assert result.overhead < 0.05

    def test_rejects_zero_blocks(self):
        channel = SimulatorChannel(rng=np.random.default_rng(7))
        with pytest.raises(ValueError):
            constrained_coding_gain(channel, 4000, num_blocks=0)
