"""Tests for read thresholds, hard reads and error statistics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import (
    FlashParameters,
    default_read_thresholds,
    hard_read,
    level_error_rate,
    per_level_error_counts,
    per_level_error_rates,
)
from repro.flash.cell import NUM_LEVELS


class TestThresholds:
    def test_seven_thresholds(self, params):
        assert default_read_thresholds(params).shape == (7,)

    def test_thresholds_between_level_means(self, params):
        thresholds = default_read_thresholds(params)
        means = params.means_array
        assert np.all(thresholds > means[:-1])
        assert np.all(thresholds < means[1:])

    def test_thresholds_increasing(self, params):
        assert np.all(np.diff(default_read_thresholds(params)) > 0)

    def test_hard_read_at_level_means_is_exact(self, params):
        voltages = params.means_array
        np.testing.assert_array_equal(hard_read(voltages, params=params),
                                      np.arange(NUM_LEVELS))

    def test_hard_read_extreme_voltages(self, params):
        assert hard_read(np.array([-100.0]), params=params)[0] == 0
        assert hard_read(np.array([1000.0]), params=params)[0] == 7

    def test_hard_read_rejects_wrong_threshold_count(self):
        with pytest.raises(ValueError):
            hard_read(np.array([1.0]), thresholds=np.array([1.0, 2.0]))

    def test_hard_read_rejects_unsorted_thresholds(self):
        thresholds = default_read_thresholds()
        bad = thresholds.copy()
        bad[3] = bad[2] - 1
        with pytest.raises(ValueError):
            hard_read(np.array([1.0]), thresholds=bad)

    @given(st.floats(min_value=0.0, max_value=650.0))
    @settings(max_examples=100, deadline=None)
    def test_hard_read_level_is_valid(self, voltage):
        level = hard_read(np.array([voltage]))[0]
        assert 0 <= level < NUM_LEVELS

    @given(st.floats(0.0, 640.0), st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_hard_read_monotone_in_voltage(self, voltage, delta):
        low, high = hard_read(np.array([voltage, voltage + delta]))
        assert high >= low


class TestErrorStatistics:
    def test_no_errors_for_noiseless_voltages(self, params):
        levels = np.tile(np.arange(NUM_LEVELS), (8, 1))
        voltages = params.means_array[levels]
        assert level_error_rate(levels, voltages, params=params) == 0.0

    def test_all_errors_for_shifted_voltages(self, params):
        levels = np.full((4, 4), 2)
        voltages = np.full((4, 4), params.means_array[5])
        assert level_error_rate(levels, voltages, params=params) == 1.0

    def test_error_rate_between_zero_and_one(self, channel):
        program, voltages = channel.paired_blocks(2, 7000)
        rate = level_error_rate(program, voltages)
        assert 0.0 <= rate <= 1.0

    def test_per_level_counts_sum_matches_total(self, channel):
        program, voltages = channel.paired_blocks(2, 10000)
        counts = per_level_error_counts(program, voltages)
        total = level_error_rate(program, voltages) * program.size
        assert counts.sum() == pytest.approx(total)

    def test_per_level_counts_shape(self, channel):
        program, voltages = channel.paired_blocks(1, 4000)
        assert per_level_error_counts(program, voltages).shape == (NUM_LEVELS,)

    def test_per_level_counts_attribute_errors_to_the_programmed_level(
            self, params):
        """An error counts under the level the host programmed, not the
        level the cell reads as."""
        levels = np.array([0, 3, 3, 5, 7])
        voltages = params.means_array[[1, 4, 3, 5, 6]]
        np.testing.assert_array_equal(
            per_level_error_counts(levels, voltages, params=params),
            [1, 0, 0, 1, 0, 0, 0, 1])

    def test_per_level_counts_read_at_the_given_params(self):
        """Cells at a channel's own level means read cleanly at its own
        thresholds; at the default thresholds a 40 V shift (over half the
        70 V level spacing) reads levels 1-6 one level high, and level 7
        stays the top level."""
        means = np.array(FlashParameters().level_means)
        means[1:] += 40.0
        shifted = FlashParameters(level_means=tuple(means))
        levels = np.tile(np.arange(NUM_LEVELS), (4, 1))
        voltages = shifted.means_array[levels]
        np.testing.assert_array_equal(
            per_level_error_counts(levels, voltages, params=shifted), 0)
        np.testing.assert_array_equal(
            per_level_error_counts(levels, voltages),
            [0, 4, 4, 4, 4, 4, 4, 0])

    def test_per_level_rates_bounded(self, channel):
        program, voltages = channel.paired_blocks(1, 10000)
        rates = per_level_error_rates(program, voltages)
        assert np.all(rates >= 0.0) and np.all(rates <= 1.0)

    def test_per_level_rates_zero_for_missing_level(self, params):
        levels = np.full((4, 4), 3)
        voltages = params.means_array[levels]
        rates = per_level_error_rates(levels, voltages, params=params)
        assert rates[5] == 0.0

    def test_mismatched_shapes_rejected(self, params):
        with pytest.raises(ValueError):
            level_error_rate(np.zeros((2, 2), dtype=int), np.zeros((3, 3)))

    def test_empty_input_rejected(self, params):
        with pytest.raises(ValueError):
            level_error_rate(np.zeros((0,), dtype=int), np.zeros((0,)))


class TestPaperFacts:
    """Quantitative facts from the paper the simulator must reproduce."""

    @pytest.fixture(scope="class")
    def cycling_counts(self):
        from repro.channel import SimulatorChannel
        channel = SimulatorChannel(rng=np.random.default_rng(99))
        counts = {}
        rates = {}
        for pe_cycles in (4000, 7000, 10000):
            program, voltages = channel.paired_blocks(60, pe_cycles)
            counts[pe_cycles] = per_level_error_counts(program, voltages)
            rates[pe_cycles] = level_error_rate(program, voltages)
        return counts, rates

    def test_error_rate_increases_with_cycling(self, cycling_counts):
        _, rates = cycling_counts
        assert rates[4000] < rates[7000] < rates[10000]

    def test_error_rate_in_paper_band(self, cycling_counts):
        """Fig. 2 reports level error rates between 1e-3 and ~1e-2."""
        _, rates = cycling_counts
        assert 5e-4 < rates[4000] < 2e-2
        assert 5e-4 < rates[10000] < 3e-2

    def test_total_error_growth_factor(self, cycling_counts):
        """Fig. 5: errors at 10000 cycles are ~2.5x those at 4000 cycles."""
        counts, _ = cycling_counts
        ratio = counts[10000][1:].sum() / counts[4000][1:].sum()
        assert 1.8 < ratio < 3.5

    def test_level_one_has_highest_error_count(self, cycling_counts):
        """Fig. 5: program level 1 contributes the most errors."""
        counts, _ = cycling_counts
        programmed = counts[7000][1:]
        assert programmed.argmax() == 0  # index 0 of levels 1..7 is level 1
