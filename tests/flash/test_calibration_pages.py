"""Tests for read-threshold calibration and the page-level channel view."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import SimulatorChannel
from repro.flash import (
    FlashParameters,
    PAGE_NAMES,
    calibrate_thresholds,
    default_read_thresholds,
    hard_read,
    level_error_rate,
    optimal_threshold_between,
    optimal_thresholds_from_pdfs,
    page_bit_error_rates,
    page_bit_errors,
    program_pages,
    threshold_sweep,
)
from repro.flash.cell import GRAY_MAP, NUM_LEVELS, levels_to_pages


class TestOptimalThresholdBetween:
    def test_separable_clusters_are_split(self):
        lower = np.array([1.0, 2.0, 3.0])
        upper = np.array([10.0, 11.0, 12.0])
        threshold = optimal_threshold_between(lower, upper)
        assert 3.0 < threshold < 10.0

    def test_threshold_achieves_zero_errors_when_separable(self):
        rng = np.random.default_rng(0)
        lower = rng.normal(100.0, 2.0, size=500)
        upper = rng.normal(160.0, 2.0, size=500)
        threshold = optimal_threshold_between(lower, upper)
        assert np.count_nonzero(lower > threshold) == 0
        assert np.count_nonzero(upper <= threshold) == 0

    def test_overlapping_clusters_minimise_errors(self):
        rng = np.random.default_rng(1)
        lower = rng.normal(100.0, 10.0, size=2000)
        upper = rng.normal(120.0, 10.0, size=2000)
        threshold = optimal_threshold_between(lower, upper)
        best_errors = (np.count_nonzero(lower > threshold)
                       + np.count_nonzero(upper <= threshold))
        # The optimal threshold must not be beaten by a coarse grid search.
        for candidate in np.linspace(80, 140, 121):
            errors = (np.count_nonzero(lower > candidate)
                      + np.count_nonzero(upper <= candidate))
            assert best_errors <= errors

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            optimal_threshold_between(np.array([]), np.array([1.0]))

    @settings(max_examples=20, deadline=None)
    @given(shift=st.floats(min_value=5.0, max_value=60.0))
    def test_threshold_lies_between_cluster_means(self, shift):
        rng = np.random.default_rng(3)
        lower = rng.normal(100.0, 1.0, size=200)
        upper = rng.normal(100.0 + shift, 1.0, size=200)
        threshold = optimal_threshold_between(lower, upper)
        assert lower.mean() < threshold < upper.mean()


class TestCalibrateThresholds:
    def test_calibration_never_hurts_on_training_data(self, params, rng):
        channel = SimulatorChannel(params, rng=rng)
        program, voltages = channel.paired_blocks(6, 10000)
        result = calibrate_thresholds(program, voltages, params=params)
        assert result.error_rate <= result.default_error_rate

    def test_calibration_helps_on_worn_device(self, params, rng):
        """At 10000 P/E the default thresholds are stale; calibration wins."""
        channel = SimulatorChannel(params, rng=rng)
        program, voltages = channel.paired_blocks(8, 10000)
        result = calibrate_thresholds(program, voltages, params=params)
        assert result.improvement > 0.0

    def test_thresholds_strictly_increasing(self, params, rng):
        channel = SimulatorChannel(params, rng=rng)
        program, voltages = channel.paired_blocks(4, 7000)
        result = calibrate_thresholds(program, voltages, params=params)
        assert np.all(np.diff(result.thresholds) > 0)

    def test_default_thresholds_are_reported(self, params, rng):
        channel = SimulatorChannel(params, rng=rng)
        program, voltages = channel.paired_blocks(2, 4000)
        result = calibrate_thresholds(program, voltages, params=params)
        np.testing.assert_allclose(result.default_thresholds,
                                   default_read_thresholds(params))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            calibrate_thresholds(np.zeros((4, 4), dtype=int), np.zeros((2, 2)))

    def test_improvement_zero_when_default_rate_zero(self):
        from repro.flash.calibration import CalibrationResult
        result = CalibrationResult(thresholds=np.arange(7.0),
                                   default_thresholds=np.arange(7.0),
                                   error_rate=0.0, default_error_rate=0.0)
        assert result.improvement == 0.0


class TestOptimalThresholdsFromPdfs:
    def test_gaussian_pdfs_give_midpoint_thresholds(self, params):
        grid = np.linspace(0, 650, 2000)
        means = params.means_array
        sigma = 8.0
        pdfs = np.stack([np.exp(-0.5 * ((grid - mean) / sigma) ** 2)
                         for mean in means])
        thresholds = optimal_thresholds_from_pdfs(pdfs, grid)
        midpoints = (means[:-1] + means[1:]) / 2
        np.testing.assert_allclose(thresholds, midpoints, atol=2.0)

    def test_unequal_priors_shift_the_boundary(self):
        grid = np.linspace(0, 100, 4000)
        pdfs = np.stack([
            np.exp(-0.5 * ((grid - 40.0) / 5.0) ** 2),
            np.exp(-0.5 * ((grid - 60.0) / 5.0) ** 2),
        ])
        balanced = optimal_thresholds_from_pdfs(pdfs, grid)
        skewed = optimal_thresholds_from_pdfs(pdfs, grid,
                                              priors=np.array([0.9, 0.1]))
        assert skewed[0] > balanced[0]

    def test_shape_validation(self):
        grid = np.linspace(0, 1, 10)
        with pytest.raises(ValueError):
            optimal_thresholds_from_pdfs(np.zeros((3, 5)), grid)
        with pytest.raises(ValueError):
            optimal_thresholds_from_pdfs(np.zeros((3, 10)), grid[::-1])
        with pytest.raises(ValueError):
            optimal_thresholds_from_pdfs(np.zeros((3, 10)), grid,
                                         priors=np.array([0.5, 0.5]))


class TestThresholdSweep:
    def test_sweep_has_minimum_near_zero_offset_when_fresh(self, params, rng):
        channel = SimulatorChannel(params, rng=rng)
        program, voltages = channel.paired_blocks(4, 1000)
        offsets = np.linspace(-30, 30, 13)
        rates = threshold_sweep(program, voltages, boundary=3, offsets=offsets,
                                params=params)
        best = offsets[np.nanargmin(rates)]
        assert abs(best) <= 15.0

    def test_invalid_boundary_rejected(self, params, rng):
        channel = SimulatorChannel(params, rng=rng)
        program, voltages = channel.paired_blocks(1, 1000)
        with pytest.raises(ValueError):
            threshold_sweep(program, voltages, boundary=7,
                            offsets=np.array([0.0]), params=params)

    def test_crossing_offsets_yield_nan(self, params, rng):
        channel = SimulatorChannel(params, rng=rng)
        program, voltages = channel.paired_blocks(1, 1000)
        rates = threshold_sweep(program, voltages, boundary=3,
                                offsets=np.array([-1000.0]), params=params)
        assert np.isnan(rates[0])


class TestPages:
    def test_program_pages_roundtrip(self, rng):
        shape = (16, 16)
        lower = rng.integers(0, 2, size=shape)
        middle = rng.integers(0, 2, size=shape)
        upper = rng.integers(0, 2, size=shape)
        levels = program_pages(lower, middle, upper)
        pages = levels_to_pages(levels)
        np.testing.assert_array_equal(pages[..., 0], lower)
        np.testing.assert_array_equal(pages[..., 1], middle)
        np.testing.assert_array_equal(pages[..., 2], upper)

    def test_program_pages_shape_mismatch(self):
        with pytest.raises(ValueError):
            program_pages(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((3, 3)))

    def test_page_bit_errors_zero_for_clean_read(self, params):
        levels = np.tile(np.arange(NUM_LEVELS), (8, 1))
        voltages = params.means_array[levels]
        report = page_bit_errors(levels, voltages, params=params)
        assert report.total_bit_errors == 0
        assert report.rber() == 0.0

    def test_single_adjacent_level_error_flips_one_page_bit(self, params):
        """The Gray-mapping property: a one-step level error hits one page."""
        thresholds = default_read_thresholds(params)
        for level in range(NUM_LEVELS - 1):
            levels = np.array([[level]])
            # A voltage just above the boundary reads as level + 1.
            voltages = np.array([[thresholds[level] + 1.0]])
            report = page_bit_errors(levels, voltages, params=params)
            assert report.total_bit_errors == 1

    def test_page_rber_keys(self, params, rng):
        channel = SimulatorChannel(params, rng=rng)
        program, voltages = channel.paired_blocks(2, 7000)
        rates = page_bit_error_rates(program, voltages, params=params)
        assert set(rates) == set(PAGE_NAMES)
        assert all(0.0 <= rate <= 1.0 for rate in rates.values())

    def test_page_rber_grows_with_wear(self, params, rng):
        channel = SimulatorChannel(params, rng=rng)
        young_program, young_voltages = channel.paired_blocks(4, 1000)
        old_program, old_voltages = channel.paired_blocks(4, 10000)
        young = page_bit_error_rates(young_program, young_voltages,
                                     params=params)
        old = page_bit_error_rates(old_program, old_voltages, params=params)
        assert sum(old.values()) > sum(young.values())

    def test_report_unknown_page_rejected(self, params, rng):
        channel = SimulatorChannel(params, rng=rng)
        program, voltages = channel.paired_blocks(1, 4000)
        report = page_bit_errors(program, voltages, params=params)
        with pytest.raises(KeyError):
            report.rber("top-secret")

    def test_report_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            page_bit_errors(np.zeros((2, 2), dtype=int), np.zeros((3, 3)))

    def test_total_bits_counts_three_pages(self, params, rng):
        channel = SimulatorChannel(params, rng=rng)
        program, voltages = channel.paired_blocks(1, 4000)
        report = page_bit_errors(program, voltages, params=params)
        assert report.total_bits == 3 * program.size
