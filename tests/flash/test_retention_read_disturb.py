"""Tests for the retention (charge-loss) and read-disturb models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import SimulatorChannel
from repro.flash import (
    FlashParameters,
    ReadDisturbModel,
    ReadDisturbParameters,
    RetentionModel,
    RetentionParameters,
    level_error_rate,
)
from repro.flash.cell import ERASED_LEVEL, NUM_LEVELS


@pytest.fixture
def retention(params) -> RetentionModel:
    return RetentionModel(params)


@pytest.fixture
def disturb(params) -> ReadDisturbModel:
    return ReadDisturbModel(params)


class TestRetentionParameters:
    def test_default_construction(self):
        retention = RetentionParameters()
        assert retention.reference_hours > 0

    @pytest.mark.parametrize("field, value", [
        ("reference_hours", 0.0),
        ("reference_hours", -1.0),
        ("drift_scale", -0.5),
        ("wear_acceleration", -0.1),
        ("sigma_growth", -0.2),
    ])
    def test_invalid_parameters_rejected(self, field, value):
        with pytest.raises(ValueError):
            RetentionParameters(**{field: value})


class TestRetentionModel:
    def test_time_factor_zero_at_zero(self, retention):
        assert retention.time_factor(0.0) == 0.0

    def test_time_factor_one_at_reference(self, retention):
        assert retention.time_factor(
            retention.retention.reference_hours) == pytest.approx(1.0)

    def test_time_factor_monotone(self, retention):
        hours = [0, 10, 100, 1000, 10000]
        factors = [retention.time_factor(h) for h in hours]
        assert factors == sorted(factors)

    def test_time_factor_rejects_negative(self, retention):
        with pytest.raises(ValueError):
            retention.time_factor(-1.0)

    def test_wear_factor_one_for_fresh_block(self, retention):
        assert retention.wear_factor(0.0) == pytest.approx(1.0)

    def test_wear_accelerates_loss(self, retention):
        assert retention.wear_factor(10000) > retention.wear_factor(1000)

    def test_mean_shift_is_non_positive(self, retention):
        levels = np.arange(NUM_LEVELS)
        shift = retention.mean_shift(levels, 5000, 500)
        assert np.all(shift <= 0)

    def test_erased_level_unaffected(self, retention):
        shift = retention.mean_shift(np.array([ERASED_LEVEL]), 10000, 5000)
        assert shift[0] == 0.0

    def test_higher_levels_lose_more_charge(self, retention):
        levels = np.arange(NUM_LEVELS)
        shift = retention.mean_shift(levels, 10000, 1000)
        assert shift[7] < shift[1] < 0

    def test_sigma_inflation_at_least_one(self, retention):
        assert retention.sigma_inflation(0.0) == pytest.approx(1.0)
        assert retention.sigma_inflation(1000.0) > 1.0

    def test_apply_zero_hours_is_identity(self, retention, rng):
        voltages = rng.uniform(0, 650, size=(8, 8))
        levels = rng.integers(0, NUM_LEVELS, size=(8, 8))
        result = retention.apply(voltages, levels, 5000, 0.0, rng=rng)
        np.testing.assert_array_equal(result, voltages)

    def test_apply_returns_copy_not_view(self, retention, rng):
        voltages = rng.uniform(0, 650, size=(4, 4))
        levels = rng.integers(0, NUM_LEVELS, size=(4, 4))
        result = retention.apply(voltages, levels, 5000, 0.0, rng=rng)
        result += 1.0
        assert not np.allclose(result, voltages)

    def test_apply_shifts_programmed_levels_down_on_average(self, retention,
                                                            params, rng):
        levels = np.full((64, 64), 7)
        voltages = np.full((64, 64), params.level_means[7], dtype=float)
        shifted = retention.apply(voltages, levels, 10000, 2000, rng=rng)
        assert shifted.mean() < voltages.mean()

    def test_apply_shape_mismatch_rejected(self, retention, rng):
        with pytest.raises(ValueError):
            retention.apply(np.zeros((4, 4)), np.zeros((5, 5), dtype=int),
                            1000, 10.0, rng=rng)

    def test_apply_respects_voltage_clip_range(self, retention, params, rng):
        levels = np.full((32, 32), 7)
        voltages = np.full((32, 32), params.voltage_max, dtype=float)
        shifted = retention.apply(voltages, levels, 10000, 10000, rng=rng)
        assert shifted.max() <= params.voltage_max
        assert shifted.min() >= params.voltage_min

    def test_longer_retention_increases_error_rate(self, params, rng):
        channel = SimulatorChannel(params, rng=rng)
        retention = RetentionModel(params)
        program, voltages = channel.paired_blocks(4, 7000)
        fresh_rate = level_error_rate(program, voltages, params=params)
        aged = retention.apply(voltages, program, 7000, 5000,
                               rng=np.random.default_rng(7))
        aged_rate = level_error_rate(program, aged, params=params)
        assert aged_rate > fresh_rate

    @settings(max_examples=25, deadline=None)
    @given(hours=st.floats(min_value=0.0, max_value=1e6,
                           allow_nan=False, allow_infinity=False))
    def test_time_factor_always_non_negative(self, hours):
        retention = RetentionModel()
        assert retention.time_factor(hours) >= 0.0


class TestReadDisturbParameters:
    @pytest.mark.parametrize("field, value", [
        ("reference_reads", 0.0),
        ("shift_scale", -1.0),
        ("level_attenuation", 0.0),
        ("level_attenuation", 1.5),
        ("wear_acceleration", -0.5),
        ("jitter_fraction", -0.1),
    ])
    def test_invalid_parameters_rejected(self, field, value):
        with pytest.raises(ValueError):
            ReadDisturbParameters(**{field: value})


class TestReadDisturbModel:
    def test_read_factor_zero_at_zero(self, disturb):
        assert disturb.read_factor(0) == 0.0

    def test_read_factor_one_at_reference(self, disturb):
        assert disturb.read_factor(
            disturb.disturb.reference_reads) == pytest.approx(1.0)

    def test_read_factor_monotone(self, disturb):
        counts = [0, 100, 10000, 1000000]
        factors = [disturb.read_factor(count) for count in counts]
        assert factors == sorted(factors)

    def test_read_factor_rejects_negative(self, disturb):
        with pytest.raises(ValueError):
            disturb.read_factor(-5)

    def test_mean_shift_is_non_negative(self, disturb):
        levels = np.arange(NUM_LEVELS)
        shift = disturb.mean_shift(levels, 5000, 50000)
        assert np.all(shift >= 0)

    def test_erased_level_most_disturbed(self, disturb):
        levels = np.arange(NUM_LEVELS)
        shift = disturb.mean_shift(levels, 5000, 50000)
        assert shift[ERASED_LEVEL] == shift.max()
        assert shift[7] < shift[ERASED_LEVEL]

    def test_shift_decays_monotonically_with_level(self, disturb):
        levels = np.arange(NUM_LEVELS)
        shift = disturb.mean_shift(levels, 5000, 50000)
        assert np.all(np.diff(shift) < 0)

    def test_wear_amplifies_disturb(self, disturb):
        level = np.array([ERASED_LEVEL])
        fresh = disturb.mean_shift(level, 0, 50000)
        worn = disturb.mean_shift(level, 10000, 50000)
        assert worn[0] > fresh[0]

    def test_apply_zero_reads_is_identity(self, disturb, rng):
        voltages = rng.uniform(0, 650, size=(8, 8))
        levels = rng.integers(0, NUM_LEVELS, size=(8, 8))
        result = disturb.apply(voltages, levels, 5000, 0, rng=rng)
        np.testing.assert_array_equal(result, voltages)

    def test_apply_moves_erased_cells_up(self, disturb, params, rng):
        levels = np.full((64, 64), ERASED_LEVEL)
        voltages = np.full((64, 64), params.level_means[0], dtype=float)
        disturbed = disturb.apply(voltages, levels, 10000, 500000, rng=rng)
        assert disturbed.mean() > voltages.mean()

    def test_apply_shape_mismatch_rejected(self, disturb, rng):
        with pytest.raises(ValueError):
            disturb.apply(np.zeros((4, 4)), np.zeros((2, 2), dtype=int),
                          1000, 10, rng=rng)

    def test_many_reads_increase_error_rate(self, params, rng):
        channel = SimulatorChannel(params, rng=rng)
        disturb = ReadDisturbModel(params)
        program, voltages = channel.paired_blocks(4, 7000)
        base_rate = level_error_rate(program, voltages, params=params)
        heavy = disturb.apply(voltages, program, 7000, 2000000,
                              rng=np.random.default_rng(11))
        heavy_rate = level_error_rate(program, heavy, params=params)
        assert heavy_rate > base_rate

    @settings(max_examples=25, deadline=None)
    @given(reads=st.floats(min_value=0.0, max_value=1e8,
                           allow_nan=False, allow_infinity=False))
    def test_read_factor_always_non_negative(self, reads):
        disturb = ReadDisturbModel()
        assert disturb.read_factor(reads) >= 0.0


class TestCombinedDegradation:
    def test_retention_and_disturb_compose(self, params, rng):
        """Both mechanisms can be applied to the same read without conflict."""
        channel = SimulatorChannel(params, rng=rng)
        program, voltages = channel.paired_blocks(2, 7000)
        retention = RetentionModel(params)
        disturb = ReadDisturbModel(params)
        aged = retention.apply(voltages, program, 7000, 1000,
                               rng=np.random.default_rng(3))
        aged_and_read = disturb.apply(aged, program, 7000, 100000,
                                      rng=np.random.default_rng(4))
        assert aged_and_read.shape == voltages.shape
        assert np.all(aged_and_read >= params.voltage_min)
        assert np.all(aged_and_read <= params.voltage_max)
