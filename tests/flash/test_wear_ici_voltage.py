"""Tests for the wear model, ICI model and voltage sampler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import FlashParameters, ICIModel, VoltageSampler, WearModel
from repro.flash.cell import ERASED_LEVEL, NUM_LEVELS


class TestWearModel:
    def test_means_at_zero_cycles_equal_nominal(self, params):
        wear = WearModel(params)
        np.testing.assert_allclose(wear.level_means(0), params.means_array)

    def test_erased_level_drifts_up(self, params):
        wear = WearModel(params)
        assert wear.level_means(10000)[ERASED_LEVEL] > \
            wear.level_means(0)[ERASED_LEVEL]

    def test_programmed_levels_drift_down(self, params):
        wear = WearModel(params)
        fresh = wear.level_means(0)
        worn = wear.level_means(10000)
        assert np.all(worn[1:] <= fresh[1:])

    def test_drift_proportional_to_level(self, params):
        wear = WearModel(params)
        drift = wear.level_means(0) - wear.level_means(10000)
        assert drift[7] > drift[1] > 0

    def test_sigmas_grow_with_cycling(self, params):
        wear = WearModel(params)
        assert np.all(wear.level_sigmas(10000) > wear.level_sigmas(0))

    def test_sigma_growth_monotone(self, params):
        wear = WearModel(params)
        sigma_values = [wear.level_sigmas(pe)[1] for pe in (0, 4000, 7000, 10000)]
        assert sigma_values == sorted(sigma_values)

    def test_tail_probability_grows_and_is_bounded(self, params):
        wear = WearModel(params)
        probabilities = [wear.tail_probability(pe) for pe in (0, 4000, 10000)]
        assert probabilities == sorted(probabilities)
        assert all(0.0 <= p <= 1.0 for p in probabilities)

    def test_tail_scale_is_multiple_of_sigma(self, params):
        wear = WearModel(params)
        np.testing.assert_allclose(
            wear.tail_scales(7000),
            wear.level_sigmas(7000) * params.tail_scale_multiplier)

    def test_describe_contains_all_keys(self, params):
        description = WearModel(params).describe(4000)
        assert set(description) == {"pe_cycles", "means", "sigmas",
                                    "tail_probability", "tail_scales"}

    def test_level_ordering_preserved_under_wear(self, params):
        """Wear must never reorder the level means."""
        wear = WearModel(params)
        for pe in (0, 4000, 7000, 10000, 20000):
            assert np.all(np.diff(wear.level_means(pe)) > 0)


class TestICIModel:
    def test_no_interference_for_all_erased_block(self, params):
        ici = ICIModel(params)
        shifts = ici.shifts(np.zeros((8, 8), dtype=int))
        np.testing.assert_allclose(shifts, 0.0)

    def test_shift_is_nonnegative(self, params, rng):
        ici = ICIModel(params)
        levels = rng.integers(0, NUM_LEVELS, size=(16, 16))
        assert np.all(ici.shifts(levels) >= 0)

    def test_high_low_high_victim_receives_large_shift(self, params):
        """A 707 bitline pattern shifts the central erased cell."""
        ici = ICIModel(params)
        levels = np.zeros((3, 3), dtype=int)
        levels[0, 1] = 7
        levels[2, 1] = 7
        shifts = ici.shifts(levels)
        swing = params.means_array[7] - params.means_array[0]
        assert shifts[1, 1] == pytest.approx(2 * params.bl_coupling * swing)

    def test_bitline_shift_exceeds_wordline_shift(self, params):
        ici = ICIModel(params)
        bl_pattern = np.zeros((3, 3), dtype=int)
        bl_pattern[0, 1] = bl_pattern[2, 1] = 7
        wl_pattern = np.zeros((3, 3), dtype=int)
        wl_pattern[1, 0] = wl_pattern[1, 2] = 7
        assert ici.shifts(bl_pattern)[1, 1] > ici.shifts(wl_pattern)[1, 1]

    def test_programmed_victim_attenuated(self, params):
        ici = ICIModel(params)
        levels = np.zeros((3, 3), dtype=int)
        levels[0, 1] = levels[2, 1] = 7
        erased_shift = ici.shifts(levels)[1, 1]
        levels[1, 1] = 3
        programmed_shift = ici.shifts(levels)[1, 1]
        assert programmed_shift == pytest.approx(
            erased_shift * params.ici_program_attenuation)

    def test_boundary_cells_have_fewer_aggressors(self, params):
        ici = ICIModel(params)
        levels = np.full((3, 3), 7, dtype=int)
        levels[1, 1] = 0
        corner_levels = np.full((3, 3), 7, dtype=int)
        corner_levels[0, 0] = 0
        interior = ici.shifts(levels)[1, 1]
        corner = ici.shifts(corner_levels)[0, 0]
        assert corner < interior

    def test_batched_blocks_match_single_blocks(self, params, rng):
        ici = ICIModel(params)
        blocks = rng.integers(0, NUM_LEVELS, size=(4, 8, 8))
        batched = ici.shifts(blocks)
        for index in range(4):
            np.testing.assert_allclose(batched[index], ici.shifts(blocks[index]))

    def test_rejects_one_dimensional_input(self, params):
        with pytest.raises(ValueError):
            ICIModel(params).shifts(np.zeros(8, dtype=int))

    def test_neighbour_swing_zero_for_erased(self, params):
        ici = ICIModel(params)
        swings = ici.neighbour_swing(np.arange(NUM_LEVELS))
        assert swings[ERASED_LEVEL] == 0.0
        assert np.all(np.diff(swings) > 0)


class TestVoltageSampler:
    def test_sample_shape_matches_input(self, params, rng):
        sampler = VoltageSampler(params)
        levels = rng.integers(0, NUM_LEVELS, size=(5, 6))
        assert sampler.sample(levels, 4000, rng).shape == (5, 6)

    def test_sample_within_voltage_range(self, params, rng):
        sampler = VoltageSampler(params)
        levels = rng.integers(0, NUM_LEVELS, size=(64, 64))
        voltages = sampler.sample(levels, 10000, rng)
        assert voltages.min() >= params.voltage_min
        assert voltages.max() <= params.voltage_max

    def test_levels_are_separated_on_average(self, params, rng):
        sampler = VoltageSampler(params)
        levels = np.repeat(np.arange(NUM_LEVELS), 2000).reshape(NUM_LEVELS, -1)
        voltages = sampler.sample(levels, 4000, rng)
        means = voltages.mean(axis=1)
        assert np.all(np.diff(means) > 30)

    def test_higher_pe_gives_wider_distributions(self, params):
        rng = np.random.default_rng(0)
        sampler = VoltageSampler(params)
        levels = np.full((200, 200), 4)
        fresh = sampler.sample(levels, 0, rng)
        worn = sampler.sample(levels, 10000, rng)
        assert worn.std() > fresh.std()

    def test_ici_shift_added(self, params):
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        levels = np.full((4, 4), ERASED_LEVEL)
        plain = VoltageSampler(params).sample(levels, 4000, rng_a)
        shifted = VoltageSampler(params).sample(
            levels, 4000, rng_b, ici_shifts=np.full((4, 4), 10.0))
        np.testing.assert_allclose(shifted - plain, 10.0, atol=1e-9)

    def test_deterministic_with_seeded_rng(self, params):
        levels = np.full((8, 8), 3)
        sampler = VoltageSampler(params)
        first = sampler.sample(levels, 7000, np.random.default_rng(11))
        second = sampler.sample(levels, 7000, np.random.default_rng(11))
        np.testing.assert_allclose(first, second)

    def test_programmed_levels_have_heavier_tails_when_worn(self, params):
        """Excess kurtosis of programmed levels grows with P/E cycles."""
        rng = np.random.default_rng(3)
        sampler = VoltageSampler(params)
        levels = np.full((300, 300), 4)
        fresh = sampler.sample(levels, 0, rng)
        worn = sampler.sample(levels, 10000, rng)

        def excess_kurtosis(values):
            centred = values - values.mean()
            return float(np.mean(centred ** 4) / np.mean(centred ** 2) ** 2 - 3)

        assert excess_kurtosis(worn) > excess_kurtosis(fresh)

    @given(st.integers(0, NUM_LEVELS - 1), st.sampled_from([0, 4000, 7000, 10000]))
    @settings(max_examples=20, deadline=None)
    def test_sample_mean_close_to_wear_mean(self, level, pe_cycles):
        params = FlashParameters()
        rng = np.random.default_rng(level * 13 + 1)
        levels = np.full((100, 100), level)
        voltages = VoltageSampler(params).sample(levels, pe_cycles, rng)
        expected = WearModel(params).level_means(pe_cycles)[level]
        assert abs(voltages.mean() - expected) < 2.0
