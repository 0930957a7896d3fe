"""Tests for conditional histograms and distribution distances."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import SimulatorChannel
from repro.eval import (
    conditional_histogram,
    conditional_pdfs,
    distribution_distance,
    histogram_bin_centers,
    total_variation_distance,
    voltage_histogram,
)
from repro.flash import BlockGeometry, FlashParameters


@pytest.fixture
def paired_data():
    channel = SimulatorChannel(geometry=BlockGeometry(32, 32),
                               rng=np.random.default_rng(17))
    return channel.paired_blocks(30, 7000)


class TestHistograms:
    def test_bin_centers_shape_and_range(self):
        centers = histogram_bin_centers(bins=100)
        params = FlashParameters()
        assert centers.shape == (100,)
        assert centers[0] > params.voltage_min
        assert centers[-1] < params.voltage_max

    def test_voltage_histogram_sums_to_one(self, paired_data):
        _, voltages = paired_data
        _, probabilities = voltage_histogram(voltages)
        assert probabilities.sum() == pytest.approx(1.0)

    def test_voltage_histogram_rejects_empty(self):
        with pytest.raises(ValueError):
            voltage_histogram(np.array([]))

    def test_voltage_histogram_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            voltage_histogram(np.array([-1000.0, 2000.0]))

    def test_conditional_histogram_centred_on_level_mean(self, paired_data):
        program, voltages = paired_data
        params = FlashParameters()
        for level in (1, 4, 7):
            centers, probabilities = conditional_histogram(program, voltages,
                                                           level)
            mode = centers[np.argmax(probabilities)]
            assert abs(mode - params.means_array[level]) < 25

    def test_conditional_histogram_shape_mismatch(self):
        with pytest.raises(ValueError):
            conditional_histogram(np.zeros((2, 2), dtype=int), np.zeros((3, 3)), 1)

    def test_conditional_histogram_invalid_level(self, paired_data):
        program, voltages = paired_data
        with pytest.raises(ValueError):
            conditional_histogram(program, voltages, 8)

    def test_conditional_histogram_missing_level(self):
        program = np.zeros((4, 4), dtype=int)
        voltages = np.full((4, 4), 20.0)
        with pytest.raises(ValueError):
            conditional_histogram(program, voltages, 5)

    def test_conditional_pdfs_default_levels(self, paired_data):
        program, voltages = paired_data
        pdfs = conditional_pdfs(program, voltages)
        assert set(pdfs) == set(range(1, 8))
        for centers, probabilities in pdfs.values():
            assert probabilities.sum() == pytest.approx(1.0)

    def test_peak_drops_with_wear(self):
        """Fig. 4: the peak of each level's PDF drops as P/E grows."""
        channel = SimulatorChannel(geometry=BlockGeometry(32, 32),
                                   rng=np.random.default_rng(3))
        peaks = {}
        for pe in (4000, 10000):
            program, voltages = channel.paired_blocks(40, pe)
            _, probabilities = conditional_histogram(program, voltages, 4,
                                                     bins=200)
            peaks[pe] = probabilities.max()
        assert peaks[10000] < peaks[4000]


class TestDivergences:
    def test_tv_identical_distributions(self):
        p = np.array([0.25, 0.25, 0.5])
        assert total_variation_distance(p, p) == 0.0

    def test_tv_disjoint_distributions(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert total_variation_distance(p, q) == pytest.approx(1.0)

    def test_tv_symmetric(self):
        rng = np.random.default_rng(0)
        p = rng.random(10)
        q = rng.random(10)
        assert total_variation_distance(p, q) == pytest.approx(
            total_variation_distance(q, p))

    def test_tv_unnormalised_inputs_are_normalised(self):
        p = np.array([2.0, 2.0])
        q = np.array([1.0, 1.0])
        assert total_variation_distance(p, q) == pytest.approx(0.0)

    def test_tv_rejects_negative(self):
        with pytest.raises(ValueError):
            total_variation_distance(np.array([-0.1, 1.1]), np.array([0.5, 0.5]))

    def test_tv_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            total_variation_distance(np.array([1.0]), np.array([0.5, 0.5]))

    @given(st.integers(2, 30), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_tv_bounded_between_zero_and_one(self, size, seed):
        rng = np.random.default_rng(seed)
        p = rng.random(size) + 1e-9
        q = rng.random(size) + 1e-9
        tv = total_variation_distance(p, q)
        assert 0.0 <= tv <= 1.0

    def test_distribution_distance_same_sample_is_zero(self, paired_data):
        _, voltages = paired_data
        assert distribution_distance(voltages, voltages) == pytest.approx(0.0)

    def test_distribution_distance_detects_shift(self, paired_data):
        _, voltages = paired_data
        shifted = np.clip(voltages + 100.0, 0, 650)
        assert distribution_distance(voltages, shifted) > 0.3

    def test_distribution_distance_smooths_the_model_histogram(self):
        """The model histogram's Laplace smoothing stays, to the bit."""
        real = np.array([10.0, 20.0, 20.0, 600.0])
        fake = np.array([10.0, 10.0, 20.0])
        edges = np.linspace(0.0, 650.0, 201)
        real_counts, _ = np.histogram(real, bins=edges)
        fake_counts, _ = np.histogram(fake, bins=edges)
        smoothed = (fake_counts + 1e-12) / (fake_counts.sum() + 1e-12 * 200)
        expected = 0.5 * np.abs(real_counts / real_counts.sum()
                                - smoothed / smoothed.sum()).sum()
        assert distribution_distance(real, fake) == float(expected)

    def test_distribution_distance_rejects_empty_overlap(self):
        with pytest.raises(ValueError):
            distribution_distance(np.array([10.0]), np.array([-500.0]),
                                  voltage_range=(0.0, 650.0))
