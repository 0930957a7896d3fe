"""Tests for the information-theoretic channel evaluation metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import SimulatorChannel
from repro.eval import (
    channel_capacity_estimate,
    hard_decision_mutual_information,
    joint_level_voltage_histogram,
    multi_read_thresholds,
    mutual_information,
    soft_read_mutual_information,
)
from repro.flash import BlockGeometry, FlashParameters
from repro.flash.cell import NUM_LEVELS
from repro.flash.thresholds import default_read_thresholds


@pytest.fixture
def params() -> FlashParameters:
    return FlashParameters()


@pytest.fixture
def channel(params) -> SimulatorChannel:
    return SimulatorChannel(params, geometry=BlockGeometry(32, 32),
                            rng=np.random.default_rng(0))


@pytest.fixture
def paired(channel):
    return channel.paired_blocks(4, 7000)


class TestMutualInformation:
    def test_independent_table_has_zero_information(self):
        joint = np.outer(np.full(4, 0.25), np.full(8, 0.125))
        assert mutual_information(joint) == pytest.approx(0.0, abs=1e-9)

    def test_identity_table_has_log2_levels(self):
        joint = np.eye(8) / 8.0
        assert mutual_information(joint) == pytest.approx(3.0)

    def test_partial_confusion_reduces_information(self):
        clean = np.eye(4) / 4.0
        noisy = 0.9 * clean + 0.1 * np.full((4, 4), 1.0 / 16.0)
        assert mutual_information(noisy) < mutual_information(clean)

    def test_unnormalised_counts_accepted(self):
        counts = np.eye(4) * 100.0
        assert mutual_information(counts) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            mutual_information(np.zeros(4))
        with pytest.raises(ValueError):
            mutual_information(-np.ones((2, 2)))
        with pytest.raises(ValueError):
            mutual_information(np.zeros((2, 2)))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10000))
    def test_information_bounded_by_marginal_entropy(self, seed):
        rng = np.random.default_rng(seed)
        joint = rng.random((NUM_LEVELS, 16))
        joint /= joint.sum()
        information = mutual_information(joint)
        rows = joint.sum(axis=1)
        row_entropy = -np.sum(rows[rows > 0] * np.log2(rows[rows > 0]))
        assert -1e-9 <= information <= row_entropy + 1e-9


class TestJointHistogram:
    def test_shape_and_normalisation(self, paired, params):
        program, voltages = paired
        joint = joint_level_voltage_histogram(program, voltages, num_bins=32,
                                              params=params)
        assert joint.shape == (NUM_LEVELS, 32)
        assert joint.sum() == pytest.approx(1.0)

    def test_levels_concentrate_in_distinct_bins(self, paired, params):
        program, voltages = paired
        joint = joint_level_voltage_histogram(program, voltages, num_bins=64,
                                              params=params)
        peak_bins = [int(np.argmax(joint[level])) for level in range(NUM_LEVELS)]
        assert len(set(peak_bins)) == NUM_LEVELS

    def test_validation(self, paired):
        program, voltages = paired
        with pytest.raises(ValueError):
            joint_level_voltage_histogram(program[:1], voltages)
        with pytest.raises(ValueError):
            joint_level_voltage_histogram(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            joint_level_voltage_histogram(program, voltages, num_bins=1)


class TestChannelInformationMetrics:
    def test_capacity_close_to_three_bits_on_healthy_channel(self, channel,
                                                             params):
        program, voltages = channel.paired_blocks(4, 1000)
        capacity = channel_capacity_estimate(program, voltages, params=params)
        assert 2.7 <= capacity <= 3.0

    def test_capacity_degrades_with_wear(self, channel, params):
        young_program, young_voltages = channel.paired_blocks(4, 1000)
        old_program, old_voltages = channel.paired_blocks(4, 10000)
        young = channel_capacity_estimate(young_program, young_voltages,
                                          params=params)
        old = channel_capacity_estimate(old_program, old_voltages,
                                        params=params)
        assert old < young

    def test_hard_decision_loses_information(self, paired, params):
        program, voltages = paired
        hard = hard_decision_mutual_information(program, voltages,
                                                params=params)
        soft = channel_capacity_estimate(program, voltages, params=params)
        assert 0.0 < hard <= soft + 1e-6

    def test_multi_read_recovers_part_of_the_gap(self, paired, params):
        """1 read < 3 reads < 7 reads per boundary, monotonically."""
        program, voltages = paired
        one = soft_read_mutual_information(program, voltages,
                                           num_reads_per_boundary=1,
                                           params=params)
        three = soft_read_mutual_information(program, voltages,
                                             num_reads_per_boundary=3,
                                             params=params)
        seven = soft_read_mutual_information(program, voltages,
                                             num_reads_per_boundary=7,
                                             params=params)
        assert one <= three <= seven
        hard = hard_decision_mutual_information(program, voltages,
                                                params=params)
        assert one == pytest.approx(hard, abs=1e-9)

    def test_validation(self, paired, params):
        program, voltages = paired
        with pytest.raises(ValueError):
            hard_decision_mutual_information(program[:1], voltages)
        with pytest.raises(ValueError):
            hard_decision_mutual_information(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            soft_read_mutual_information(program[:1], voltages)
        with pytest.raises(ValueError):
            soft_read_mutual_information(np.array([]), np.array([]))


class TestMultiReadThresholds:
    def test_single_read_matches_defaults(self, params):
        sensing = multi_read_thresholds(1, params=params)
        np.testing.assert_allclose(sensing, default_read_thresholds(params))

    def test_count_scales_with_reads(self, params):
        assert multi_read_thresholds(3, params=params).size == 21
        assert multi_read_thresholds(5, params=params).size == 35

    def test_sensing_levels_sorted(self, params):
        sensing = multi_read_thresholds(5, spread=8.0, params=params)
        assert np.all(np.diff(sensing) >= 0)

    def test_offsets_centred_on_defaults(self, params):
        sensing = multi_read_thresholds(3, spread=10.0, params=params)
        defaults = default_read_thresholds(params)
        grouped = sensing.reshape(len(defaults), 3)
        np.testing.assert_allclose(grouped.mean(axis=1), defaults)

    def test_validation(self):
        with pytest.raises(ValueError):
            multi_read_thresholds(0)
        with pytest.raises(ValueError):
            multi_read_thresholds(3, spread=0.0)
