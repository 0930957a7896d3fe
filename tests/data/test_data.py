"""Tests for dataset generation, cropping, normalisation and batching."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import SimulatorChannel
from repro.data import (
    BatchIterator,
    FlashChannelDataset,
    VoltageNormalizer,
    crop_blocks,
    generate_paired_dataset,
)
from repro.flash import BlockGeometry, FlashParameters


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def channel(rng):
    return SimulatorChannel(geometry=BlockGeometry(32, 32), rng=rng)


@pytest.fixture
def dataset(channel):
    return generate_paired_dataset(channel, pe_cycles=(4000, 10000),
                                   arrays_per_pe=8, array_size=16)


class TestCropBlocks:
    def test_exact_tiling(self, rng):
        blocks = rng.integers(0, 8, size=(2, 32, 32))
        crops = crop_blocks(blocks, 16)
        assert crops.shape == (2 * 4, 16, 16)

    def test_crops_are_non_overlapping_and_cover_block(self, rng):
        blocks = np.arange(64).reshape(1, 8, 8)
        crops = crop_blocks(blocks, 4)
        assert crops.shape == (4, 4, 4)
        np.testing.assert_array_equal(np.sort(crops.ravel()), np.arange(64))

    def test_partial_tiles_discarded(self, rng):
        blocks = rng.integers(0, 8, size=(1, 10, 10))
        crops = crop_blocks(blocks, 4)
        assert crops.shape == (4, 4, 4)

    def test_first_crop_is_top_left_corner(self, rng):
        blocks = rng.integers(0, 8, size=(1, 8, 8))
        crops = crop_blocks(blocks, 4)
        np.testing.assert_array_equal(crops[0], blocks[0, :4, :4])

    def test_rejects_wrong_rank(self, rng):
        with pytest.raises(ValueError):
            crop_blocks(rng.integers(0, 8, size=(8, 8)), 4)

    def test_rejects_oversized_crop(self, rng):
        with pytest.raises(ValueError):
            crop_blocks(rng.integers(0, 8, size=(1, 8, 8)), 16)

    def test_rejects_non_positive_crop(self, rng):
        with pytest.raises(ValueError):
            crop_blocks(rng.integers(0, 8, size=(1, 8, 8)), 0)


class TestGeneratePairedDataset:
    def test_dataset_size_and_shapes(self, dataset):
        assert len(dataset) == 16
        assert dataset.array_shape == (16, 16)

    def test_arrays_per_pe(self, dataset):
        summary = dataset.summary()
        assert summary["arrays_per_pe"] == {4000: 8, 10000: 8}

    def test_voltages_reflect_levels(self, dataset):
        """Mean voltage of level-7 cells must exceed that of level-1 cells."""
        high = dataset.voltages[dataset.program_levels == 7].mean()
        low = dataset.voltages[dataset.program_levels == 1].mean()
        assert high > low + 200

    def test_rejects_empty_pe_list(self, channel):
        with pytest.raises(ValueError):
            generate_paired_dataset(channel, pe_cycles=())

    def test_rejects_zero_arrays(self, channel):
        with pytest.raises(ValueError):
            generate_paired_dataset(channel, arrays_per_pe=0)

    def test_rejects_array_size_larger_than_block(self, channel):
        with pytest.raises(ValueError):
            generate_paired_dataset(channel, array_size=64)

    def test_paper_scale_configuration(self, rng):
        """64x64 arrays cropped from 64x64 blocks (one crop per block)."""
        channel = SimulatorChannel(rng=rng)
        dataset = generate_paired_dataset(channel, pe_cycles=(7000,),
                                          arrays_per_pe=2, array_size=64)
        assert len(dataset) == 2
        assert dataset.array_shape == (64, 64)


class TestFlashChannelDataset:
    def test_getitem(self, dataset):
        program, voltage, pe = dataset[0]
        assert program.shape == (16, 16)
        assert voltage.shape == (16, 16)
        assert pe in (4000.0, 10000.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FlashChannelDataset(np.zeros((2, 4, 4), dtype=int),
                                np.zeros((2, 4, 5)), np.zeros(2))
        with pytest.raises(ValueError):
            FlashChannelDataset(np.zeros((2, 4, 4), dtype=int),
                                np.zeros((2, 4, 4)), np.zeros(3))
        with pytest.raises(ValueError):
            FlashChannelDataset(np.zeros((4, 4), dtype=int),
                                np.zeros((4, 4)), np.zeros(4))

    def test_unique_pe_cycles(self, dataset):
        np.testing.assert_allclose(dataset.unique_pe_cycles, [4000.0, 10000.0])

    def test_filter_pe(self, dataset):
        subset = dataset.filter_pe(4000)
        assert len(subset) == 8
        assert np.all(subset.pe_cycles == 4000)

    def test_filter_pe_missing_value(self, dataset):
        with pytest.raises(ValueError):
            dataset.filter_pe(1234)

    def test_select_preserves_pairs(self, dataset):
        subset = dataset.select(np.array([3, 1]))
        np.testing.assert_array_equal(subset.program_levels[0],
                                      dataset.program_levels[3])
        np.testing.assert_array_equal(subset.voltages[1], dataset.voltages[1])

    def test_summary_fields(self, dataset):
        summary = dataset.summary()
        assert summary["num_arrays"] == 16
        assert summary["array_shape"] == (16, 16)
        assert summary["pe_cycles"] == [4000, 10000]


class TestNormalizers:
    def test_voltage_roundtrip(self, rng):
        normalizer = VoltageNormalizer()
        voltages = rng.uniform(0, 650, size=(4, 4))
        np.testing.assert_allclose(
            normalizer.denormalize(normalizer.normalize(voltages)), voltages)

    def test_voltage_range_maps_to_unit_interval(self):
        params = FlashParameters()
        normalizer = VoltageNormalizer(params)
        assert normalizer.normalize(params.voltage_min) == pytest.approx(-1.0)
        assert normalizer.normalize(params.voltage_max) == pytest.approx(1.0)

    @given(st.floats(0.0, 650.0))
    @settings(max_examples=50, deadline=None)
    def test_voltage_normalized_within_unit_interval(self, voltage):
        normalized = VoltageNormalizer().normalize(voltage)
        assert -1.0 <= normalized <= 1.0


class TestBatchIterator:
    def test_number_of_batches(self, dataset, rng):
        iterator = BatchIterator(dataset, batch_size=5, rng=rng)
        assert len(iterator) == 4  # 16 arrays -> 3 full batches + 1 partial

    def test_drop_last(self, dataset, rng):
        iterator = BatchIterator(dataset, batch_size=5, drop_last=True, rng=rng)
        assert len(iterator) == 3
        assert all(batch[0].shape[0] == 5 for batch in iterator)

    def test_batches_cover_dataset(self, dataset, rng):
        iterator = BatchIterator(dataset, batch_size=4, shuffle=True, rng=rng)
        seen = sum(batch[0].shape[0] for batch in iterator)
        assert seen == len(dataset)

    def test_batch_components_aligned(self, dataset, rng):
        """Every (PL, VL, P/E) triple in a batch must stay paired."""
        iterator = BatchIterator(dataset, batch_size=3, shuffle=True, rng=rng)
        originals = {dataset.program_levels[i].tobytes():
                     (dataset.voltages[i].tobytes(), dataset.pe_cycles[i])
                     for i in range(len(dataset))}
        for programs, voltages, pe_values in iterator:
            for program, voltage, pe in zip(programs, voltages, pe_values):
                expected_voltage, expected_pe = originals[program.tobytes()]
                assert voltage.tobytes() == expected_voltage
                assert pe == expected_pe

    def test_no_shuffle_preserves_order(self, dataset):
        iterator = BatchIterator(dataset, batch_size=16, shuffle=False)
        programs, _, _ = next(iter(iterator))
        np.testing.assert_array_equal(programs, dataset.program_levels)

    def test_rejects_empty_dataset(self):
        empty = FlashChannelDataset(np.zeros((0, 4, 4), dtype=int),
                                    np.zeros((0, 4, 4)), np.zeros(0))
        with pytest.raises(ValueError):
            BatchIterator(empty)

    def test_rejects_bad_batch_size(self, dataset):
        with pytest.raises(ValueError):
            BatchIterator(dataset, batch_size=0)
