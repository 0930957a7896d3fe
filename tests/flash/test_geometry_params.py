"""Tests for block geometry and the flash parameter dataclass."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flash import BlockGeometry, FlashParameters
from repro.flash.cell import NUM_LEVELS


class TestBlockGeometry:
    def test_default_block_is_64_by_64(self):
        geometry = BlockGeometry()
        assert geometry.shape == (64, 64)
        assert geometry.num_cells == 4096

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(ValueError):
            BlockGeometry(0, 8)
        with pytest.raises(ValueError):
            BlockGeometry(8, -1)

    def test_geometry_is_hashable_and_frozen(self):
        geometry = BlockGeometry(8, 8)
        assert hash(geometry) == hash(BlockGeometry(8, 8))
        with pytest.raises(AttributeError):
            geometry.num_wordlines = 16


class TestFlashParameters:
    def test_defaults_are_valid(self):
        params = FlashParameters()
        assert len(params.level_means) == NUM_LEVELS
        assert len(params.level_sigmas) == NUM_LEVELS

    def test_level_means_increasing(self):
        params = FlashParameters()
        assert np.all(np.diff(params.means_array) > 0)

    def test_rejects_wrong_number_of_means(self):
        with pytest.raises(ValueError):
            FlashParameters(level_means=(1.0, 2.0))

    def test_rejects_unsorted_means(self):
        means = list(FlashParameters().level_means)
        means[2], means[3] = means[3], means[2]
        with pytest.raises(ValueError):
            FlashParameters(level_means=tuple(means))

    def test_rejects_non_positive_sigma(self):
        sigmas = list(FlashParameters().level_sigmas)
        sigmas[0] = 0.0
        with pytest.raises(ValueError):
            FlashParameters(level_sigmas=tuple(sigmas))

    def test_rejects_bad_attenuation(self):
        with pytest.raises(ValueError):
            FlashParameters(ici_program_attenuation=1.5)

    def test_rejects_bad_program_error_rate(self):
        with pytest.raises(ValueError):
            FlashParameters(program_error_rate=1.0)

    def test_rejects_bad_voltage_range(self):
        with pytest.raises(ValueError):
            FlashParameters(voltage_min=10.0, voltage_max=5.0)

    def test_rejects_non_positive_reference_cycles(self):
        with pytest.raises(ValueError):
            FlashParameters(reference_pe_cycles=0.0)

    def test_normalized_wear(self):
        params = FlashParameters(reference_pe_cycles=10000)
        assert params.normalized_wear(4000) == pytest.approx(0.4)
        np.testing.assert_allclose(params.normalized_wear([0, 10000]),
                                   [0.0, 1.0])

    def test_bitline_coupling_stronger_than_wordline(self):
        """The paper observes BL patterns are the most error prone."""
        params = FlashParameters()
        assert params.bl_coupling > params.wl_coupling

    def test_level_one_is_widest_programmed_level(self):
        """Level 1 dominates the error counts in Fig. 5."""
        sigmas = FlashParameters().sigmas_array
        assert sigmas[1] == max(sigmas[1:])
