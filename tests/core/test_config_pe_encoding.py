"""Tests for the model configuration and the spatio-temporal P/E encoding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LEVEL_CHANNELS,
    ModelConfig,
    PatchGANDiscriminator,
    UNetGenerator,
    encode_levels,
    pe_feature_vector,
)
from repro.flash.cell import NUM_LEVELS


class TestModelConfig:
    def test_paper_configuration_matches_remark1_and_2(self):
        config = ModelConfig.paper()
        assert config.array_size == 64
        assert config.down_channels == (64, 128, 256, 512, 512, 512)
        assert config.latent_dim == 6
        assert config.pe_dim == 6
        assert config.learning_rate == pytest.approx(2e-4)
        assert config.alpha == pytest.approx(10.0)
        assert config.beta == pytest.approx(0.01)
        assert config.batch_size == 2
        assert config.epochs == 7
        assert config.samples_per_array == 10

    def test_small_configuration_depth_matches_array_size(self):
        config = ModelConfig.small(16)
        assert config.array_size == 16
        assert len(config.down_channels) == 4

    def test_tiny_configuration_valid(self):
        config = ModelConfig.tiny()
        assert config.array_size == 8
        assert config.num_down_layers == 3

    def test_rejects_non_power_of_two_array(self):
        with pytest.raises(ValueError):
            ModelConfig(array_size=48, down_channels=(8, 8, 8, 8, 8))

    def test_rejects_depth_mismatch(self):
        with pytest.raises(ValueError):
            ModelConfig(array_size=16, down_channels=(8, 8))

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            ModelConfig.small(16).__class__(
                array_size=16, down_channels=(8, 8, 8, 8), learning_rate=0.0)
        with pytest.raises(ValueError):
            ModelConfig(array_size=8, down_channels=(8, 8, 8), alpha=-1.0)
        with pytest.raises(ValueError):
            ModelConfig(array_size=8, down_channels=(8, 8, 8), batch_size=0)
        with pytest.raises(ValueError):
            ModelConfig(array_size=8, down_channels=(8, 8, 8), latent_dim=0)

    def test_config_is_frozen(self):
        config = ModelConfig.tiny()
        with pytest.raises(AttributeError):
            config.alpha = 5.0


class TestPEFeatureVector:
    def test_shape(self):
        features = pe_feature_vector(np.array([0.4, 0.7, 1.0]), pe_dim=6)
        assert features.shape == (3, 6)

    def test_scalar_input(self):
        assert pe_feature_vector(0.4, pe_dim=4).shape == (1, 4)

    def test_contains_identity_square_and_sqrt(self):
        features = pe_feature_vector(np.array([0.25]), pe_dim=3)[0]
        assert features[0] == pytest.approx(0.25)      # identity
        assert features[1] == pytest.approx(0.0625)    # square
        assert features[2] == pytest.approx(0.5)       # square root

    def test_distinct_pe_counts_have_distinct_features(self):
        features = pe_feature_vector(np.array([0.4, 0.7, 1.0]), pe_dim=6)
        assert len({tuple(row) for row in features}) == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pe_feature_vector(np.array([-0.1]))

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            pe_feature_vector(np.array([0.5]), pe_dim=0)
        with pytest.raises(ValueError):
            pe_feature_vector(np.array([0.5]), pe_dim=99)

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            pe_feature_vector(np.zeros((2, 2)))

    @given(st.floats(0.0, 2.0), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_features_finite_and_nonnegative(self, value, dim):
        features = pe_feature_vector(np.array([value]), pe_dim=dim)
        assert np.all(np.isfinite(features))
        assert np.all(features >= 0)

    def test_monotone_in_pe(self):
        """Each feature grows with the P/E cycle count (wear only increases)."""
        low = pe_feature_vector(np.array([0.4]), pe_dim=6)[0]
        high = pe_feature_vector(np.array([1.0]), pe_dim=6)[0]
        assert np.all(high >= low)


class TestLevelEncoding:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scalar_ladder_bit_for_bit(self, dtype):
        """Levels 0..7 spread evenly over [-1, 1] in float64, then cast."""
        levels = np.arange(NUM_LEVELS).reshape(1, 2, 4)
        encoded = encode_levels(levels, dtype)
        want = (levels / 7 * 2 - 1).astype(dtype)[:, None]
        assert encoded.dtype == dtype
        assert encoded.shape == (1, LEVEL_CHANNELS, 2, 4)
        np.testing.assert_array_equal(encoded, want)

    def test_accepts_any_integer_dtype(self):
        levels = np.arange(NUM_LEVELS).reshape(2, 2, 2)
        np.testing.assert_array_equal(
            encode_levels(levels.astype(np.uint8), np.float64),
            encode_levels(levels, np.float64))

    def test_rejects_float_arrays(self):
        """Values already on the network scale are never read as levels."""
        with pytest.raises(TypeError, match="integers"):
            encode_levels(np.zeros((2, 1, 4, 4)), np.float32)
        with pytest.raises(TypeError):
            encode_levels(np.zeros((2, 4, 4)), np.float32)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="N, H, W"):
            encode_levels(np.zeros((4, 4), dtype=int), np.float32)

    def test_first_layers_take_the_encoding_width(self, rng):
        config = ModelConfig.tiny()
        generator = UNetGenerator(config, rng=rng)
        discriminator = PatchGANDiscriminator(config, rng=rng)
        assert generator.downs[0].conv.weight.shape[1] == \
            LEVEL_CHANNELS + config.latent_dim + config.pe_dim
        assert discriminator.features[0].weight.shape[1] == LEVEL_CHANNELS + 1
