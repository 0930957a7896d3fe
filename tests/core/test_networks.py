"""Tests for the encoder, generator and discriminator networks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ModelConfig,
    PatchGANDiscriminator,
    ResNetEncoder,
    UNetGenerator,
    encode_levels,
)
from repro.core.encoder import ResidualBlock
from repro.flash.cell import NUM_LEVELS
from repro.nn import Tensor


@pytest.fixture
def config():
    return ModelConfig.tiny()


def _levels(rng, batch, size):
    """Encoded program levels, the networks' level input."""
    levels = rng.integers(0, NUM_LEVELS, size=(batch, size, size))
    return Tensor(encode_levels(levels, np.float64))


def _inputs(config, batch=2, rng=None):
    rng = rng if rng is not None else np.random.default_rng(0)
    size = config.array_size
    program = _levels(rng, batch, size)
    voltages = Tensor(rng.uniform(-1, 1, size=(batch, 1, size, size)))
    pe = rng.uniform(0.3, 1.0, size=batch)
    latent = Tensor(rng.standard_normal((batch, config.latent_dim)))
    return program, voltages, pe, latent


class TestResidualBlock:
    def test_preserves_shape(self, rng):
        block = ResidualBlock(8, rng=rng)
        x = Tensor(rng.standard_normal((2, 8, 6, 6)))
        assert block(x).shape == x.shape

    def test_gradients_reach_input(self, rng):
        block = ResidualBlock(4, rng=rng)
        x = Tensor(rng.standard_normal((2, 4, 6, 6)), requires_grad=True)
        block(x).sum().backward()
        assert x.grad is not None
        assert np.any(x.grad != 0)


class TestEncoder:
    def test_output_shapes(self, config, rng):
        encoder = ResNetEncoder(config, rng=rng)
        _, voltages, pe, _ = _inputs(config)
        mu, logvar = encoder(voltages, pe)
        assert mu.shape == (2, config.latent_dim)
        assert logvar.shape == (2, config.latent_dim)

    def test_latent_sampling_shape_and_stochasticity(self, config, rng):
        encoder = ResNetEncoder(config, rng=rng)
        _, voltages, pe, _ = _inputs(config)
        mu, logvar = encoder(voltages, pe)
        sample_a = encoder.sample_latent(mu, logvar, np.random.default_rng(1))
        sample_b = encoder.sample_latent(mu, logvar, np.random.default_rng(2))
        assert sample_a.shape == mu.shape
        assert not np.allclose(sample_a.data, sample_b.data)

    def test_pe_conditioning_changes_output(self, config, rng):
        encoder = ResNetEncoder(config, rng=rng)
        encoder.eval()
        _, voltages, _, _ = _inputs(config)
        mu_low, _ = encoder(voltages, np.array([0.4, 0.4]))
        mu_high, _ = encoder(voltages, np.array([1.0, 1.0]))
        assert not np.allclose(mu_low.data, mu_high.data)

    def test_gradients_flow_to_parameters(self, config, rng):
        encoder = ResNetEncoder(config, rng=rng)
        _, voltages, pe, _ = _inputs(config)
        mu, logvar = encoder(voltages, pe)
        (mu.sum() + logvar.sum()).backward()
        assert all(p.grad is not None for p in encoder.parameters())


class TestGenerator:
    def test_output_shape_matches_input(self, config, rng):
        generator = UNetGenerator(config, rng=rng)
        program, voltages, pe, latent = _inputs(config)
        out = generator(program, pe, latent)
        assert out.shape == voltages.shape

    def test_output_bounded_by_tanh(self, config, rng):
        generator = UNetGenerator(config, rng=rng)
        program, _, pe, latent = _inputs(config)
        out = generator(program, pe, latent)
        assert np.all(np.abs(out.data) <= 1.0)

    def test_paper_scale_shapes(self, rng):
        """The Remark 1 architecture maps 64x64 arrays to 64x64 arrays."""
        generator = UNetGenerator(ModelConfig.paper(), rng=rng)
        program = _levels(rng, 1, 64)
        latent = Tensor(rng.standard_normal((1, 6)))
        generator.eval()
        out = generator(program, np.array([0.7]), latent)
        assert out.shape == (1, 1, 64, 64)

    def test_rejects_wrong_array_size(self, config, rng):
        generator = UNetGenerator(config, rng=rng)
        program = _levels(rng, 1, 16)
        latent = Tensor(np.zeros((1, config.latent_dim)))
        with pytest.raises(ValueError):
            generator(program, np.array([0.5]), latent)

    def test_latent_changes_output(self, config, rng):
        generator = UNetGenerator(config, rng=rng)
        generator.eval()
        program, _, pe, _ = _inputs(config)
        out_a = generator(program, pe, Tensor(np.full((2, config.latent_dim), -2.0)))
        out_b = generator(program, pe, Tensor(np.full((2, config.latent_dim), 2.0)))
        assert not np.allclose(out_a.data, out_b.data)

    def test_pe_changes_output(self, config, rng):
        """The spatio-temporal combination must make the output P/E dependent."""
        generator = UNetGenerator(config, rng=rng)
        generator.eval()
        program, _, _, latent = _inputs(config)
        out_low = generator(program, np.array([0.4, 0.4]), latent)
        out_high = generator(program, np.array([1.0, 1.0]), latent)
        assert not np.allclose(out_low.data, out_high.data)

    def test_pe_conditioning_can_be_disabled(self, config, rng):
        generator = UNetGenerator(config, rng=rng, condition_on_pe=False)
        generator.eval()
        program, _, _, latent = _inputs(config)
        out_low = generator(program, np.array([0.4, 0.4]), latent)
        out_high = generator(program, np.array([1.0, 1.0]), latent)
        np.testing.assert_allclose(out_low.data, out_high.data)

    def test_gradients_flow_to_latent(self, config, rng):
        generator = UNetGenerator(config, rng=rng)
        program, _, pe, _ = _inputs(config)
        latent = Tensor(np.zeros((2, config.latent_dim)), requires_grad=True)
        generator(program, pe, latent).sum().backward()
        assert latent.grad is not None
        assert np.any(latent.grad != 0)

    def test_parameter_count_grows_with_width(self, rng):
        narrow = UNetGenerator(ModelConfig.tiny(), rng=rng)
        wide = UNetGenerator(ModelConfig.small(16), rng=rng)
        assert wide.num_parameters() > narrow.num_parameters()


class TestDiscriminator:
    def test_patch_output_shape(self, config, rng):
        discriminator = PatchGANDiscriminator(config, rng=rng)
        program, voltages, _, _ = _inputs(config)
        logits = discriminator(program, voltages)
        assert logits.shape[0] == 2 and logits.shape[1] == 1

    def test_patch_output_is_spatial_map_at_paper_like_scale(self, rng):
        """On 16x16 (and larger) inputs the output is a patch map, not a scalar."""
        config = ModelConfig.small(16)
        discriminator = PatchGANDiscriminator(config, rng=rng)
        program, voltages, _, _ = _inputs(config)
        logits = discriminator(program, voltages)
        assert logits.shape[2] > 1 and logits.shape[3] > 1

    def test_rejects_shape_mismatch(self, config, rng):
        discriminator = PatchGANDiscriminator(config, rng=rng)
        program = _levels(rng, 2, 8)
        with pytest.raises(ValueError, match="spatial"):
            discriminator(program, Tensor(np.zeros((2, 1, 4, 4))))
        with pytest.raises(ValueError, match="batch"):
            discriminator(program, Tensor(np.zeros((3, 1, 8, 8))))

    def test_depends_on_both_inputs(self, config, rng):
        discriminator = PatchGANDiscriminator(config, rng=rng)
        discriminator.eval()
        program, voltages, _, _ = _inputs(config)
        base = discriminator(program, voltages).data
        shifted_voltage = discriminator(program, voltages * 0.5).data
        shifted_program = discriminator(program * 0.5, voltages).data
        assert not np.allclose(base, shifted_voltage)
        assert not np.allclose(base, shifted_program)

    def test_gradients_flow(self, config, rng):
        discriminator = PatchGANDiscriminator(config, rng=rng)
        program, voltages, _, _ = _inputs(config)
        discriminator(program, voltages).sum().backward()
        assert all(p.grad is not None for p in discriminator.parameters())
