"""Conditional GAN comparator (Remark 3; Isola et al., pix2pix).

The cGAN has no encoder: the latent vector is always drawn from the standard
Gaussian prior and the generator is trained with the adversarial loss plus
the weighted reconstruction loss.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import ConditionalGenerativeModel
from repro.core.config import ModelConfig
from repro.core.discriminator import PatchGANDiscriminator
from repro.core.generator import UNetGenerator
from repro.nn import (
    Tensor,
    bce_with_logits_loss,
    default_dtype,
    mse_loss,
    no_grad,
)

__all__ = ["ConditionalGAN"]


class ConditionalGAN(ConditionalGenerativeModel):
    """U-Net generator + PatchGAN discriminator, prior latent only."""

    name = "cgan"
    display_name = "cGAN"

    def __init__(self, config: ModelConfig,
                 rng: np.random.Generator | None = None,
                 condition_on_pe: bool = True):
        super().__init__(config)
        rng = rng if rng is not None else np.random.default_rng()
        with default_dtype(config.dtype):
            self.generator = UNetGenerator(config, rng=rng,
                                           condition_on_pe=condition_on_pe)
            self.discriminator = PatchGANDiscriminator(config, rng=rng)

    def generator_parameters(self):
        return self.generator.parameters()

    def discriminator_parameters(self):
        return self.discriminator.parameters()

    def generator_loss(self, batch, rng):
        latent = self.prior_latent(batch.levels.shape[0], rng)
        fake = self.generator(batch.levels, batch.pe_normalized, latent)
        logits = self.discriminator(batch.levels, fake)
        adversarial = bce_with_logits_loss(logits, 1.0)
        reconstruction = mse_loss(fake, batch.voltages)
        total = adversarial + self.config.alpha * reconstruction
        stats = {
            "g_adversarial": adversarial.item(),
            "g_reconstruction": reconstruction.item(),
            "g_total": total.item(),
        }
        return total, stats

    def discriminator_loss(self, batch, rng):
        with no_grad():
            latent = self.prior_latent(batch.levels.shape[0], rng)
            fake = self.generator(batch.levels, batch.pe_normalized, latent)
        real_logits = self.discriminator(batch.levels, batch.voltages)
        fake_logits = self.discriminator(batch.levels, Tensor(fake.numpy()))
        loss = bce_with_logits_loss(real_logits, 1.0) \
            + bce_with_logits_loss(fake_logits, 0.0)
        return loss, {"d_total": loss.item()}
