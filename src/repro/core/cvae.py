"""Conditional VAE comparator (Remark 3; Sohn et al., CVAE).

The cVAE keeps the encoder and the U-Net generator of the cVAE-GAN but drops
the discriminator: training minimises the reconstruction loss plus the KL
term only, which typically produces over-smoothed (blurry) voltage arrays —
the behaviour that motivates adding the adversarial loss.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import ConditionalGenerativeModel
from repro.core.config import ModelConfig
from repro.core.encoder import ResNetEncoder
from repro.core.generator import UNetGenerator
from repro.nn import default_dtype, gaussian_kl_loss, mse_loss

__all__ = ["ConditionalVAE"]


class ConditionalVAE(ConditionalGenerativeModel):
    """Encoder + U-Net generator trained with reconstruction and KL losses."""

    name = "cvae"
    display_name = "cVAE"

    def __init__(self, config: ModelConfig,
                 rng: np.random.Generator | None = None,
                 condition_on_pe: bool = True):
        super().__init__(config)
        rng = rng if rng is not None else np.random.default_rng()
        with default_dtype(config.dtype):
            self.encoder = ResNetEncoder(config, rng=rng)
            self.generator = UNetGenerator(config, rng=rng,
                                           condition_on_pe=condition_on_pe)

    def generator_parameters(self):
        return self.generator.parameters() + self.encoder.parameters()

    def generator_loss(self, batch, rng):
        mu, logvar = batch.posterior(self.encoder)
        latent = self.encoder.sample_latent(mu, logvar, rng)
        fake = self.generator(batch.levels, batch.pe_normalized, latent)
        reconstruction = mse_loss(fake, batch.voltages)
        kl = gaussian_kl_loss(mu, logvar)
        total = self.config.alpha * reconstruction + self.config.beta * kl
        stats = {
            "g_reconstruction": reconstruction.item(),
            "g_kl": kl.item(),
            "g_total": total.item(),
        }
        return total, stats
