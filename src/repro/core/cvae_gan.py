"""The conditional VAE-GAN of the paper (Section III, Eq. (1)).

The architecture fuses a conditional VAE and a conditional GAN: the encoder
maps the measured voltages (and the P/E cycle count) to a latent posterior,
the U-Net generator reconstructs voltages from the program levels, the latent
sample and the P/E features, and the PatchGAN discriminator judges (PL, VL)
pairs.  The training objective is

    min_{Gen, Enc} max_{Dis}  L_GAN + alpha * L_recon + beta * L_KL

Training alternates a discriminator step and a generator/encoder step on
each batch (:meth:`repro.core.trainer.Trainer.train_step`), and both read
one :class:`~repro.core.base.TrainingBatch`.  The discriminator step
encodes the real voltages once, with gradients on, and draws its fake's
latent from that posterior under ``no_grad``; the generator step draws its
own latent from the same posterior nodes and back-propagates through them,
with the discriminator frozen.  The BicycleGAN reference implementation
runs one forward per iteration for its two updates the same way.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import ConditionalGenerativeModel
from repro.core.config import ModelConfig
from repro.core.discriminator import PatchGANDiscriminator
from repro.core.encoder import ResNetEncoder
from repro.core.generator import UNetGenerator
from repro.nn import (
    Tensor,
    bce_with_logits_loss,
    default_dtype,
    gaussian_kl_loss,
    mse_loss,
    no_grad,
)

__all__ = ["ConditionalVAEGAN"]


class ConditionalVAEGAN(ConditionalGenerativeModel):
    """Encoder + U-Net generator + PatchGAN discriminator."""

    name = "cvae_gan"
    display_name = "cV-G"

    def __init__(self, config: ModelConfig,
                 rng: np.random.Generator | None = None,
                 condition_on_pe: bool = True):
        super().__init__(config)
        rng = rng if rng is not None else np.random.default_rng()
        with default_dtype(config.dtype):
            self.encoder = ResNetEncoder(config, rng=rng)
            self.generator = UNetGenerator(config, rng=rng,
                                           condition_on_pe=condition_on_pe)
            self.discriminator = PatchGANDiscriminator(config, rng=rng)

    # ------------------------------------------------------------------ #
    # Parameter groups
    # ------------------------------------------------------------------ #
    def generator_parameters(self):
        return self.generator.parameters() + self.encoder.parameters()

    def discriminator_parameters(self):
        return self.discriminator.parameters()

    # ------------------------------------------------------------------ #
    # Losses
    # ------------------------------------------------------------------ #
    def generator_loss(self, batch, rng):
        """Eq. (1) for the generator and encoder: the discriminator's verdict
        on the reconstruction from a posterior sample, plus ``alpha`` times
        its MSE and ``beta`` times the posterior's KL to the prior."""
        mu, logvar = batch.posterior(self.encoder)
        latent = self.encoder.sample_latent(mu, logvar, rng)
        fake = self.generator(batch.levels, batch.pe_normalized, latent)
        logits = self.discriminator(batch.levels, fake)

        adversarial = bce_with_logits_loss(logits, 1.0)
        reconstruction = mse_loss(fake, batch.voltages)
        kl = gaussian_kl_loss(mu, logvar)
        total = adversarial + self.config.alpha * reconstruction \
            + self.config.beta * kl
        stats = {
            "g_adversarial": adversarial.item(),
            "g_reconstruction": reconstruction.item(),
            "g_kl": kl.item(),
            "g_total": total.item(),
        }
        return total, stats

    def discriminator_loss(self, batch, rng):
        """The discriminator's BCE on the real pair and on a reconstruction
        from a posterior sample drawn under ``no_grad``."""
        mu, logvar = batch.posterior(self.encoder)
        with no_grad():
            latent = self.encoder.sample_latent(mu, logvar, rng)
            fake = self.generator(batch.levels, batch.pe_normalized, latent)
        real_logits = self.discriminator(batch.levels, batch.voltages)
        fake_logits = self.discriminator(batch.levels, Tensor(fake.numpy()))
        real_loss = bce_with_logits_loss(real_logits, 1.0)
        fake_loss = bce_with_logits_loss(fake_logits, 0.0)
        loss = real_loss + fake_loss
        stats = {
            "d_real": real_loss.item(),
            "d_fake": fake_loss.item(),
            "d_total": loss.item(),
        }
        return loss, stats
