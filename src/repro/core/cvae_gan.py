"""The conditional VAE-GAN of the paper (Section III, Eq. (1)).

The architecture fuses a conditional VAE and a conditional GAN: the encoder
maps the measured voltages (and the P/E cycle count) to a latent posterior,
the U-Net generator reconstructs voltages from the program levels, the latent
sample and the P/E features, and the PatchGAN discriminator judges (PL, VL)
pairs.  The training objective is

    min_{Gen, Enc} max_{Dis}  L_GAN + alpha * L_recon + beta * L_KL
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
    def _posterior_sample(self, voltages: Tensor, pe_normalized: np.ndarray,
                          rng: np.random.Generator
                          ) -> tuple[Tensor, Tensor, Tensor]:
        mu, logvar = self.encoder(voltages, pe_normalized)
        latent = self.encoder.sample_latent(mu, logvar, rng)
        return latent, mu, logvar

    def generator_loss(self, program_levels, voltages, pe_normalized, rng):
        latent, mu, logvar = self._posterior_sample(voltages, pe_normalized, rng)
        fake = self.generator(program_levels, pe_normalized, latent)
        logits = self.discriminator(program_levels, fake)

        adversarial = bce_with_logits_loss(logits, 1.0)
        reconstruction = mse_loss(fake, voltages)
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

    def discriminator_loss(self, program_levels, voltages, pe_normalized, rng):
        with no_grad():
            latent, _, _ = self._posterior_sample(voltages, pe_normalized, rng)
            fake = self.generator(program_levels, pe_normalized, latent)
        real_logits = self.discriminator(program_levels, voltages)
        fake_logits = self.discriminator(program_levels, Tensor(fake.numpy()))
        real_loss = bce_with_logits_loss(real_logits, 1.0)
        fake_loss = bce_with_logits_loss(fake_logits, 0.0)
        loss = real_loss + fake_loss
        stats = {
            "d_real": real_loss.item(),
            "d_fake": fake_loss.item(),
            "d_total": loss.item(),
        }
        return loss, stats

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def _generate(self, program_levels, pe_normalized, latent):
        return self.generator(program_levels, pe_normalized, latent)

    def encode(self, voltages: np.ndarray, pe_normalized: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and log-variance for normalised voltage arrays."""
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                volts = np.asarray(voltages, dtype=self.dtype)
                mu, logvar = self.encoder(Tensor(volts), pe_normalized)
        finally:
            self.train(was_training)
        return mu.numpy(), logvar.numpy()
