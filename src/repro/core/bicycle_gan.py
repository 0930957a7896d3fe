"""BicycleGAN comparator (Remark 3; Zhu et al., NIPS 2017).

BicycleGAN combines two cycles:

* the **cVAE-GAN** cycle (VL -> z -> VL~): identical to
  :class:`repro.core.cvae_gan.ConditionalVAEGAN`; and
* the **cLR-GAN** cycle (z -> VL~ -> z~): a latent vector drawn from the
  prior is decoded and then re-estimated by the encoder, with an l1 latent
  regression loss encouraging the generator to keep the latent information.

As for the cVAE-GAN, a training step encodes the real voltages once: the
discriminator step computes the batch's posterior
(:meth:`~repro.core.base.TrainingBatch.posterior`) with gradients on and
samples both fakes under ``no_grad``; the generator step samples the same
posterior again and back-propagates through it, with the discriminator
frozen.  The cLR-GAN cycle's encoder pass, on the generated voltages, is
the step's only other encoder forward.
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
    l1_loss,
    mse_loss,
    no_grad,
)

__all__ = ["BicycleGAN"]


class BicycleGAN(ConditionalGenerativeModel):
    """cVAE-GAN + cLR-GAN hybrid."""

    name = "bicycle_gan"
    display_name = "Bicycle"

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

    def generator_parameters(self):
        return self.generator.parameters() + self.encoder.parameters()

    def discriminator_parameters(self):
        return self.discriminator.parameters()

    def generator_loss(self, batch, rng):
        """Both cycles' generator/encoder losses."""
        levels, pe_normalized = batch.levels, batch.pe_normalized
        # --- cVAE-GAN cycle: encode the real voltages, reconstruct them. ---
        mu, logvar = batch.posterior(self.encoder)
        encoded_latent = self.encoder.sample_latent(mu, logvar, rng)
        reconstructed = self.generator(levels, pe_normalized, encoded_latent)
        vae_logits = self.discriminator(levels, reconstructed)
        vae_adversarial = bce_with_logits_loss(vae_logits, 1.0)
        reconstruction = mse_loss(reconstructed, batch.voltages)
        kl = gaussian_kl_loss(mu, logvar)

        # --- cLR-GAN cycle: decode a prior latent, then recover it. ---
        prior_latent = self.prior_latent(levels.shape[0], rng)
        generated = self.generator(levels, pe_normalized, prior_latent)
        lr_logits = self.discriminator(levels, generated)
        lr_adversarial = bce_with_logits_loss(lr_logits, 1.0)
        recovered_mu = self.encoder.mean(generated, pe_normalized)
        latent_regression = l1_loss(recovered_mu, prior_latent)

        total = vae_adversarial + lr_adversarial \
            + self.config.alpha * reconstruction \
            + self.config.beta * kl \
            + self.config.latent_regression_weight * latent_regression
        stats = {
            "g_adversarial": vae_adversarial.item() + lr_adversarial.item(),
            "g_reconstruction": reconstruction.item(),
            "g_kl": kl.item(),
            "g_latent_regression": latent_regression.item(),
            "g_total": total.item(),
        }
        return total, stats

    def discriminator_loss(self, batch, rng):
        """The discriminator's BCE on the real pair (weighted twice) and on
        both cycles' fakes, drawn under ``no_grad``."""
        levels, pe_normalized = batch.levels, batch.pe_normalized
        mu, logvar = batch.posterior(self.encoder)
        with no_grad():
            encoded_latent = self.encoder.sample_latent(mu, logvar, rng)
            reconstructed = self.generator(levels, pe_normalized,
                                           encoded_latent)
            prior_latent = self.prior_latent(levels.shape[0], rng)
            generated = self.generator(levels, pe_normalized, prior_latent)
        real_logits = self.discriminator(levels, batch.voltages)
        fake_vae_logits = self.discriminator(levels,
                                             Tensor(reconstructed.numpy()))
        fake_lr_logits = self.discriminator(levels, Tensor(generated.numpy()))
        loss = 2.0 * bce_with_logits_loss(real_logits, 1.0) \
            + bce_with_logits_loss(fake_vae_logits, 0.0) \
            + bce_with_logits_loss(fake_lr_logits, 0.0)
        return loss, {"d_total": loss.item()}
