"""Common interface of the conditional generative architectures.

The trainer (:mod:`repro.core.trainer`) is architecture agnostic: every model
exposes generator-side and discriminator-side parameter groups and loss
functions, plus a ``sample`` method that maps (PL, P/E) to normalised
voltages using latent vectors drawn from the standard Gaussian prior (the
paper's evaluation protocol).

Models take plain arrays: integer program levels and normalised voltages of
shape ``(N, H, W)``, and normalised P/E cycle counts of shape ``(N,)``.  They
build their network tensors at the model dtype themselves, the levels
through :func:`repro.core.pe_encoding.encode_levels`: sampling from the
arrays directly, training through one :class:`TrainingBatch` per step that
both of the step's losses read.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ModelConfig
from repro.core.encoder import ResNetEncoder
from repro.core.pe_encoding import encode_levels
from repro.nn import Module, Tensor

__all__ = ["ConditionalGenerativeModel", "TrainingBatch"]


class TrainingBatch:
    """One training step's mini-batch as network tensors at the model dtype.

    :meth:`ConditionalGenerativeModel.training_batch` builds it, and the
    trainer builds one per step and hands it to both of the step's losses.
    It holds the encoded program levels ``(N, LEVEL_CHANNELS, H, W)``, the
    normalised voltages as one ``(N, 1, H, W)`` channel and the normalised
    P/E counts ``(N,)``, and, once a loss has asked for it, the encoder's
    posterior on the real voltages (:meth:`posterior`), so a step encodes
    its batch once.  A batch serves one step: its posterior is a graph on
    that step's weights.
    """

    __slots__ = ("levels", "voltages", "pe_normalized", "_posterior")

    def __init__(self, levels: Tensor, voltages: Tensor,
                 pe_normalized: np.ndarray):
        self.levels = levels
        self.voltages = voltages
        self.pe_normalized = pe_normalized
        self._posterior: tuple[Tensor, Tensor] | None = None

    def posterior(self, encoder: ResNetEncoder) -> tuple[Tensor, Tensor]:
        """``(mu, logvar)`` of ``encoder`` on the batch's voltages: the
        first call runs the encoder, every later call returns its nodes."""
        if self._posterior is None:
            self._posterior = encoder(self.voltages, self.pe_normalized)
        return self._posterior


class ConditionalGenerativeModel(Module):
    """Base class for cVAE-GAN, cGAN, cVAE and BicycleGAN."""

    #: Registry name of the architecture (e.g. ``"cvae_gan"``).
    name: str = ""
    #: Label used in reports (matches the paper's notation, e.g. ``"cV-G"``).
    display_name: str = ""

    def __init__(self, config: ModelConfig):
        super().__init__()
        self.config = config

    # ------------------------------------------------------------------ #
    # Parameter groups
    # ------------------------------------------------------------------ #
    def generator_parameters(self) -> list[Tensor]:
        """Parameters updated by the generator/encoder optimizer."""
        raise NotImplementedError

    def discriminator_parameters(self) -> list[Tensor]:
        """Parameters updated by the discriminator optimizer (may be empty)."""
        return []

    @property
    def has_discriminator(self) -> bool:
        return len(self.discriminator_parameters()) > 0

    # ------------------------------------------------------------------ #
    # Losses
    # ------------------------------------------------------------------ #
    def training_batch(self, program_levels: np.ndarray,
                       voltages: np.ndarray,
                       pe_normalized: np.ndarray) -> TrainingBatch:
        """A step's batch for the losses: integer program levels and
        normalised voltages ``(N, H, W)``, normalised P/E counts ``(N,)``."""
        dtype = self.dtype
        volts = np.asarray(voltages)[:, None].astype(dtype, copy=False)
        return TrainingBatch(Tensor(encode_levels(program_levels, dtype)),
                             Tensor(volts), pe_normalized)

    def generator_loss(self, batch: TrainingBatch, rng: np.random.Generator
                       ) -> tuple[Tensor, dict[str, float]]:
        """Loss minimised by the generator (and encoder, where present)."""
        raise NotImplementedError

    def discriminator_loss(self, batch: TrainingBatch,
                           rng: np.random.Generator
                           ) -> tuple[Tensor, dict[str, float]] | None:
        """Loss minimised by the discriminator, or ``None`` if there is none."""
        return None

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def prior_latent(self, batch: int, rng: np.random.Generator) -> Tensor:
        """Latent vectors drawn from the standard Gaussian prior.

        Draws are taken in float64 and cast to the model dtype, so a
        float32 model consumes the rounded values of the exact same stream
        a float64 model would.
        """
        sample = rng.standard_normal((batch, self.config.latent_dim))
        return Tensor(sample.astype(self.dtype, copy=False))

    def sample(self, program_levels: np.ndarray, pe_normalized: np.ndarray,
               rng: np.random.Generator,
               latent: np.ndarray | None = None) -> np.ndarray:
        """Generate normalised voltages ``(N, H, W)`` for program levels.

        The forward pass is the generator's graph-free route,
        :meth:`UNetGenerator.forward_data
        <repro.core.generator.UNetGenerator.forward_data>`, and runs in the
        model's current mode: a :class:`~repro.channel.GenerativeChannel`
        puts its model in eval mode once, and :meth:`Trainer.train_step
        <repro.core.trainer.Trainer.train_step>` puts it back in train mode
        (where BatchNorm takes the batch statistics and updates its running
        averages).

        Parameters
        ----------
        program_levels:
            Integer program levels of shape ``(N, H, W)``.
        pe_normalized:
            Normalised P/E cycle counts of shape ``(N,)``.
        rng:
            Random generator for the prior latent sample.
        latent:
            Optional fixed latent vectors of shape ``(N, latent_dim)``.
        """
        dtype = self.dtype
        levels = encode_levels(program_levels, dtype)
        if latent is None:
            latent = self.prior_latent(len(levels), rng).data
        else:
            latent = np.asarray(latent, dtype=dtype)
        return self.generator.forward_data(levels, pe_normalized, latent)[:, 0]
