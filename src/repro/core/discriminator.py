"""PatchGAN discriminator (Remark 1, item 3).

"The input to the discriminator is the concatenation of fake voltage levels
and program levels.  With the same naming convention as in the generator, we
express the discriminator as C64, C128, C1."

The discriminator outputs a spatial map of real/fake logits (a "patch"
decision per receptive field) rather than a single scalar.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ModelConfig
from repro.core.pe_encoding import LEVEL_CHANNELS
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Identity,
    LeakyReLU,
    Module,
    ModuleList,
    Tensor,
)
from repro.nn.tensor import concatenate

__all__ = ["PatchGANDiscriminator"]


class PatchGANDiscriminator(Module):
    """Conditional PatchGAN operating on (PL, VL) channel pairs."""

    def __init__(self, config: ModelConfig,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.config = config
        layers = []
        in_channels = LEVEL_CHANNELS + 1  # program levels + voltage levels
        for index, out_channels in enumerate(config.discriminator_channels):
            layers.append(Conv2d(in_channels, out_channels, 4, stride=2,
                                 padding=1, rng=rng))
            layers.append(BatchNorm2d(out_channels) if index > 0 else Identity())
            layers.append(LeakyReLU(0.2))
            in_channels = out_channels
        self.features = ModuleList(layers)
        # Final C1 layer producing one logit per patch (no normalisation).
        self.head = Conv2d(in_channels, 1, 4, stride=1, padding=1, rng=rng)

    def forward(self, program_levels: Tensor, voltages: Tensor) -> Tensor:
        """Return a map of real/fake logits for a (PL, VL) pair.

        ``program_levels`` holds encoded levels of shape
        ``(N, LEVEL_CHANNELS, H, W)`` and ``voltages`` normalised voltages of
        shape ``(N, 1, H, W)``.
        """
        if (program_levels.shape[0] != voltages.shape[0]
                or program_levels.shape[2:] != voltages.shape[2:]):
            raise ValueError(
                f"program levels {program_levels.shape} and voltages "
                f"{voltages.shape} differ in batch or spatial size")
        out = concatenate([program_levels, voltages], axis=1)
        for layer in self.features:
            out = layer(out)
        return self.head(out)
