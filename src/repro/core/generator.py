"""U-Net generator with spatio-temporal conditioning (Remark 1, item 2).

The generator reconstructs the voltage array from the program-level array.
Following the paper:

* every layer of the Down part receives the latent vector ``z`` by spatial
  replication and channel-wise concatenation (the BicycleGAN "all-layers"
  injection);
* every layer (Down and Up) receives the replicated d-dimensional P/E feature
  map, the spatio-temporal combination of Section III-B;
* every Up-part layer receives a skip connection from the corresponding
  Down-part layer (U-Net);
* all convolutions are 4x4 kernels with stride 2 and padding 1, so each Down
  layer halves and each Up layer doubles the spatial resolution.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ModelConfig
from repro.core.pe_encoding import (
    LEVEL_CHANNELS,
    concat_condition,
    pe_feature_vector,
    replicate_latent,
)
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    Identity,
    LeakyReLU,
    Module,
    ModuleList,
    ReLU,
    Tanh,
    Tensor,
)
from repro.nn.tensor import concatenate

__all__ = ["UNetGenerator"]


class _DownBlock(Module):
    """Convolution-BatchNorm-ReLU block of the Down part (stride 2)."""

    def __init__(self, in_channels: int, out_channels: int,
                 use_batchnorm: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.conv = Conv2d(in_channels, out_channels, 4, stride=2, padding=1,
                           rng=rng)
        self.norm = BatchNorm2d(out_channels) if use_batchnorm else Identity()
        self.activation = LeakyReLU(0.2)

    def forward(self, x: Tensor) -> Tensor:
        return self.activation(self.norm(self.conv(x)))


class _UpBlock(Module):
    """Transposed-convolution-BatchNorm-ReLU block of the Up part (stride 2)."""

    def __init__(self, in_channels: int, out_channels: int,
                 use_batchnorm: bool = True, final: bool = False,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.conv = ConvTranspose2d(in_channels, out_channels, 4, stride=2,
                                    padding=1, rng=rng)
        self.norm = BatchNorm2d(out_channels) if use_batchnorm and not final \
            else Identity()
        self.activation = Tanh() if final else ReLU()

    def forward(self, x: Tensor) -> Tensor:
        return self.activation(self.norm(self.conv(x)))


class UNetGenerator(Module):
    """U-Net with latent and P/E injection at every layer."""

    def __init__(self, config: ModelConfig,
                 rng: np.random.Generator | None = None,
                 condition_on_pe: bool = True):
        super().__init__()
        self.config = config
        self.condition_on_pe = condition_on_pe
        pe_dim = config.pe_dim if condition_on_pe else 0
        latent_dim = config.latent_dim
        down_channels = config.down_channels
        depth = len(down_channels)

        downs = []
        in_channels = LEVEL_CHANNELS
        for index, out_channels in enumerate(down_channels):
            downs.append(_DownBlock(in_channels + latent_dim + pe_dim,
                                    out_channels,
                                    use_batchnorm=index > 0, rng=rng))
            in_channels = out_channels
        self.downs = ModuleList(downs)

        ups = []
        for index in range(depth):
            last = index == depth - 1
            out_channels = 1 if last else down_channels[depth - 2 - index]
            if index == 0:
                in_channels = down_channels[depth - 1] + pe_dim
            else:
                previous = down_channels[depth - 1 - index]
                skip = down_channels[depth - 1 - index]
                in_channels = previous + skip + pe_dim
            ups.append(_UpBlock(in_channels, out_channels, final=last, rng=rng))
        self.ups = ModuleList(ups)

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, program_levels: Tensor, pe_normalized: np.ndarray,
                latent: Tensor) -> Tensor:
        """Reconstruct normalised voltages from program levels.

        Parameters
        ----------
        program_levels:
            Encoded program levels of shape ``(N, LEVEL_CHANNELS, H, W)``
            (:func:`~repro.core.pe_encoding.encode_levels`).
        pe_normalized:
            Normalised P/E cycle counts of shape ``(N,)``.
        latent:
            Latent vectors of shape ``(N, latent_dim)``.
        """
        if program_levels.shape[2] != self.config.array_size:
            raise ValueError(
                f"expected {self.config.array_size}x{self.config.array_size} "
                f"arrays, got {program_levels.shape[2:]} ")
        pe_features = None
        if self.condition_on_pe:
            pe_features = pe_feature_vector(pe_normalized, self.config.pe_dim)
        latent = Tensor.ensure(latent)

        skips: list[Tensor] = []
        out = program_levels
        for block in self.downs:
            height, width = out.shape[2], out.shape[3]
            latent_map = replicate_latent(latent, height, width)
            out = concatenate([out, latent_map], axis=1)
            if pe_features is not None:
                out = concat_condition(out, pe_features)
            out = block(out)
            skips.append(out)

        for index, block in enumerate(self.ups):
            if index > 0:
                skip = skips[len(skips) - 1 - index]
                out = concatenate([out, skip], axis=1)
            if pe_features is not None:
                out = concat_condition(out, pe_features)
            out = block(out)
        return out
