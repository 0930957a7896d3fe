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

The network has two routes through the same weights.  The per-layer Tensor
route builds the autograd graph training needs; the graph-free route runs
every forward that builds no graph (sampling, the discriminator step's
fakes) on plain arrays, bit-identical to the Tensor route.
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
from repro.nn import functional as F
from repro.nn.backend import get_backend
from repro.nn.tensor import concatenate, is_grad_enabled

__all__ = ["UNetGenerator"]


def _normalize_(norm: Module, out: np.ndarray) -> None:
    """Apply a block's BatchNorm to its conv output in place (an
    :class:`Identity` norm leaves it as it is)."""
    if isinstance(norm, BatchNorm2d):
        scale, shift = norm.affine(out)
        out *= scale.reshape(1, -1, 1, 1)
        out += shift.reshape(1, -1, 1, 1)


def _layer_input(features: np.ndarray, extra: np.ndarray | None,
                 pe_features: np.ndarray | None) -> np.ndarray:
    """One layer's input, written once into one buffer.

    The channels are ``features``, then ``extra`` (the latent vectors as
    ``(N, d, 1, 1)`` on the Down part, a skip map on the Up part), then the
    P/E vectors as ``(N, d, 1, 1)``; vectors are replicated over the plane.
    Values and dtype are those of the Tensor route's concatenations:
    ``extra`` promotes, the P/E vectors are cast to the result.
    """
    parts = [features] if extra is None else [features, extra]
    dtype = np.result_type(*parts)
    if pe_features is not None:
        parts.append(pe_features.astype(dtype, copy=False))
    batch, _, height, width = features.shape
    channels = sum(part.shape[1] for part in parts)
    out = np.empty((batch, channels, height, width), dtype=dtype)
    start = 0
    for part in parts:
        stop = start + part.shape[1]
        out[:, start:stop] = part
        start = stop
    return out


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

    def forward_data(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on arrays, with no graph."""
        conv = self.conv
        out, _ = F.conv2d_data(x, conv.weight.data, conv.bias.data,
                               conv.stride, conv.padding)
        _normalize_(self.norm, out)
        return get_backend().leaky_relu(out, self.activation.negative_slope)


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
        self.final = final

    def forward(self, x: Tensor) -> Tensor:
        return self.activation(self.norm(self.conv(x)))

    def forward_data(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on arrays, with no graph."""
        conv = self.conv
        out = F.conv_transpose2d_data(x, conv.weight.data, conv.bias.data,
                                      conv.stride, conv.padding)
        _normalize_(self.norm, out)
        return np.tanh(out) if self.final else np.maximum(out, 0.0)


class UNetGenerator(Module):
    """U-Net with latent and P/E injection at every layer.

    :meth:`forward` takes one of two routes.  With gradients enabled it is
    :meth:`forward_tensors`, the per-layer Tensor route that builds the
    training graph.  Under :func:`~repro.nn.no_grad` no graph is built, so
    it runs :meth:`forward_data`, the graph-free route on plain arrays:
    channel sampling, ``sample`` in either mode and the discriminator
    step's fakes all go there.  The two routes give bit-identical outputs
    and, in train mode, the same running BatchNorm averages.
    """

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

        Under :func:`~repro.nn.no_grad` this runs :meth:`forward_data` and
        wraps its output in one Tensor; otherwise :meth:`forward_tensors`.
        """
        if is_grad_enabled():
            return self.forward_tensors(program_levels, pe_normalized, latent)
        return Tensor(self.forward_data(Tensor.ensure(program_levels).data,
                                        pe_normalized,
                                        Tensor.ensure(latent).data))

    def forward_tensors(self, program_levels: Tensor,
                        pe_normalized: np.ndarray, latent: Tensor) -> Tensor:
        """The per-layer Tensor route: the training forward, and the
        reference :meth:`forward_data` is tested against."""
        latent = Tensor.ensure(latent)
        pe_features = self._check_inputs(program_levels.shape, pe_normalized,
                                         latent.shape)
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

    def forward_data(self, program_levels: np.ndarray,
                     pe_normalized: np.ndarray,
                     latent: np.ndarray) -> np.ndarray:
        """The graph-free route: :meth:`forward_tensors` on plain arrays.

        Takes and returns arrays of the shapes :meth:`forward` takes and
        returns.  Each layer's input (features, skip, latent and P/E
        channels) is written once into one buffer, and the layers call the
        backend kernels directly; no Tensor is created.  BatchNorm layers
        in train mode normalise with the batch statistics and update their
        running averages, as on the Tensor route.
        """
        latent = np.asarray(latent)
        pe_features = self._check_inputs(program_levels.shape, pe_normalized,
                                         latent.shape)
        latent = latent[:, :, None, None]
        if pe_features is not None:
            pe_features = pe_features[:, :, None, None]
        skips: list[np.ndarray] = []
        out = program_levels
        for block in self.downs:
            out = block.forward_data(_layer_input(out, latent, pe_features))
            skips.append(out)
        for index, block in enumerate(self.ups):
            skip = skips[len(skips) - 1 - index] if index > 0 else None
            out = block.forward_data(_layer_input(out, skip, pe_features))
        return out

    def _check_inputs(self, levels_shape: tuple, pe_normalized: np.ndarray,
                      latent_shape: tuple) -> np.ndarray | None:
        """Check one forward's input shapes (:class:`ValueError`) and return
        its P/E feature vectors, ``None`` without P/E conditioning."""
        size = self.config.array_size
        if len(levels_shape) != 4 or levels_shape[1] != LEVEL_CHANNELS \
                or levels_shape[2:] != (size, size):
            raise ValueError(
                f"expected encoded levels of shape (N, {LEVEL_CHANNELS}, "
                f"{size}, {size}), got {tuple(levels_shape)}")
        batch = levels_shape[0]
        if tuple(latent_shape) != (batch, self.config.latent_dim):
            raise ValueError(
                f"expected latent vectors of shape ({batch}, "
                f"{self.config.latent_dim}), got {tuple(latent_shape)}")
        if not self.condition_on_pe:
            return None
        pe_features = pe_feature_vector(pe_normalized, self.config.pe_dim)
        if len(pe_features) != batch:
            raise ValueError(f"expected {batch} P/E cycle counts, got "
                             f"{len(pe_features)}")
        return pe_features
