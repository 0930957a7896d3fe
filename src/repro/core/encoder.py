"""ResNet encoder: read voltages -> latent posterior (Remark 1, item 1).

"We use the two residual blocks, each of which contains two 3x3 convolutional
layers with stride 1 and padding 1.  We then add two linear layers, which map
output features to mean and variance for the latent vector."

The encoder is conditioned on the P/E cycle count through its stem: the P/E
feature vector enters as spatially constant input channels after the
voltage channel (the replicated P/E map of Section III-B, added as the
stem's per-sample bias by :func:`repro.nn.functional.conv2d`'s ``vectors``),
so it parameterises the posterior Q(z | VL, P/E).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ModelConfig
from repro.core.pe_encoding import pe_feature_vector
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    Module,
    ReLU,
    Tensor,
)

__all__ = ["ResidualBlock", "ResNetEncoder"]


class ResidualBlock(Module):
    """Two 3x3 stride-1 convolutions with a skip connection."""

    def __init__(self, channels: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.conv1 = Conv2d(channels, channels, 3, stride=1, padding=1, rng=rng)
        self.bn1 = BatchNorm2d(channels)
        self.conv2 = Conv2d(channels, channels, 3, stride=1, padding=1, rng=rng)
        self.bn2 = BatchNorm2d(channels)
        self.activation = ReLU()

    def forward(self, x: Tensor) -> Tensor:
        residual = x
        out = self.activation(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        return self.activation(out + residual)


class ResNetEncoder(Module):
    """Map a (VL, P/E) pair to the mean and log-variance of the latent vector.

    The stem convolves the voltage channel followed by ``pe_dim`` P/E
    channels; the P/E channels are constant over the array, so the stem
    takes the P/E feature vectors as ``vectors`` and never builds them as
    planes.  The residual blocks have no constant channels.
    """

    def __init__(self, config: ModelConfig,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.config = config
        channels = config.encoder_channels
        in_channels = 1 + config.pe_dim
        self.stem = Conv2d(in_channels, channels, 3, stride=1, padding=1,
                           rng=rng)
        self.stem_bn = BatchNorm2d(channels)
        self.block1 = ResidualBlock(channels, rng=rng)
        self.block2 = ResidualBlock(channels, rng=rng)
        self.pool = GlobalAvgPool2d()
        self.fc_mu = Linear(channels, config.latent_dim, rng=rng)
        self.fc_logvar = Linear(channels, config.latent_dim, rng=rng)
        self.activation = ReLU()

    def forward(self, voltages: Tensor,
                pe_normalized: np.ndarray) -> tuple[Tensor, Tensor]:
        """Return ``(mu, logvar)`` of the posterior Q(z | VL, P/E).

        Parameters
        ----------
        voltages:
            Normalised voltage arrays of shape ``(N, 1, H, W)``.
        pe_normalized:
            Normalised P/E cycle counts of shape ``(N,)``.
        """
        pooled = self._features(voltages, pe_normalized)
        return self.fc_mu(pooled), self.fc_logvar(pooled)

    def mean(self, voltages: Tensor, pe_normalized: np.ndarray) -> Tensor:
        """Only the posterior mean ``mu``: the log-variance head is not run,
        so no graph is built through it."""
        return self.fc_mu(self._features(voltages, pe_normalized))

    def _features(self, voltages: Tensor,
                  pe_normalized: np.ndarray) -> Tensor:
        """The shared trunk: pooled residual features of the (VL, P/E) pair."""
        pe_features = pe_feature_vector(pe_normalized, self.config.pe_dim)
        out = self.stem(voltages, pe_features.astype(voltages.dtype))
        out = self.activation(self.stem_bn(out))
        out = self.block1(out)
        out = self.block2(out)
        return self.pool(out)

    def sample_latent(self, mu: Tensor, logvar: Tensor,
                      rng: np.random.Generator) -> Tensor:
        """Re-parameterisation trick: ``z = mu + sigma * eps``.

        The noise is drawn in float64 and cast to the posterior's dtype so
        float32 and float64 models consume the same stream.
        """
        epsilon = rng.standard_normal(mu.shape).astype(mu.data.dtype,
                                                       copy=False)
        return mu + (logvar * 0.5).exp() * Tensor(epsilon)
