"""Network-side encodings of the model inputs.

:func:`encode_levels` turns integer program levels into the network's level
input; the rest of this module builds the spatio-temporal combination, the
expressive P/E feature vector.

Section III-B: "We first encode the normalized P/E cycle count into a
d-dimensional P/E vector, which contains expressive powers of the normalized
P/E cycle, e.g., P/E^2, sqrt(P/E), etc.  Then, we spatially replicate the
d-dimensional P/E vector to the feature map with appropriate size H x W x d
and concatenate it with the H x W x C feature from each layer."
"""

from __future__ import annotations

import numpy as np

from repro.flash.cell import NUM_LEVELS
from repro.nn.tensor import Tensor, concatenate

__all__ = ["LEVEL_CHANNELS", "encode_levels", "pe_feature_vector",
           "spatial_replicate", "concat_condition", "replicate_latent"]

#: Channels :func:`encode_levels` gives one program-level array; it sizes
#: the generator's first Down block and the discriminator's first conv.
LEVEL_CHANNELS = 1

#: Exponents applied to the normalized P/E cycle count; the first ``pe_dim``
#: entries are used.  1 is the identity, 2 the square, 0.5 the square root,
#: and so on — the "expressive powers" of Section III-B.
_POWER_LADDER: tuple[float, ...] = (1.0, 2.0, 0.5, 3.0, 1.0 / 3.0, 0.25,
                                    4.0, 0.2, 5.0, 0.125)


def encode_levels(program_levels: np.ndarray, dtype) -> np.ndarray:
    """Integer program levels ``(N, H, W)`` -> network input ``(N, C, H, W)``.

    ``C`` is :data:`LEVEL_CHANNELS`.  The encoding is one scalar channel: the
    levels ``0..7`` spread evenly over ``[-1, 1]`` (``levels / 7 * 2 - 1``),
    computed in float64 and then cast to ``dtype``.  A float array raises
    :class:`TypeError`, so values already on the network scale are never
    read as levels.
    """
    levels = np.asarray(program_levels)
    if levels.dtype.kind not in "iu":
        raise TypeError(
            f"program levels must be integers, got {levels.dtype}")
    if levels.ndim != 3:
        raise ValueError(f"program levels must have shape (N, H, W), got "
                         f"{levels.shape}")
    scaled = levels.astype(np.float64) / (NUM_LEVELS - 1) * 2.0 - 1.0
    return scaled[:, None].astype(dtype, copy=False)


def pe_feature_vector(pe_normalized: np.ndarray, pe_dim: int = 6) -> np.ndarray:
    """Expand normalized P/E cycle counts into expressive power features.

    Parameters
    ----------
    pe_normalized:
        Array of shape ``(N,)`` with P/E cycle counts normalised to roughly
        ``[0, 1]`` (cycles divided by the experiment's maximum count).
    pe_dim:
        Number of feature dimensions (6 in the paper).

    Returns
    -------
    numpy.ndarray
        Array of shape ``(N, pe_dim)``.
    """
    if pe_dim < 1:
        raise ValueError("pe_dim must be positive")
    if pe_dim > len(_POWER_LADDER):
        raise ValueError(f"pe_dim must be at most {len(_POWER_LADDER)}")
    values = np.atleast_1d(np.asarray(pe_normalized, dtype=float))
    if values.ndim != 1:
        raise ValueError("pe_normalized must be a scalar or a 1-D array")
    if np.any(values < 0):
        raise ValueError("normalized P/E cycle counts must be non-negative")
    powers = np.asarray(_POWER_LADDER[:pe_dim])
    return values[:, None] ** powers[None, :]


def spatial_replicate(vector: np.ndarray, height: int, width: int) -> np.ndarray:
    """Replicate per-sample feature vectors over a spatial grid.

    Parameters
    ----------
    vector:
        Array of shape ``(N, d)``.
    height, width:
        Spatial size of the target feature map.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(N, d, height, width)`` (NCHW layout).
    """
    vector = np.asarray(vector)
    if vector.dtype.kind != "f":
        vector = vector.astype(float)
    if vector.ndim != 2:
        raise ValueError("vector must have shape (N, d)")
    if height < 1 or width < 1:
        raise ValueError("height and width must be positive")
    return np.broadcast_to(vector[:, :, None, None],
                           (*vector.shape, height, width)).copy()


def replicate_latent(latent: Tensor, height: int, width: int) -> Tensor:
    """Spatially replicate a latent vector Tensor, keeping the autograd graph.

    ``latent`` has shape ``(N, d)``; the result has shape ``(N, d, H, W)`` and
    gradients flowing into any spatial position are summed back into the
    original vector, so the encoder keeps receiving reconstruction gradients
    through the re-parameterised sample.
    """
    if latent.ndim != 2:
        raise ValueError("latent must have shape (N, d)")
    if height < 1 or width < 1:
        raise ValueError("height and width must be positive")
    batch, dim = latent.shape
    reshaped = latent.reshape(batch, dim, 1, 1)
    ones = Tensor(np.ones((1, 1, height, width), dtype=latent.data.dtype))
    return reshaped * ones


def concat_condition(features: Tensor, condition: np.ndarray) -> Tensor:
    """Channel-wise concatenation of a feature map with a conditioning map.

    ``features`` has shape ``(N, C, H, W)``; ``condition`` is either already a
    spatial map ``(N, d, H, W)`` or a per-sample vector ``(N, d)`` which is
    replicated to the feature map's spatial size first.  The result has
    ``C + d`` channels, the "channel-wise combination" of Section III-B.
    """
    # The conditioning map adopts the feature map's dtype so concatenation
    # never upcasts a float32 activation graph.
    condition = np.asarray(condition, dtype=features.dtype)
    batch, _, height, width = features.shape
    if condition.ndim == 2:
        condition = spatial_replicate(condition, height, width)
    if condition.shape[0] != batch or condition.shape[2:] != (height, width):
        raise ValueError(
            f"condition shape {condition.shape} incompatible with feature "
            f"shape {features.shape}")
    return concatenate([features, Tensor(condition)], axis=1)
