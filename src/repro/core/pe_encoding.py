"""Network-side encodings of the model inputs.

:func:`encode_levels` turns integer program levels into the network's level
input; the rest of this module builds the spatio-temporal combination, the
expressive P/E feature vector.

Section III-B: "We first encode the normalized P/E cycle count into a
d-dimensional P/E vector, which contains expressive powers of the normalized
P/E cycle, e.g., P/E^2, sqrt(P/E), etc.  Then, we spatially replicate the
d-dimensional P/E vector to the feature map with appropriate size H x W x d
and concatenate it with the H x W x C feature from each layer."

The networks compute the equivalent without building the replicated map: a
constant plane's convolution is a per-sample bias that varies only where
the window crosses the zero padding, so each conditioned convolution takes
the vectors as ``vectors=`` (:func:`repro.nn.functional.conv2d`,
:func:`~repro.nn.functional.conv_transpose2d`) and adds that bias.  The
weights keep the replicated formulation's layout, with the vector channels
after the feature channels.
"""

from __future__ import annotations

import numpy as np

from repro.flash.cell import NUM_LEVELS

__all__ = ["LEVEL_CHANNELS", "encode_levels", "pe_feature_vector"]

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
