"""Weight initialisation schemes.

The generative models in the paper inherit the DCGAN/pix2pix convention of
initialising convolution weights from a zero-mean Gaussian with standard
deviation 0.02; linear layers default to Kaiming-uniform fan-in scaling.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.dtypes import get_default_dtype

__all__ = [
    "normal_",
    "kaiming_uniform",
    "dcgan_conv_init",
]


def normal_(shape: tuple[int, ...], std: float = 0.02,
            rng: np.random.Generator | None = None) -> np.ndarray:
    """Zero-mean Gaussian initialisation with the given standard deviation."""
    generator = rng if rng is not None else np.random.default_rng()
    sample = generator.normal(0.0, std, size=shape)
    return sample.astype(get_default_dtype(), copy=False)


def kaiming_uniform(shape: tuple[int, ...], fan_in: int,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Kaiming-uniform initialisation used for linear layers."""
    generator = rng if rng is not None else np.random.default_rng()
    bound = math.sqrt(1.0 / max(fan_in, 1))
    sample = generator.uniform(-bound, bound, size=shape)
    return sample.astype(get_default_dtype(), copy=False)


def dcgan_conv_init(shape: tuple[int, ...],
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """DCGAN-style N(0, 0.02) initialisation used for all conv kernels."""
    return normal_(shape, std=0.02, rng=rng)
