"""Registry of the conditional generative architectures (Remark 3)."""

from __future__ import annotations

import numpy as np

from repro.core.base import ConditionalGenerativeModel
from repro.core.bicycle_gan import BicycleGAN
from repro.core.cgan import ConditionalGAN
from repro.core.config import ModelConfig
from repro.core.cvae import ConditionalVAE
from repro.core.cvae_gan import ConditionalVAEGAN

__all__ = ["MODEL_REGISTRY", "build_model"]

#: Architectures compared in Remark 3, keyed by their registry names.
MODEL_REGISTRY: dict[str, type[ConditionalGenerativeModel]] = {
    ConditionalVAEGAN.name: ConditionalVAEGAN,
    ConditionalGAN.name: ConditionalGAN,
    ConditionalVAE.name: ConditionalVAE,
    BicycleGAN.name: BicycleGAN,
}


def build_model(name: str, config: ModelConfig | None = None,
                rng: np.random.Generator | None = None,
                **kwargs) -> ConditionalGenerativeModel:
    """Instantiate an architecture by registry name.

    Parameters
    ----------
    name:
        One of ``"cvae_gan"``, ``"cgan"``, ``"cvae"``, ``"bicycle_gan"``.
    config:
        Model configuration (defaults to :meth:`ModelConfig.paper`).  Its
        ``dtype`` field ("float32" unless overridden) sets the working
        precision of every parameter, buffer and activation; weight draws
        are taken in float64 and cast, so two models built from the same
        seed at different precisions hold the same values up to rounding.
    rng:
        Random generator used for weight initialisation.
    kwargs:
        Extra keyword arguments forwarded to the architecture constructor
        (e.g. ``condition_on_pe=False`` for the ablation benchmark).
    """
    if name not in MODEL_REGISTRY:
        raise ValueError(f"unknown architecture {name!r}; available: "
                         f"{sorted(MODEL_REGISTRY)}")
    config = config if config is not None else ModelConfig.paper()
    return MODEL_REGISTRY[name](config, rng=rng, **kwargs)

