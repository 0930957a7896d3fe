"""Channel backend registry and factory (mirrors :mod:`repro.core.zoo`).

Any consumer — the time-aware constrained-code selector, the ECC evaluation
loop, the figure drivers — selects a channel backend by configuration string:

>>> channel = build_channel("simulator", rng=np.random.default_rng(0))
>>> channel = build_channel("gaussian", dataset=paired_dataset)
>>> channel = build_channel("cvae_gan", model=trained_model)
>>> channel = build_channel("cvae_gan", checkpoint="zoo/cvae_gan-tiny")

The last form is the on-disk model zoo (:mod:`repro.artifacts`): the
backend is cold-started from a checkpoint directory — no retraining, no
refitting — with sampling bit-identical to the model that was saved;
``save_channel`` writes such checkpoints.

``resolve_channel`` additionally accepts already-built backends and the
concrete classes behind them (:class:`repro.flash.FlashChannel`, a
:class:`repro.core.base.ConditionalGenerativeModel`, fitted statistical
models), wrapping them into protocol adapters, so every public API that takes
a ``channel`` argument accepts any spelling.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.baselines.models import (
    GaussianChannelModel,
    NormalLaplaceChannelModel,
    StatisticalChannelModel,
    StudentsTChannelModel,
)
from repro.channel.adapters import (
    BaselineChannel,
    GenerativeChannel,
    SimulatorChannel,
)
from repro.channel.protocol import ChannelModel
from repro.core.base import ConditionalGenerativeModel
from repro.flash.channel import FlashChannel

__all__ = ["CHANNEL_REGISTRY", "register_channel", "build_channel",
           "save_channel", "resolve_channel"]

#: Factories keyed by backend name; each maps ``(**kwargs) -> ChannelModel``.
CHANNEL_REGISTRY: dict[str, Callable[..., ChannelModel]] = {}


def register_channel(name: str):
    """Decorator registering a backend factory under ``name``."""
    def decorator(factory: Callable[..., ChannelModel]):
        if name in CHANNEL_REGISTRY:
            raise ValueError(f"channel backend {name!r} already registered")
        CHANNEL_REGISTRY[name] = factory
        return factory
    return decorator


@register_channel("simulator")
def _build_simulator(**kwargs) -> ChannelModel:
    return SimulatorChannel(**kwargs)


def _build_generative(architecture: str, *, model=None, config=None,
                      rng: np.random.Generator | None = None,
                      **kwargs) -> ChannelModel:
    if model is None:
        from repro.core.config import ModelConfig
        from repro.core.zoo import build_model

        config = config if config is not None else ModelConfig.small()
        model = build_model(architecture, config, rng=rng)
    return GenerativeChannel(model, rng=rng, **kwargs)


@register_channel("generative")
@register_channel("cvae_gan")
def _build_cvae_gan(**kwargs) -> ChannelModel:
    return _build_generative("cvae_gan", **kwargs)


@register_channel("cgan")
def _build_cgan(**kwargs) -> ChannelModel:
    return _build_generative("cgan", **kwargs)


@register_channel("cvae")
def _build_cvae(**kwargs) -> ChannelModel:
    return _build_generative("cvae", **kwargs)


@register_channel("bicycle_gan")
def _build_bicycle_gan(**kwargs) -> ChannelModel:
    return _build_generative("bicycle_gan", **kwargs)


@register_channel("gaussian")
def _build_gaussian(**kwargs) -> ChannelModel:
    kwargs.setdefault("model", GaussianChannelModel)
    return BaselineChannel(**kwargs)


@register_channel("normal_laplace")
def _build_normal_laplace(**kwargs) -> ChannelModel:
    kwargs.setdefault("model", NormalLaplaceChannelModel)
    return BaselineChannel(**kwargs)


@register_channel("students_t")
def _build_students_t(**kwargs) -> ChannelModel:
    kwargs.setdefault("model", StudentsTChannelModel)
    return BaselineChannel(**kwargs)


def build_channel(name: str, **kwargs) -> ChannelModel:
    """Instantiate a channel backend by registry name.

    Parameters
    ----------
    name:
        One of :data:`CHANNEL_REGISTRY` (``"simulator"``, ``"generative"`` /
        ``"cvae_gan"`` / ``"cgan"`` / ``"cvae"`` / ``"bicycle_gan"``,
        ``"gaussian"``, ``"normal_laplace"``, ``"students_t"``).
    kwargs:
        Backend-specific options, notably ``rng`` (the single generator
        threaded through every stochastic operation), ``params``,
        ``geometry``; plus ``model``/``config`` for generative backends and
        ``model``/``dataset`` for baselines.  ``checkpoint=path`` restores
        the backend from an on-disk checkpoint instead of building it fresh
        (:mod:`repro.artifacts`); the stored backend must match ``name``
        (``"generative"`` accepts any generative architecture) or a
        :class:`repro.artifacts.RegistryMismatchError` is raised.
    """
    if name not in CHANNEL_REGISTRY:
        raise ValueError(f"unknown channel backend {name!r}; available: "
                         f"{sorted(CHANNEL_REGISTRY)}")
    checkpoint = kwargs.pop("checkpoint", None)
    if checkpoint is not None:
        if "model" in kwargs or "config" in kwargs or "dataset" in kwargs:
            raise TypeError("checkpoint=... replaces the model/config/"
                            "dataset arguments; pass one or the other")
        from repro.artifacts.registry_io import load_channel

        return load_channel(checkpoint, expected=name, **kwargs)
    return CHANNEL_REGISTRY[name](**kwargs)


def save_channel(channel, directory, **kwargs):
    """Checkpoint a channel backend to ``directory`` (the model zoo).

    The registry-level spelling of :func:`repro.artifacts.save_channel`:
    accepts any supported backend (generative adapter or bare model,
    fitted baseline, simulator) and writes a self-describing checkpoint
    directory that :func:`build_channel` can restore with
    ``checkpoint=directory``.
    """
    from repro.artifacts.registry_io import save_channel as _save

    return _save(channel, directory, **kwargs)


def resolve_channel(channel, **kwargs) -> ChannelModel:
    """Coerce any channel spelling into a protocol backend.

    Accepts a registry name, an already-built :class:`ChannelModel`, a
    :class:`repro.exec.ChannelRef` (resolved from its on-disk checkpoint,
    memoized per thread), or one of the concrete classes behind the
    adapters (which are wrapped in their adapter).  ``kwargs`` are only applied when a new
    backend is constructed.
    """
    if isinstance(channel, ChannelModel):
        return channel
    if isinstance(channel, str):
        return build_channel(channel, **kwargs)
    from repro.exec.plan import ChannelRef

    if isinstance(channel, ChannelRef):
        if kwargs:
            # Resolution constructs a backend, so caller kwargs apply —
            # derive a ref with them merged (caller's take precedence) so
            # the memo keys the combination, honouring this function's
            # contract instead of silently dropping the arguments.
            channel = ChannelRef(channel.name, channel.checkpoint,
                                 **{**channel.kwargs, **kwargs})
        return channel.resolve()
    if isinstance(channel, FlashChannel):
        return SimulatorChannel(simulator=channel, **kwargs)
    if isinstance(channel, ConditionalGenerativeModel):
        return GenerativeChannel(channel, **kwargs)
    if isinstance(channel, StatisticalChannelModel):
        return BaselineChannel(channel, **kwargs)
    raise TypeError(f"cannot interpret {type(channel).__name__} as a channel "
                    "backend; pass a registry name, a ChannelModel, or one "
                    "of the supported concrete channel classes")
