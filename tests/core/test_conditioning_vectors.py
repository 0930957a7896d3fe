"""The networks' conditioning vectors against literally replicated planes.

Section III-B replicates the latent and the P/E feature vector over each
layer's plane and concatenates them as channels.  The U-Net and the encoder
stem hand the vectors to their convolutions instead (``vectors=``), which
add the same contribution as a per-sample bias.  The reference forwards
here rebuild each network from its own layers with the replicated planes;
in float64 both formulations must agree to rounding, outputs and gradients
alike.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import (ModelConfig, ResNetEncoder, UNetGenerator,
                        encode_levels, pe_feature_vector)
from repro.flash.cell import NUM_LEVELS
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.backend import use_backend
from repro.nn.cjit import cjit_available
from repro.nn.tensor import concatenate

BACKENDS = ["numpy", pytest.param("cjit", marks=pytest.mark.skipif(
    not cjit_available(), reason="no C compiler (cc/clang/gcc) on PATH"))]

TOLERANCE = 1e-10


def _config() -> ModelConfig:
    return dataclasses.replace(ModelConfig.tiny(), dtype="float64")


def _planes(vectors: Tensor, like: Tensor) -> Tensor:
    batch, d = vectors.shape
    ones = Tensor(np.ones((1, 1, *like.shape[2:])))
    return vectors.reshape(batch, d, 1, 1) * ones


def _reference_unet(generator: UNetGenerator, levels: Tensor,
                    pe_normalized: np.ndarray, latent: Tensor) -> Tensor:
    """The U-Net with the latent and P/E vectors as replicated planes."""
    pe = None
    if generator.condition_on_pe:
        pe = Tensor(pe_feature_vector(pe_normalized, generator.config.pe_dim))
    skips = []
    out = levels
    for block in generator.downs:
        parts = [out, _planes(latent, out)]
        if pe is not None:
            parts.append(_planes(pe, out))
        conv = block.conv
        out = F.conv2d(concatenate(parts, axis=1), conv.weight, conv.bias,
                       conv.stride, conv.padding)
        out = block.activation(block.norm(out))
        skips.append(out)
    for index, block in enumerate(generator.ups):
        parts = [out] if index == 0 else [out, skips[len(skips) - 1 - index]]
        if pe is not None:
            parts.append(_planes(pe, out))
        conv = block.conv
        out = F.conv_transpose2d(concatenate(parts, axis=1), conv.weight,
                                 conv.bias, conv.stride, conv.padding)
        out = block.activation(block.norm(out))
    return out


def _reference_encoder(encoder: ResNetEncoder, voltages: Tensor,
                       pe_normalized: np.ndarray) -> tuple[Tensor, Tensor]:
    """The encoder with the P/E vector as replicated stem planes."""
    pe = Tensor(pe_feature_vector(pe_normalized, encoder.config.pe_dim))
    stem = encoder.stem
    out = F.conv2d(concatenate([voltages, _planes(pe, voltages)], axis=1),
                   stem.weight, stem.bias, stem.stride, stem.padding)
    out = encoder.activation(encoder.stem_bn(out))
    pooled = encoder.pool(encoder.block2(encoder.block1(out)))
    return encoder.fc_mu(pooled), encoder.fc_logvar(pooled)


def _assert_close(got: np.ndarray, want: np.ndarray,
                  scale: float | None = None) -> None:
    """Agreement relative to ``scale``, by default ``want``'s largest
    magnitude."""
    assert got.shape == want.shape and got.dtype == want.dtype
    if scale is None:
        scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= TOLERANCE * scale


def _assert_gradients_close(module, reference) -> None:
    """Every parameter gradient, relative to the largest of them: a conv
    bias ahead of a train-mode BatchNorm has a zero gradient in exact
    arithmetic, so its computed value is rounding noise either way."""
    pairs = list(zip(module.named_parameters(), reference.named_parameters()))
    assert pairs
    scale = max(float(np.max(np.abs(want.grad))) for _, want in
                reference.named_parameters())
    for (name, got), (other, want) in pairs:
        assert name == other
        _assert_close(got.grad, want.grad, scale)


def _inputs(config: ModelConfig, batch: int = 5):
    rng = np.random.default_rng(21)
    size = config.array_size
    levels = encode_levels(rng.integers(0, NUM_LEVELS, (batch, size, size)),
                           np.float64)
    return (levels, rng.uniform(0.2, 1.0, batch),
            rng.standard_normal((batch, config.latent_dim)),
            rng.uniform(-1.0, 1.0, (batch, 1, size, size)))


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("condition_on_pe", [True, False])
def test_unet_matches_replicated_planes(condition_on_pe, backend_name,
                                        cjit_backend):
    """``forward_tensors`` and ``forward_data`` against the reference, in
    train mode; every parameter gradient and the latent gradient too."""
    config = _config()
    levels, pe, latent, _ = _inputs(config)
    networks = [UNetGenerator(config, rng=np.random.default_rng(5),
                              condition_on_pe=condition_on_pe)
                for _ in range(3)]
    with use_backend(cjit_backend if backend_name == "cjit" else backend_name):
        latents = [Tensor(latent.copy(), requires_grad=True) for _ in range(2)]
        outputs = [networks[0].forward_tensors(Tensor(levels), pe, latents[0]),
                   _reference_unet(networks[1], Tensor(levels), pe,
                                   latents[1])]
        graph_free = networks[2].forward_data(levels, pe, latent)
        seed = Tensor(np.random.default_rng(8).standard_normal(
            outputs[0].shape))
        for out in outputs:
            (out * seed).sum().backward()
    _assert_close(outputs[0].data, outputs[1].data)
    _assert_close(graph_free, outputs[1].data)
    _assert_gradients_close(networks[0], networks[1])
    _assert_close(latents[0].grad, latents[1].grad)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_encoder_matches_replicated_planes(backend_name, cjit_backend):
    """The posterior and every parameter and input gradient, train mode."""
    config = _config()
    _, pe, _, volts = _inputs(config)
    networks = [ResNetEncoder(config, rng=np.random.default_rng(6))
                for _ in range(2)]
    with use_backend(cjit_backend if backend_name == "cjit" else backend_name):
        voltages = [Tensor(volts.copy(), requires_grad=True) for _ in range(2)]
        posteriors = [networks[0](voltages[0], pe),
                      _reference_encoder(networks[1], voltages[1], pe)]
        seeds = [Tensor(np.random.default_rng(9 + i).standard_normal(
            posteriors[0][i].shape)) for i in range(2)]
        for mu, logvar in posteriors:
            ((mu * seeds[0]).sum() + (logvar * seeds[1]).sum()).backward()
    for got, want in zip(*posteriors):
        _assert_close(got.data, want.data)
    _assert_gradients_close(networks[0], networks[1])
    _assert_close(voltages[0].grad, voltages[1].grad)
