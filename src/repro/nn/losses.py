"""Loss functions used by the conditional generative models.

The cVAE-GAN objective of Eq. (1) in the paper combines an adversarial loss
(binary cross-entropy on the PatchGAN output), an l2 reconstruction loss and a
Gaussian KL term with weights alpha = 10 and beta = 0.01.

The main losses are *fused*: instead of building a chain of intermediate
autograd nodes (each allocating full-size arrays), the forward value is one
NumPy reduction and the backward pass one closed-form expression.  Loss
values accumulate in float64 regardless of the activation dtype — the
scalar is where float32 round-off would actually compound — while the
gradients flowing back into the network keep the network's dtype.

Loss values never go through the array backend: every backend computes
them with the same NumPy expressions, so a loss reads the same bits on
numpy and cjit, as the weights do.

The closed-form gradient buffers are handed over via ``_accumulate_owned``:
they are freshly built, so the first accumulation adopts them without a
defensive copy.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, _unbroadcast

__all__ = [
    "mse_loss",
    "l1_loss",
    "bce_with_logits_loss",
    "gaussian_kl_loss",
]


def _scalar_node(value: float, parents, op: str) -> Tensor:
    """A 0-d float64 loss node with the given parents."""
    template = parents[0]
    return template._make_child(np.float64(value).reshape(()), parents, op)


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error (the paper's l2 reconstruction loss).

    Fused: forward is one ``sum(diff**2)`` contraction accumulated in
    float64 (no float64 copy), backward is ``2 * diff / N`` in the
    prediction's dtype.
    """
    target = Tensor.ensure(target)
    diff = prediction.data - target.data
    flat = np.ascontiguousarray(diff).ravel()
    value = float(np.einsum("i,i->", flat, flat, dtype=np.float64)) \
        / diff.size
    out = _scalar_node(value, (prediction,), "mse")
    if out.requires_grad:
        def _backward():
            scale = diff.dtype.type(2.0 / diff.size) \
                * diff.dtype.type(out.grad)
            prediction._accumulate_owned(_unbroadcast(diff * scale,
                                                      prediction.data.shape))
        out._backward = _backward
    return out


def l1_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error, used by the pix2pix comparator (fused)."""
    target = Tensor.ensure(target)
    diff = prediction.data - target.data
    value = float(np.abs(diff).sum(dtype=np.float64)) / diff.size
    out = _scalar_node(value, (prediction,), "l1")
    if out.requires_grad:
        def _backward():
            scale = diff.dtype.type(1.0 / diff.size) \
                * diff.dtype.type(out.grad)
            prediction._accumulate_owned(_unbroadcast(np.sign(diff) * scale,
                                                      prediction.data.shape))
        out._backward = _backward
    return out


def bce_with_logits_loss(logits: Tensor, target_value: float) -> Tensor:
    """Numerically stable binary cross-entropy on raw logits.

    Uses the standard formulation
    ``max(x, 0) - x * y + log(1 + exp(-|x|))``, fused into a single forward
    reduction; the backward pass is the closed form
    ``(sigmoid(x) - y) / N``.
    """
    x = logits.data
    target = float(target_value)
    loss = np.maximum(x, 0.0) - x * target + np.log1p(np.exp(-np.abs(x)))
    value = float(loss.sum(dtype=np.float64)) / x.size
    out = _scalar_node(value, (logits,), "bce_logits")
    if out.requires_grad:
        def _backward():
            grad = 1.0 / (1.0 + np.exp(-x))
            grad -= x.dtype.type(target_value)
            grad *= x.dtype.type(1.0 / x.size) * x.dtype.type(out.grad)
            logits._accumulate_owned(grad)
        out._backward = _backward
    return out


def gaussian_kl_loss(mu: Tensor, logvar: Tensor) -> Tensor:
    """KL divergence between N(mu, exp(logvar)) and the standard normal.

    Matches the conditional VAE lower bound of the paper, averaged over the
    batch and summed over latent dimensions.  Fused forward reduction;
    closed-form backward ``dmu = mu / B``, ``dlogvar = -(1 - e^logvar)/2B``.
    """
    term = 1.0 + logvar.data - mu.data * mu.data - np.exp(logvar.data)
    value = -0.5 * float(term.sum(dtype=np.float64)) / mu.shape[0]
    out = _scalar_node(value, (mu, logvar), "gaussian_kl")
    if out.requires_grad:
        batch = mu.shape[0]

        def _backward():
            dtype = mu.data.dtype
            seed = dtype.type(out.grad)
            if mu.requires_grad:
                mu._accumulate(mu.data * (dtype.type(1.0 / batch) * seed))
            if logvar.requires_grad:
                dlogvar = np.exp(logvar.data)
                dlogvar -= dtype.type(1.0)
                dlogvar *= dtype.type(0.5 / batch) * seed
                logvar._accumulate(dlogvar)
        out._backward = _backward
    return out
