"""Convolutional primitives for the NumPy autograd engine.

Convolutions are implemented with the classic im2col / col2im lowering
(the backend kernels :meth:`repro.nn.backend.ArrayBackend.im2col` and
:meth:`~repro.nn.backend.ArrayBackend.col2im`), which turns the spatial
convolution into a single matrix multiplication per batch.
Both :func:`conv2d` and :func:`conv_transpose2d` follow the PyTorch weight
layout conventions so the model code in :mod:`repro.core` can be read against
the reference pix2pix / BicycleGAN implementations.  Their forwards on plain
arrays, :func:`conv2d_data` and :func:`conv_transpose2d_data`, are shared
with graph-free callers (the U-Net generator's sampling route).

The array kernels (column lowering, BLAS matmuls) are routed through the
swappable backend of :mod:`repro.nn.backend` and preserve the input dtype —
a float32 forward pass never allocates a float64 intermediate.  On
graph-free paths (``no_grad`` inference) the column matrices — the largest
allocations of the pipeline — come from the backend's pre-allocated buffer
arena instead of fresh ``np.empty`` calls; when a backward closure will
capture the columns they are always freshly allocated.
"""

from __future__ import annotations

import numpy as np

from repro.nn.backend import get_backend
from repro.nn.tensor import Tensor, is_grad_enabled

__all__ = [
    "conv2d",
    "conv2d_data",
    "conv_transpose2d",
    "conv_transpose2d_data",
    "conv_output_size",
    "conv_transpose_output_size",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


def conv_transpose_output_size(size: int, kernel: int, stride: int,
                               padding: int) -> int:
    """Spatial output size of a transposed convolution along one dimension."""
    return (size - 1) * stride - 2 * padding + kernel


def _needs_graph(*tensors: Tensor | None) -> bool:
    return is_grad_enabled() and any(t is not None and t.requires_grad
                                     for t in tensors)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) over an NCHW tensor.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Kernel of shape ``(C_out, C_in, K, K)``.
    bias:
        Optional bias of shape ``(C_out,)``.
    """
    batch, in_channels, _, _ = x.shape
    out_channels, weight_in, kernel, kernel_w = weight.shape
    if kernel != kernel_w:
        raise ValueError("only square kernels are supported")
    if weight_in != in_channels:
        raise ValueError(f"weight expects {weight_in} input channels, "
                         f"got {in_channels}")

    backend = get_backend()
    needs_graph = _needs_graph(x, weight, bias)
    # The column matrix is the largest allocation of the forward pass; it
    # must be fresh only when backward will actually read it — the weight
    # gradient is its sole backward consumer, so graph-free paths *and*
    # frozen-weight convs recycle arena scratch.  The trainer freezes the
    # discriminator for the generator step: there its convs take arena
    # columns and their backward computes the input gradient alone.  The
    # freeze decision is snapshot at forward time.
    weight_needs = needs_graph and weight.requires_grad
    out_data, cols = conv2d_data(x.data, weight.data,
                                 None if bias is None else bias.data,
                                 stride, padding, scratch=not weight_needs)
    weight_flat = weight.data.reshape(out_channels, -1)

    parents = [x, weight] if bias is None else [x, weight, bias]
    out = x._make_child(out_data, parents, "conv2d")
    if out.requires_grad:
        input_shape = x.shape

        def _backward():
            grad_out = out.grad.reshape(batch, out_channels, -1)
            if weight_needs and weight.requires_grad:
                grad_weight = backend.matmul(
                    grad_out, cols.transpose(0, 2, 1)).sum(axis=0)
                weight._accumulate(grad_weight.reshape(weight.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad_out.sum(axis=(0, 2)))
            if x.requires_grad:
                # The column gradient dies with this call: arena scratch.
                scratch = backend.scratch_out(
                    (batch, weight_flat.shape[1], grad_out.shape[2]),
                    grad_out.dtype)
                grad_cols = backend.matmul(weight_flat.T, grad_out,
                                           out=scratch)
                x._accumulate_owned(
                    backend.col2im(grad_cols, input_shape, kernel, stride,
                                   padding))
        out._backward = _backward
    return out


def conv_transpose2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                     stride: int = 1, padding: int = 0) -> Tensor:
    """2-D transposed convolution over an NCHW tensor.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Kernel of shape ``(C_in, C_out, K, K)`` (PyTorch layout).
    bias:
        Optional bias of shape ``(C_out,)``.
    """
    batch, in_channels, _, _ = x.shape
    weight_in, _, kernel, kernel_w = weight.shape
    if kernel != kernel_w:
        raise ValueError("only square kernels are supported")
    if weight_in != in_channels:
        raise ValueError(f"weight expects {weight_in} input channels, "
                         f"got {in_channels}")

    backend = get_backend()
    out_data = conv_transpose2d_data(x.data, weight.data,
                                     None if bias is None else bias.data,
                                     stride, padding)
    # Backward keeps only ``x_flat`` (a view of the input) alive.
    x_flat = x.data.reshape(batch, in_channels, -1)
    weight_flat = weight.data.reshape(in_channels, -1)  # (C_in, C_out*K*K)

    parents = [x, weight] if bias is None else [x, weight, bias]
    out = x._make_child(out_data, parents, "conv_transpose2d")
    if out.requires_grad:
        def _backward():
            # The output-gradient columns die with this call too.
            grad_cols = backend.im2col(out.grad, kernel, stride, padding,
                                       scratch=True)
            if x.requires_grad:
                grad_x = backend.matmul(weight_flat, grad_cols)
                x._accumulate_owned(grad_x.reshape(x.shape))
            if weight.requires_grad:
                grad_weight = backend.matmul(
                    x_flat, grad_cols.transpose(0, 2, 1)).sum(axis=0)
                weight._accumulate(grad_weight.reshape(weight.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(out.grad.sum(axis=(0, 2, 3)))
        out._backward = _backward
    return out


def conv2d_data(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                stride: int, padding: int, scratch: bool = True
                ) -> tuple[np.ndarray, np.ndarray]:
    """The arrays of :func:`conv2d`'s forward, with no graph.

    Returns the ``(N, C_out, H_out, W_out)`` output and the column matrix
    it multiplied, which comes from the arena when ``scratch`` (valid only
    until the next same-shaped request on this thread).  Shapes are not
    checked here; :func:`conv2d` checks them.
    """
    batch, _, height, width = x.shape
    out_channels, _, kernel, _ = weight.shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    backend = get_backend()
    cols = backend.im2col(x, kernel, stride, padding, scratch=scratch)
    # (N, C_out, H_out * W_out) via a BLAS-batched matmul (markedly faster
    # than the equivalent einsum for these shapes).
    out = backend.matmul(weight.reshape(out_channels, -1), cols)
    if bias is not None:
        out += bias.reshape(1, -1, 1)
    return out.reshape(batch, out_channels, out_h, out_w), cols


def conv_transpose2d_data(x: np.ndarray, weight: np.ndarray,
                          bias: np.ndarray | None, stride: int,
                          padding: int) -> np.ndarray:
    """The ``(N, C_out, H_out, W_out)`` output of :func:`conv_transpose2d`'s
    forward on arrays, with no graph; shapes are not checked here.

    The transposed convolution is the adjoint of a convolution that maps
    the output grid back to the input grid, so the forward pass uses col2im
    (and the backward pass im2col).  Backward never reads the column
    matrix, so it always comes from the arena.
    """
    batch, in_channels, height, width = x.shape
    _, out_channels, kernel, _ = weight.shape
    out_h = conv_transpose_output_size(height, kernel, stride, padding)
    out_w = conv_transpose_output_size(width, kernel, stride, padding)
    backend = get_backend()
    x_flat = x.reshape(batch, in_channels, -1)
    weight_flat = weight.reshape(in_channels, -1)  # (C_in, C_out*K*K)
    scratch = backend.scratch_out(
        (batch, weight_flat.shape[1], x_flat.shape[2]), x.dtype)
    cols = backend.matmul(weight_flat.T, x_flat, out=scratch)
    out = backend.col2im(cols, (batch, out_channels, out_h, out_w), kernel,
                         stride, padding)
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out
