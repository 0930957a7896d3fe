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

Every form takes optional ``vectors`` of shape ``(N, d)``: ``d`` input
channels that are constant over the plane (the conditioning vectors of
Section III-B, replicated over ``H x W``) and follow ``x``'s channels in
the weight's input dimension.  A constant plane's convolution is a
per-sample bias that varies only where windows cross the zero padding, so
their channels are never materialised, lowered or multiplied as planes.
Their contribution is a per-layer map: the vector channels' weights
``(d * C_out, K*K)`` times a 0/1 tap mask ``(K*K, H_out * W_out)`` —
:meth:`~repro.nn.backend.ArrayBackend.im2col` of a ones plane for a
convolution, the per-tap landing mask for a transposed one — applied with
one GEMV per sample, so a sample's output never depends on its batch.
The result equals the replicated-and-concatenated formulation in exact
arithmetic; in floating point the two round differently.

The array kernels (column lowering, BLAS matmuls) are routed through the
swappable backend of :mod:`repro.nn.backend` and preserve the input dtype —
a float32 forward pass never allocates a float64 intermediate.  On
graph-free paths (``no_grad`` inference) the column matrices — the largest
allocations of the pipeline — come from the backend's pre-allocated buffer
arena instead of fresh ``np.empty`` calls; when a backward closure will
capture the columns they are always freshly allocated.
"""

from __future__ import annotations

import functools

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


def _check_shapes(x: Tensor, weight: Tensor, weight_in: int,
                  vectors: Tensor | None) -> None:
    """Raise :class:`ValueError` unless the weight's input channels are
    ``x``'s followed by one per column of ``vectors`` (``(N, d)``)."""
    if weight.shape[2] != weight.shape[3]:
        raise ValueError("only square kernels are supported")
    width = 0
    if vectors is not None:
        if vectors.ndim != 2 or vectors.shape[0] != x.shape[0]:
            raise ValueError(f"vectors must have shape ({x.shape[0]}, d), "
                             f"got {vectors.shape}")
        width = vectors.shape[1]
    if weight_in != x.shape[1] + width:
        raise ValueError(f"weight expects {weight_in} input channels, got "
                         f"{x.shape[1]} + {width} vector channels")


def _taps(kernel: int, stride: int, padding: int, size: int,
          transposed: bool) -> np.ndarray:
    """``(K, size_out)`` along one axis: whether tap ``k`` of output
    position ``y`` touches the input plane rather than its zero padding."""
    tap = np.arange(kernel)[:, None]
    if not transposed:
        read = (np.arange(conv_output_size(size, kernel, stride, padding))
                * stride + tap - padding)
        return (read >= 0) & (read < size)
    out = conv_transpose_output_size(size, kernel, stride, padding)
    offset = np.arange(out) + padding - tap  # the source index times stride
    return (offset % stride == 0) & (offset >= 0) & (offset < size * stride)


@functools.lru_cache(maxsize=None)
def _tap_mask(kernel: int, stride: int, padding: int, height: int,
              width: int, transposed: bool, dtype: np.dtype) -> np.ndarray:
    """The ``(K*K, H_out * W_out)`` 0/1 mask of a constant plane's taps.

    For a convolution it is ``im2col`` of a ones plane; for a transposed
    convolution, whether tap ``(i, j)`` of some input position lands on
    each output position.  Built once per window, plane and dtype.
    """
    rows = _taps(kernel, stride, padding, height, transposed)
    cols = _taps(kernel, stride, padding, width, transposed)
    mask = (rows[:, None, :, None] & cols[None, :, None, :]).astype(dtype)
    mask = mask.reshape(kernel * kernel, rows.shape[1] * cols.shape[1])
    mask.flags.writeable = False
    return mask


def _add_vectors(out: np.ndarray, vectors: np.ndarray,
                 vector_weight: np.ndarray, mask: np.ndarray) -> tuple:
    """Add the vector channels' contribution to ``out`` in place.

    ``vector_weight`` ``(d * C_out, K*K)`` times ``mask`` ``(K*K, P)`` is
    the map ``(d, C_out * P)``, and ``out[n] += vectors[n] @ map`` takes
    one GEMV per sample.  Returns the vectors in ``out``'s dtype and the
    map, which backward reads.
    """
    backend = get_backend()
    vectors = vectors.astype(out.dtype, copy=False)
    vector_map = backend.matmul(vector_weight, mask).reshape(
        vectors.shape[1], -1)
    out += backend.matmul(vectors[:, None, :], vector_map).reshape(out.shape)
    return vectors, vector_map


def _vectors_backward(grad_out: np.ndarray, vectors: Tensor,
                      vector_data: np.ndarray, vector_map: np.ndarray,
                      mask: np.ndarray, weight_out: np.ndarray | None) -> None:
    """Backward of :func:`_add_vectors`.

    Writes the vector weights' gradient, ``(sum_n g_n v_n^T) @ mask^T``,
    into ``weight_out`` as ``(d, C_out, K*K)`` when given, and gives the
    vectors ``g @ map^T``.
    """
    backend = get_backend()
    grad_out = grad_out.reshape(len(vector_data), -1)
    if weight_out is not None:
        outer = backend.matmul(vector_data.T, grad_out)  # (d, C_out * P)
        backend.matmul(outer.reshape(weight_out.shape[0], -1, mask.shape[1]),
                       mask.T, out=weight_out)
    if vectors.requires_grad:
        vectors._accumulate_owned(backend.matmul(grad_out, vector_map.T))


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0,
           vectors: Tensor | None = None) -> Tensor:
    """2-D convolution (cross-correlation) over an NCHW tensor.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Kernel of shape ``(C_out, C_in + d, K, K)``.
    bias:
        Optional bias of shape ``(C_out,)``.
    vectors:
        Optional ``(N, d)`` values of ``d`` spatially constant input
        channels after ``x``'s (see the module docstring), cast to ``x``'s
        dtype; gradients flow into them.
    """
    batch, in_channels, _, _ = x.shape
    out_channels, weight_in, kernel, _ = weight.shape
    if vectors is not None:
        vectors = Tensor.ensure(vectors)
    _check_shapes(x, weight, weight_in, vectors)

    backend = get_backend()
    needs_graph = _needs_graph(x, weight, bias, vectors)
    # The column matrix is the largest allocation of the forward pass; it
    # must be fresh only when backward will actually read it — the weight
    # gradient is its sole backward consumer, so graph-free paths *and*
    # frozen-weight convs recycle arena scratch.  The trainer freezes the
    # discriminator for the generator step: there its convs take arena
    # columns and their backward computes the input gradient alone.  The
    # freeze decision is snapshot at forward time.
    weight_needs = needs_graph and weight.requires_grad
    out_data, cols, vector_map, vector_data = _conv2d_forward(
        x.data, weight.data, None if bias is None else bias.data, stride,
        padding, None if vectors is None else vectors.data,
        scratch=not weight_needs)
    x_rows = in_channels * kernel * kernel
    weight_x = weight.data.reshape(out_channels, -1)[:, :x_rows]

    parents = [x, weight] + [t for t in (bias, vectors) if t is not None]
    out = x._make_child(out_data, parents, "conv2d")
    if out.requires_grad:
        input_shape = x.shape

        def _backward():
            grad_out = out.grad.reshape(batch, out_channels, -1)
            grad_weight = None
            if weight_needs and weight.requires_grad:
                # Both halves of the weight gradient land in one buffer.
                grad_weight = np.empty(
                    (out_channels, weight_in, kernel * kernel),
                    dtype=grad_out.dtype)
                np.sum(backend.matmul(grad_out, cols.transpose(0, 2, 1)),
                       axis=0,
                       out=grad_weight.reshape(out_channels, -1)[:, :x_rows])
            if vectors is not None:
                _vectors_backward(
                    grad_out, vectors, vector_data, vector_map,
                    _tap_mask(kernel, stride, padding, *input_shape[2:],
                              False, grad_out.dtype),
                    None if grad_weight is None
                    else grad_weight[:, in_channels:].transpose(1, 0, 2))
            if grad_weight is not None:
                weight._accumulate_owned(grad_weight.reshape(weight.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad_out.sum(axis=(0, 2)))
            if x.requires_grad:
                # The column gradient dies with this call: arena scratch.
                scratch = backend.scratch_out(
                    (batch, x_rows, grad_out.shape[2]), grad_out.dtype)
                grad_cols = backend.matmul(weight_x.T, grad_out, out=scratch)
                x._accumulate_owned(
                    backend.col2im(grad_cols, input_shape, kernel, stride,
                                   padding))
        out._backward = _backward
    return out


def conv_transpose2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                     stride: int = 1, padding: int = 0,
                     vectors: Tensor | None = None) -> Tensor:
    """2-D transposed convolution over an NCHW tensor.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Kernel of shape ``(C_in + d, C_out, K, K)`` (PyTorch layout).
    bias:
        Optional bias of shape ``(C_out,)``.
    vectors:
        Optional ``(N, d)`` values of ``d`` spatially constant input
        channels after ``x``'s (see the module docstring), cast to ``x``'s
        dtype; gradients flow into them.
    """
    batch, in_channels, _, _ = x.shape
    weight_in, out_channels, kernel, _ = weight.shape
    if vectors is not None:
        vectors = Tensor.ensure(vectors)
    _check_shapes(x, weight, weight_in, vectors)

    backend = get_backend()
    out_data, vector_map, vector_data = _conv_transpose2d_forward(
        x.data, weight.data, None if bias is None else bias.data, stride,
        padding, None if vectors is None else vectors.data)
    # Backward keeps only ``x_flat`` (a view of the input) alive.
    x_flat = x.data.reshape(batch, in_channels, -1)
    weight_flat = weight.data.reshape(weight_in, -1)  # (C_in+d, C_out*K*K)

    parents = [x, weight] + [t for t in (bias, vectors) if t is not None]
    out = x._make_child(out_data, parents, "conv_transpose2d")
    if out.requires_grad:
        def _backward():
            grad_weight = None
            if weight.requires_grad:
                # Both halves of the weight gradient land in one buffer.
                grad_weight = np.empty(weight_flat.shape, dtype=out.grad.dtype)
            if x.requires_grad or grad_weight is not None:
                # The output-gradient columns die with this call too.
                grad_cols = backend.im2col(out.grad, kernel, stride, padding,
                                           scratch=True)
                if x.requires_grad:
                    grad_x = backend.matmul(weight_flat[:in_channels],
                                            grad_cols)
                    x._accumulate_owned(grad_x.reshape(x.shape))
                if grad_weight is not None:
                    np.sum(backend.matmul(x_flat,
                                          grad_cols.transpose(0, 2, 1)),
                           axis=0, out=grad_weight[:in_channels])
            if vectors is not None:
                _vectors_backward(
                    out.grad, vectors, vector_data, vector_map,
                    _tap_mask(kernel, stride, padding, *x.shape[2:], True,
                              out.grad.dtype),
                    None if grad_weight is None
                    else grad_weight[in_channels:].reshape(
                        -1, out_channels, kernel * kernel))
            if grad_weight is not None:
                weight._accumulate_owned(grad_weight.reshape(weight.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(out.grad.sum(axis=(0, 2, 3)))
        out._backward = _backward
    return out


def conv2d_data(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                stride: int, padding: int,
                vectors: np.ndarray | None = None) -> np.ndarray:
    """The ``(N, C_out, H_out, W_out)`` output of :func:`conv2d`'s forward
    on arrays, with no graph; shapes are not checked here."""
    return _conv2d_forward(x, weight, bias, stride, padding, vectors,
                           scratch=True)[0]


def conv_transpose2d_data(x: np.ndarray, weight: np.ndarray,
                          bias: np.ndarray | None, stride: int, padding: int,
                          vectors: np.ndarray | None = None) -> np.ndarray:
    """The ``(N, C_out, H_out, W_out)`` output of :func:`conv_transpose2d`'s
    forward on arrays, with no graph; shapes are not checked here."""
    return _conv_transpose2d_forward(x, weight, bias, stride, padding,
                                     vectors)[0]


def _conv2d_forward(x: np.ndarray, weight: np.ndarray,
                    bias: np.ndarray | None, stride: int, padding: int,
                    vectors: np.ndarray | None, scratch: bool) -> tuple:
    """:func:`conv2d`'s forward arrays: the output, the column matrix it
    multiplied (from the arena when ``scratch``, valid only until the next
    same-shaped request on this thread), and the vector map and vectors
    in ``x``'s dtype (``None`` without vectors) backward reads."""
    batch, channels, height, width = x.shape
    out_channels, _, kernel, _ = weight.shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    backend = get_backend()
    cols = backend.im2col(x, kernel, stride, padding, scratch=scratch)
    weight_flat = weight.reshape(out_channels, -1)
    # (N, C_out, H_out * W_out) via a BLAS-batched matmul (markedly faster
    # than the equivalent einsum for these shapes).
    out = backend.matmul(weight_flat[:, :cols.shape[1]], cols)
    vector_map = None
    if vectors is not None:
        vector_weight = weight[:, channels:].transpose(1, 0, 2, 3)
        vectors, vector_map = _add_vectors(
            out, vectors, vector_weight.reshape(-1, kernel * kernel),
            _tap_mask(kernel, stride, padding, height, width, False,
                      x.dtype))
    if bias is not None:
        out += bias.reshape(1, -1, 1)
    return (out.reshape(batch, out_channels, out_h, out_w), cols, vector_map,
            vectors)


def _conv_transpose2d_forward(x: np.ndarray, weight: np.ndarray,
                              bias: np.ndarray | None, stride: int,
                              padding: int, vectors: np.ndarray | None
                              ) -> tuple:
    """:func:`conv_transpose2d`'s forward arrays: the output, and the
    vector map and vectors in ``x``'s dtype (``None`` without vectors).

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
    # (C_in, C_out*K*K): the vector channels' rows follow x's.
    weight_x = weight[:in_channels].reshape(in_channels, -1)
    scratch = backend.scratch_out(
        (batch, weight_x.shape[1], x_flat.shape[2]), x.dtype)
    cols = backend.matmul(weight_x.T, x_flat, out=scratch)
    out = backend.col2im(cols, (batch, out_channels, out_h, out_w), kernel,
                         stride, padding)
    vector_map = None
    if vectors is not None:
        vectors, vector_map = _add_vectors(
            out, vectors, weight[in_channels:].reshape(-1, kernel * kernel),
            _tap_mask(kernel, stride, padding, height, width, True, x.dtype))
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out, vector_map, vectors
