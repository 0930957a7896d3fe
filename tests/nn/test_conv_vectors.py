"""Spatially constant input channels given as ``vectors`` to the convs.

``conv2d``/``conv_transpose2d`` (and their ``_data`` forms) take ``(N, d)``
vectors standing for ``d`` input channels that are constant over the plane
and follow ``x``'s in the weight.  The reference here builds those channels
literally, replicated over the plane and concatenated after ``x``'s, and
convolves the result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.backend import use_backend
from repro.nn.cjit import cjit_available
from repro.nn.tensor import concatenate

BACKENDS = ["numpy", pytest.param("cjit", marks=pytest.mark.skipif(
    not cjit_available(), reason="no C compiler (cc/clang/gcc) on PATH"))]

#: (transposed, kernel, stride, padding, plane); a 4x4/s2/p1 convolution
#: needs at least a 2x2 plane.
GEOMETRIES = [(transposed, kernel, stride, padding, plane)
              for transposed in (False, True)
              for kernel, stride, padding in ((3, 1, 1), (4, 2, 1))
              for plane in (1, 2, 8)
              if transposed or F.conv_output_size(plane, kernel, stride,
                                                  padding) > 0]


def _backend(name, cjit_backend):
    return use_backend(cjit_backend if name == "cjit" else name)


def _operands(rng, transposed, kernel, plane, d, batch=3, channels=5,
              out_channels=4, dtype=np.float64):
    x = rng.standard_normal((batch, channels, plane, plane))
    weight_shape = ((channels + d, out_channels, kernel, kernel) if transposed
                    else (out_channels, channels + d, kernel, kernel))
    weight = rng.standard_normal(weight_shape)
    bias = rng.standard_normal(out_channels)
    vectors = rng.standard_normal((batch, d))
    return [array.astype(dtype) for array in (x, weight, bias, vectors)]


def _replicated(x: Tensor, vectors: Tensor) -> Tensor:
    """``x``'s channels followed by the vectors replicated over the plane."""
    batch, d = vectors.shape
    ones = Tensor(np.ones((1, 1, *x.shape[2:]), dtype=x.dtype))
    return concatenate([x, vectors.reshape(batch, d, 1, 1) * ones], axis=1)


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("d", [6, 12])
@pytest.mark.parametrize("transposed,kernel,stride,padding,plane", GEOMETRIES)
def test_vectors_equal_replicated_planes_in_float64(
        transposed, kernel, stride, padding, plane, d, backend_name,
        cjit_backend):
    """The output and the x, weight, bias and vector gradients agree with
    the replicated-plane formulation to 1e-12 relative."""
    conv = F.conv_transpose2d if transposed else F.conv2d
    arrays = _operands(np.random.default_rng(plane * 100 + d), transposed,
                       kernel, plane, d)
    with _backend(backend_name, cjit_backend):
        results = []
        for replicate in (False, True):
            x, weight, bias, vectors = (
                Tensor(array.copy(), requires_grad=True) for array in arrays)
            if replicate:
                out = conv(_replicated(x, vectors), weight, bias, stride,
                           padding)
            else:
                out = conv(x, weight, bias, stride, padding, vectors=vectors)
            seed = np.random.default_rng(7).standard_normal(out.shape)
            (out * Tensor(seed)).sum().backward()
            results.append([out.data, x.grad, weight.grad, bias.grad,
                            vectors.grad])
    for got, want in zip(*results):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert _relative_error(got, want) <= 1e-12


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("transposed", [False, True])
def test_a_sample_alone_equals_its_row_in_a_batch(transposed, dtype,
                                                  backend_name, cjit_backend):
    """The vector term is applied per sample, so a batch of 64 changes no
    sample's bits."""
    conv = F.conv_transpose2d_data if transposed else F.conv2d_data
    x, weight, bias, vectors = _operands(np.random.default_rng(3), transposed,
                                         4, 4, 12, batch=64, channels=8,
                                         out_channels=16, dtype=dtype)
    with _backend(backend_name, cjit_backend):
        batch = conv(x, weight, bias, 2, 1, vectors)
        for index in range(len(x)):
            alone = conv(x[index:index + 1], weight, bias, 2, 1,
                         vectors[index:index + 1])
            np.testing.assert_array_equal(alone[0], batch[index])


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("vectors_shape", [(2, 6), (3,), (3, 6, 1), (3, 5)])
def test_wrong_shaped_vectors_raise(transposed, vectors_shape):
    """A wrong batch, a wrong ndim, or a width the weight does not have."""
    conv = F.conv_transpose2d if transposed else F.conv2d
    x, weight, bias, _ = _operands(np.random.default_rng(4), transposed, 4, 4,
                                   6)
    with pytest.raises(ValueError, match="vectors|input channels"):
        conv(Tensor(x), Tensor(weight), Tensor(bias), 2, 1,
             vectors=Tensor(np.zeros(vectors_shape)))
