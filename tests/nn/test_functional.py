"""Tests for conv2d / conv_transpose2d and their column lowering."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import signal

from repro.nn import Tensor, build_backend, get_backend
from repro.nn import functional as F

from tests.nn.conftest import numerical_gradient


def _reference_conv2d(x, w, b, stride, padding):
    """Direct (slow) cross-correlation used as an oracle."""
    batch, in_channels, height, width = x.shape
    out_channels = w.shape[0]
    kernel = w.shape[2]
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - kernel) // stride + 1
    out_w = (x.shape[3] - kernel) // stride + 1
    out = np.zeros((batch, out_channels, out_h, out_w))
    for n in range(batch):
        for o in range(out_channels):
            acc = np.zeros((x.shape[2] - kernel + 1, x.shape[3] - kernel + 1))
            for c in range(in_channels):
                acc += signal.correlate2d(x[n, c], w[o, c], mode="valid")
            out[n, o] = acc[::stride, ::stride]
            if b is not None:
                out[n, o] += b[o]
    return out


class TestOutputSizes:
    @pytest.mark.parametrize("size,kernel,stride,padding,expected", [
        (64, 4, 2, 1, 32),
        (32, 4, 2, 1, 16),
        (8, 3, 1, 1, 8),
        (16, 4, 2, 0, 7),
    ])
    def test_conv_output_size(self, size, kernel, stride, padding, expected):
        assert F.conv_output_size(size, kernel, stride, padding) == expected

    @pytest.mark.parametrize("size,kernel,stride,padding,expected", [
        (32, 4, 2, 1, 64),
        (1, 4, 2, 1, 2),
        (8, 3, 1, 1, 8),
    ])
    def test_conv_transpose_output_size(self, size, kernel, stride, padding,
                                        expected):
        assert F.conv_transpose_output_size(size, kernel, stride,
                                            padding) == expected

    def test_transpose_inverts_conv_spatial_size(self):
        for size in (8, 16, 32, 64):
            down = F.conv_output_size(size, 4, 2, 1)
            up = F.conv_transpose_output_size(down, 4, 2, 1)
            assert up == size


class TestIm2Col:
    """The backend's column lowering, on the default backend and numpy."""

    #: (kernel, stride, padding): the U-Net / PatchGAN down-sampling conv,
    #: the PatchGAN head, the ResNet 3x3 conv, and the 1x1 case whose
    #: columns are the input itself.
    GEOMETRIES = [(4, 2, 1), (4, 1, 1), (3, 1, 1), (1, 1, 0)]

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("backend", ["default", "numpy"])
    def test_im2col_col2im_adjoint(self, rng, backend, geometry):
        """<im2col(x), y> == <x, col2im(y)> (the two maps are adjoint)."""
        kernel, stride, padding = geometry
        kernels = get_backend() if backend == "default" \
            else build_backend(backend)
        x = rng.standard_normal((2, 3, 6, 7))
        cols = kernels.im2col(x, kernel=kernel, stride=stride,
                              padding=padding)
        y = rng.standard_normal(cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * kernels.col2im(y, x.shape, kernel=kernel,
                                        stride=stride,
                                        padding=padding)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_im2col_shape(self, rng, geometry):
        """``(N, C*K*K, H_out*W_out)``, with the conv's output size."""
        kernel, stride, padding = geometry
        x = rng.standard_normal((2, 3, 8, 10))
        cols = get_backend().im2col(x, kernel=kernel, stride=stride,
                                    padding=padding)
        height = F.conv_output_size(8, kernel, stride, padding)
        width = F.conv_output_size(10, kernel, stride, padding)
        assert cols.shape == (2, 3 * kernel * kernel, height * width)

    def test_im2col_identity_kernel_one(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        cols = get_backend().im2col(x, kernel=1, stride=1, padding=0)
        np.testing.assert_allclose(cols.reshape(1, 2, 4, 4), x)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_forward_matches_reference(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 4, 4))
        b = rng.standard_normal(4)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                       padding=padding)
        reference = _reference_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(out.data, reference, atol=1e-10)

    def test_forward_without_bias(self, rng):
        x = rng.standard_normal((1, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), None, stride=1, padding=1)
        reference = _reference_conv2d(x, w, None, 1, 1)
        np.testing.assert_allclose(out.data, reference, atol=1e-10)

    def test_rejects_channel_mismatch(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 8, 8)))
        w = Tensor(rng.standard_normal((4, 2, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_rejects_rectangular_kernel(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 8, 8)))
        w = Tensor(rng.standard_normal((4, 3, 3, 5)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_gradients_match_numerical(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 4, 4)) * 0.2, requires_grad=True)
        b = Tensor(rng.standard_normal(3) * 0.2, requires_grad=True)
        out = F.conv2d(x, w, b, stride=2, padding=1)
        (out * out).sum().backward()

        def forward():
            result = F.conv2d(Tensor(x.data), Tensor(w.data), Tensor(b.data),
                              stride=2, padding=1)
            return float((result.data ** 2).sum())

        np.testing.assert_allclose(x.grad, numerical_gradient(forward, x.data),
                                   atol=1e-5)
        np.testing.assert_allclose(w.grad, numerical_gradient(forward, w.data),
                                   atol=1e-5)
        np.testing.assert_allclose(b.grad, numerical_gradient(forward, b.data),
                                   atol=1e-5)


class TestConvTranspose2d:
    def test_output_shape(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)))
        w = Tensor(rng.standard_normal((3, 5, 4, 4)))
        out = F.conv_transpose2d(x, w, stride=2, padding=1)
        assert out.shape == (2, 5, 16, 16)

    def test_adjoint_of_conv2d(self, rng):
        """conv_transpose2d with weight W is the adjoint of conv2d with W."""
        x = rng.standard_normal((1, 4, 8, 8))      # conv input
        y = rng.standard_normal((1, 6, 4, 4))      # conv output
        w = rng.standard_normal((6, 4, 4, 4))
        conv_out = F.conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data
        # Transposed conv uses the (C_in, C_out, K, K) layout.
        w_t = np.transpose(w, (0, 1, 2, 3))
        transpose_out = F.conv_transpose2d(
            Tensor(y), Tensor(w_t), stride=2, padding=1).data
        lhs = float((conv_out * y).sum())
        rhs = float((x * transpose_out).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_rejects_channel_mismatch(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 8, 8)))
        w = Tensor(rng.standard_normal((2, 4, 3, 3)))
        with pytest.raises(ValueError):
            F.conv_transpose2d(x, w)

    def test_gradients_match_numerical(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4, 4, 4)) * 0.2, requires_grad=True)
        b = Tensor(rng.standard_normal(4) * 0.2, requires_grad=True)
        out = F.conv_transpose2d(x, w, b, stride=2, padding=1)
        (out * out).sum().backward()

        def forward():
            result = F.conv_transpose2d(Tensor(x.data), Tensor(w.data),
                                        Tensor(b.data), stride=2, padding=1)
            return float((result.data ** 2).sum())

        np.testing.assert_allclose(x.grad, numerical_gradient(forward, x.data),
                                   atol=1e-5)
        np.testing.assert_allclose(w.grad, numerical_gradient(forward, w.data),
                                   atol=1e-5)
        np.testing.assert_allclose(b.grad, numerical_gradient(forward, b.data),
                                   atol=1e-5)

    def test_stride_one_equals_full_correlation_adjoint(self, rng):
        """With stride 1 and no padding, output = input 'spread' by the kernel."""
        x = np.zeros((1, 1, 3, 3))
        x[0, 0, 1, 1] = 1.0
        w = rng.standard_normal((1, 1, 3, 3))
        out = F.conv_transpose2d(Tensor(x), Tensor(w), stride=1, padding=0).data
        assert out.shape == (1, 1, 5, 5)
        np.testing.assert_allclose(out[0, 0, 1:4, 1:4], w[0, 0], atol=1e-12)
