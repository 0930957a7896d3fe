"""Tests for the autograd Tensor: forward values and gradients."""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor, bce_with_logits_loss, no_grad
from repro.nn.tensor import concatenate, is_grad_enabled

from tests.nn.conftest import numerical_gradient


def _tensor(rng, shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


class TestTensorBasics:
    def test_integer_data_promoted_to_float(self):
        tensor = Tensor([1, 2, 3])
        assert tensor.dtype.kind == "f"

    def test_shape_ndim_size(self):
        tensor = Tensor(np.zeros((2, 3, 4)))
        assert tensor.shape == (2, 3, 4)
        assert tensor.ndim == 3
        assert tensor.size == 24

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_ensure_wraps_raw_values(self):
        assert isinstance(Tensor.ensure(2.0), Tensor)
        tensor = Tensor([1.0])
        assert Tensor.ensure(tensor) is tensor

    def test_zeros_ones_factories(self):
        assert np.all(Tensor.zeros((2, 2)).data == 0)
        assert np.all(Tensor.ones((2, 2)).data == 1)

    def test_backward_requires_grad(self):
        tensor = Tensor([1.0])
        with pytest.raises(RuntimeError):
            tensor.backward()

    def test_backward_requires_scalar_or_grad(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (tensor * 2).backward()

    def test_no_grad_disables_graph(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = tensor * 3.0
        assert not out.requires_grad
        assert is_grad_enabled()

    def test_no_grad_is_per_thread(self):
        """A worker inside no_grad leaves graph building on elsewhere."""
        inside, release = threading.Event(), threading.Event()
        seen = {}

        def worker():
            with no_grad():
                seen["worker"] = is_grad_enabled()
                inside.set()
                release.wait(timeout=30)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert inside.wait(timeout=30)
            assert is_grad_enabled()
            assert Tensor([1.0], requires_grad=True).requires_grad
            assert (Tensor([1.0], requires_grad=True) * 2.0).requires_grad
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert seen["worker"] is False

    def test_gradient_accumulates_across_backward_calls(self):
        tensor = Tensor([2.0], requires_grad=True)
        (tensor * 3.0).sum().backward()
        (tensor * 3.0).sum().backward()
        assert tensor.grad == pytest.approx(np.array([6.0]))

    def test_zero_grad(self):
        tensor = Tensor([2.0], requires_grad=True)
        (tensor * 3.0).sum().backward()
        tensor.zero_grad()
        assert tensor.grad is None


class TestGraphRelease:
    """``backward()`` releases the graph it walked."""

    def test_dropped_loss_frees_activations_without_gc(self, rng):
        # An intact graph is a reference cycle (every closure refers to its
        # own output), so with the cyclic collector off it would outlive
        # the loss; the released graph dies by reference counting alone.
        gc.disable()
        try:
            x = _tensor(rng, (4, 8))
            w = _tensor(rng, (8, 3))
            hidden = x.matmul(w).tanh()
            activation = weakref.ref(hidden.data)
            loss = (hidden * hidden).mean()
            loss.backward()
            del hidden, loss
            assert activation() is None
        finally:
            gc.enable()
        assert x.grad is not None and w.grad is not None

    def test_backward_through_released_graph_raises(self, rng):
        x = _tensor(rng, (3,))
        hidden = x * 2.0
        loss = hidden.sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        # A new graph built on a released intermediate cannot reach ``x``.
        with pytest.raises(RuntimeError, match="released"):
            (hidden * 3.0).sum().backward()


class TestArithmeticForward:
    def test_add_mul_values(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4)) + 2.0
        ta, tb = Tensor(a), Tensor(b)
        np.testing.assert_allclose((ta + tb).data, a + b)
        np.testing.assert_allclose((ta * tb).data, a * b)

    def test_scalar_operand_promotion(self):
        tensor = Tensor([1.0, 2.0])
        np.testing.assert_allclose((tensor + 2.0).data, [3.0, 4.0])
        np.testing.assert_allclose((2.0 * tensor).data, [2.0, 4.0])

    def test_matmul_value(self, rng):
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal((5, 2))
        np.testing.assert_allclose(Tensor(a).matmul(Tensor(b)).data, a @ b)


class TestGradients:
    @pytest.mark.parametrize("op", ["add", "mul"])
    def test_binary_op_gradients(self, rng, op):
        a = _tensor(rng, (3, 4))
        b = Tensor(rng.standard_normal((3, 4)) + 3.0, requires_grad=True)
        ops = {
            "add": lambda x, y: x + y,
            "mul": lambda x, y: x * y,
        }
        out = ops[op](a, b)
        (out * out).sum().backward()

        def forward():
            result = ops[op](Tensor(a.data), Tensor(b.data))
            return float((result.data ** 2).sum())

        np.testing.assert_allclose(a.grad, numerical_gradient(forward, a.data),
                                   atol=1e-5)
        np.testing.assert_allclose(b.grad, numerical_gradient(forward, b.data),
                                   atol=1e-5)

    def test_broadcast_add_gradient(self, rng):
        a = _tensor(rng, (4, 3))
        b = _tensor(rng, (3,))
        out = a + b
        (out * out).sum().backward()

        def forward():
            return float(((a.data + b.data) ** 2).sum())

        np.testing.assert_allclose(b.grad, numerical_gradient(forward, b.data),
                                   atol=1e-5)

    def test_broadcast_mul_gradient_keepdims(self, rng):
        a = _tensor(rng, (2, 3, 4))
        b = _tensor(rng, (1, 3, 1))
        out = a * b
        (out * out).sum().backward()

        def forward():
            return float(((a.data * b.data) ** 2).sum())

        np.testing.assert_allclose(b.grad, numerical_gradient(forward, b.data),
                                   atol=1e-5)

    @pytest.mark.parametrize("method,kwargs", [
        ("exp", {}),
        ("tanh", {}),
        ("relu", {}),
        ("leaky_relu", {"negative_slope": 0.2}),
    ])
    def test_unary_gradients(self, rng, method, kwargs):
        tensor = _tensor(rng, (3, 5))
        # Shift away from the non-differentiable point of relu.
        tensor.data += np.sign(tensor.data) * 0.05
        out = getattr(tensor, method)(**kwargs)
        (out * out).sum().backward()

        def forward():
            result = getattr(Tensor(tensor.data), method)(**kwargs)
            return float((result.data ** 2).sum())

        np.testing.assert_allclose(tensor.grad,
                                   numerical_gradient(forward, tensor.data),
                                   atol=1e-4)

    @pytest.mark.parametrize("axis,keepdims", [
        (None, False), (0, False), (1, True), ((0, 2), False),
    ])
    def test_sum_gradient(self, rng, axis, keepdims):
        tensor = _tensor(rng, (2, 3, 4))
        out = tensor.sum(axis=axis, keepdims=keepdims)
        out.backward(np.ones_like(out.data))
        np.testing.assert_allclose(tensor.grad, np.ones_like(tensor.data))

    def test_mean_gradient(self, rng):
        tensor = _tensor(rng, (2, 5))
        tensor.mean().backward()
        np.testing.assert_allclose(tensor.grad,
                                   np.full(tensor.shape, 1.0 / tensor.size))

    def test_matmul_gradient(self, rng):
        a = _tensor(rng, (3, 5))
        b = _tensor(rng, (5, 2))
        out = a.matmul(b)
        (out * out).sum().backward()

        def forward():
            return float(((a.data @ b.data) ** 2).sum())

        np.testing.assert_allclose(a.grad, numerical_gradient(forward, a.data),
                                   atol=1e-5)
        np.testing.assert_allclose(b.grad, numerical_gradient(forward, b.data),
                                   atol=1e-5)

    def test_reused_tensor_accumulates_gradient(self, rng):
        tensor = _tensor(rng, (3,))
        out = tensor * 2.0 + tensor * 3.0
        out.sum().backward()
        np.testing.assert_allclose(tensor.grad, np.full(3, 5.0))


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self, rng):
        tensor = _tensor(rng, (2, 6))
        tensor.reshape(3, 4).sum().backward()
        np.testing.assert_allclose(tensor.grad, np.ones((2, 6)))

    def test_reshape_accepts_tuple(self, rng):
        tensor = Tensor(rng.standard_normal((2, 6)))
        assert tensor.reshape((4, 3)).shape == (4, 3)

    def test_transpose_gradient(self, rng):
        tensor = _tensor(rng, (2, 3, 4))
        tensor.transpose(2, 0, 1).sum().backward()
        np.testing.assert_allclose(tensor.grad, np.ones((2, 3, 4)))

    def test_default_transpose_reverses_axes(self, rng):
        tensor = Tensor(rng.standard_normal((2, 3, 4)))
        assert tensor.transpose().shape == (4, 3, 2)

    def test_concatenate_forward_and_gradient(self, rng):
        a = _tensor(rng, (2, 3))
        b = _tensor(rng, (2, 5))
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 8)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 5), 2.0))


class TestPropertyBased:
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3,
                                                   min_side=1, max_side=5),
                      elements=st.floats(-10, 10)))
    @settings(max_examples=50, deadline=None)
    def test_add_commutative(self, array):
        a = Tensor(array)
        b = Tensor(array[::-1].copy().reshape(array.shape))
        np.testing.assert_allclose((a + b).data, (b + a).data)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)),
                      elements=st.floats(-5, 5)))
    @settings(max_examples=50, deadline=None)
    def test_sum_matches_numpy(self, array):
        np.testing.assert_allclose(Tensor(array).sum().data, array.sum(),
                                   atol=1e-9)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)),
                      elements=st.floats(-3, 3)))
    @settings(max_examples=50, deadline=None)
    def test_tanh_bounded(self, array):
        out = Tensor(array).tanh().data
        assert np.all(out <= 1.0) and np.all(out >= -1.0)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 5),),
                      elements=st.floats(-50, 50)))
    @settings(max_examples=50, deadline=None)
    def test_bce_logits_gradient_in_unit_interval(self, array):
        """Against target 0 the bce-with-logits gradient is sigmoid / N."""
        logits = Tensor(array, requires_grad=True)
        bce_with_logits_loss(logits, 0.0).backward()
        assert np.all(logits.grad >= 0.0)
        assert np.all(logits.grad <= 1.0 / array.size)

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_relu_idempotent(self, rows, cols):
        generator = np.random.default_rng(rows * 7 + cols)
        tensor = Tensor(generator.standard_normal((rows, cols)))
        once = tensor.relu().data
        twice = Tensor(once).relu().data
        np.testing.assert_allclose(once, twice)
