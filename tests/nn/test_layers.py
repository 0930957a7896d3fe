"""Tests for the Module system and the individual layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    GlobalAvgPool2d,
    Identity,
    LeakyReLU,
    Linear,
    Module,
    ModuleList,
    ReLU,
    Tanh,
    Tensor,
    default_dtype,
    no_grad,
)

from tests.nn.conftest import numerical_gradient


class TinyModel(Module):
    """Two-layer model used to test parameter traversal."""

    def __init__(self, rng=None):
        super().__init__()
        self.first = Linear(4, 8, rng=rng)
        self.second = Linear(8, 2, rng=rng)

    def forward(self, x):
        return self.second(self.first(x).relu())


class TestModule:
    def test_named_parameters_are_prefixed(self, rng):
        model = TinyModel(rng)
        names = {name for name, _ in model.named_parameters()}
        assert names == {"first.weight", "first.bias",
                         "second.weight", "second.bias"}

    def test_num_parameters(self, rng):
        model = TinyModel(rng)
        assert model.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_train_eval_propagates(self, rng):
        """Mode switches reach every depth: attribute children and the
        entries of a ModuleList, nested inside one another."""
        model = ModuleList([TinyModel(rng), BatchNorm2d(2)])
        assert len(list(model.modules())) == 5
        model.eval()
        assert all(not module.training for module in model.modules())
        model.train()
        assert all(module.training for module in model.modules())

    def test_zero_grad_clears_all(self, rng):
        model = TinyModel(rng)
        out = model(Tensor(rng.standard_normal((3, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        for parameter in model.parameters():
            parameter.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_state_dict_roundtrip(self, rng):
        model = TinyModel(rng)
        other = TinyModel(np.random.default_rng(99))
        other.load_state_dict(model.state_dict())
        for (_, a), (_, b) in zip(model.named_parameters(),
                                  other.named_parameters()):
            np.testing.assert_allclose(a.data, b.data)

    def test_load_state_dict_shape_mismatch(self, rng):
        model = TinyModel(rng)
        state = model.state_dict()
        state["first.weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_load_state_dict_missing_key(self, rng):
        model = TinyModel(rng)
        state = model.state_dict()
        del state["second.bias"]
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(Tensor([1.0]))


class TestContainers:
    def test_module_list_registers_parameters(self, rng):
        blocks = ModuleList([Linear(2, 2, rng=rng), Linear(2, 2, rng=rng)])
        assert len(list(blocks.named_parameters())) == 4
        assert len(blocks) == 2

    def test_module_list_cannot_be_called(self):
        with pytest.raises(RuntimeError):
            ModuleList([])(Tensor([1.0]))


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(5, 3, rng=rng)
        assert layer(Tensor(rng.standard_normal((7, 5)))).shape == (7, 3)

    def test_matches_manual_computation(self, rng):
        layer = Linear(4, 2, rng=rng)
        x = rng.standard_normal((3, 4))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_no_bias(self, rng):
        layer = Linear(4, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert len(list(layer.named_parameters())) == 1

    def test_gradient_flow(self, rng):
        layer = Linear(4, 2, rng=rng)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        layer(x).sum().backward()
        assert x.grad is not None
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestConvLayers:
    def test_conv2d_shape_paper_config(self, rng):
        """C64 layer of Remark 1: 4x4 kernel, stride 2, padding 1."""
        layer = Conv2d(1, 64, 4, stride=2, padding=1, rng=rng)
        out = layer(Tensor(rng.standard_normal((1, 1, 64, 64))))
        assert out.shape == (1, 64, 32, 32)

    def test_conv_transpose2d_shape_paper_config(self, rng):
        layer = ConvTranspose2d(64, 1, 4, stride=2, padding=1, rng=rng)
        out = layer(Tensor(rng.standard_normal((1, 64, 32, 32))))
        assert out.shape == (1, 1, 64, 64)

    def test_conv_weight_initialisation_scale(self, rng):
        layer = Conv2d(8, 16, 3, rng=rng)
        assert abs(layer.weight.data.std() - 0.02) < 0.01

    def test_conv_without_bias(self, rng):
        layer = Conv2d(2, 4, 3, bias=False, rng=rng)
        assert layer.bias is None

    def test_down_up_roundtrip_shapes(self, rng):
        """A full U-Net style down/up chain restores the input resolution."""
        x = Tensor(rng.standard_normal((1, 1, 16, 16)))
        down1 = Conv2d(1, 4, 4, 2, 1, rng=rng)
        down2 = Conv2d(4, 8, 4, 2, 1, rng=rng)
        up1 = ConvTranspose2d(8, 4, 4, 2, 1, rng=rng)
        up2 = ConvTranspose2d(4, 1, 4, 2, 1, rng=rng)
        out = up2(up1(down2(down1(x))))
        assert out.shape == x.shape


class TestBatchNorm:
    def test_normalises_in_training_mode(self, rng):
        layer = BatchNorm2d(3)
        x = Tensor(rng.standard_normal((8, 3, 4, 4)) * 5 + 2)
        out = layer(x)
        means = out.data.mean(axis=(0, 2, 3))
        stds = out.data.std(axis=(0, 2, 3))
        np.testing.assert_allclose(means, np.zeros(3), atol=1e-7)
        np.testing.assert_allclose(stds, np.ones(3), atol=1e-3)

    def test_running_stats_updated(self, rng):
        layer = BatchNorm2d(2, momentum=0.5)
        x = Tensor(rng.standard_normal((4, 2, 3, 3)) + 10.0)
        layer(x)
        assert np.all(layer._buffers["running_mean"] > 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 4, 1, 1), (2, 3, 1, 5),
                                       (3, 5, 7, 9), (16, 16, 16, 16),
                                       (4, 32, 2, 2), (8, 1, 64, 64)])
    def test_train_statistics_are_numpys_mean_and_var(self, dtype, shape,
                                                      rng):
        """The batch is summed once for both statistics, and they stay
        bit-identical to ``x.mean`` and ``x.var``."""
        with default_dtype(dtype):
            layer = BatchNorm2d(shape[1], momentum=1.0)
        x = (rng.standard_normal(shape) * 7 + 3).astype(dtype)
        layer(Tensor(x))
        for name, want in (("running_mean", x.mean(axis=(0, 2, 3))),
                           ("running_var", x.var(axis=(0, 2, 3)))):
            got = layer._buffers[name]
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_eval_uses_running_stats(self, rng):
        layer = BatchNorm2d(2, momentum=1.0)
        x = Tensor(rng.standard_normal((16, 2, 4, 4)) * 2 + 3)
        layer(x)
        layer.eval()
        out_eval = layer(x)
        means = out_eval.data.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(means, np.zeros(2), atol=0.2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_output_is_the_same_with_and_without_grad(self, dtype,
                                                           rng):
        """Eval mode is one affine map from the running statistics: a
        forward that builds a graph gives the no-grad output bit for bit,
        and that is the map ``BatchNorm2d.affine`` hands graph-free
        callers."""
        with default_dtype(dtype):
            layer = BatchNorm2d(8)
        layer(Tensor((rng.standard_normal((16, 8, 4, 4)) * 3 + 1)
                     .astype(dtype)))
        layer.weight.data = (rng.random(8) + 0.5).astype(dtype)
        layer.bias.data = rng.standard_normal(8).astype(dtype)
        layer.eval()
        x = (rng.standard_normal((16, 8, 4, 4)) * 3 + 1).astype(dtype)
        with_grad = layer(Tensor(x, requires_grad=True))
        assert with_grad.requires_grad
        with no_grad():
            without_grad = layer(Tensor(x))
        assert with_grad.dtype == without_grad.dtype == dtype
        np.testing.assert_array_equal(with_grad.data, without_grad.data)
        scale, shift = layer.affine(x)
        np.testing.assert_array_equal(
            with_grad.data,
            x * scale.reshape(1, -1, 1, 1) + shift.reshape(1, -1, 1, 1))

    def test_eval_gradients_match_numerical(self, rng):
        layer = BatchNorm2d(3)
        layer(Tensor(rng.standard_normal((5, 3, 3, 3)) * 2 + 1))
        layer.weight.data = rng.standard_normal(3) + 1.0
        layer.bias.data = rng.standard_normal(3)
        layer.eval()
        x = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        weights = rng.standard_normal((4, 3, 3, 3))
        (layer(x) * Tensor(weights)).sum().backward()

        def forward():
            with no_grad():
                return float((layer(Tensor(x.data)).data * weights).sum())

        for tensor in (x, layer.weight, layer.bias):
            np.testing.assert_allclose(
                tensor.grad, numerical_gradient(forward, tensor.data),
                atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_backward_is_closed_form(self, dtype, rng):
        """Eval mode's gradients in the layer's dtype: ``dx = g * scale``
        exactly, ``dweight = Σ g·(x - running_mean)/sqrt(running_var +
        eps)`` and ``dbias = Σ g`` over the batch and the plane."""
        with default_dtype(dtype):
            layer = BatchNorm2d(4)
        layer(Tensor((rng.standard_normal((8, 4, 3, 3)) * 2 + 1)
                     .astype(dtype)))
        layer.weight.data = (rng.random(4) + 0.5).astype(dtype)
        layer.bias.data = rng.standard_normal(4).astype(dtype)
        layer.eval()
        x_data = rng.standard_normal((6, 4, 3, 3)).astype(dtype)
        g = rng.standard_normal((6, 4, 3, 3)).astype(dtype)
        x = Tensor(x_data, requires_grad=True)
        (layer(x) * Tensor(g)).sum().backward()
        channel_shape = (1, -1, 1, 1)
        scale, _ = layer.affine(x_data)
        x_hat = ((x_data - layer._buffers["running_mean"]
                  .reshape(channel_shape))
                 / np.sqrt(layer._buffers["running_var"] + layer.eps)
                 .reshape(channel_shape))
        rtol = 1e-5 if dtype == np.float32 else 1e-12
        for tensor in (x, layer.weight, layer.bias):
            assert tensor.grad.dtype == dtype
        np.testing.assert_array_equal(x.grad,
                                      g * scale.reshape(channel_shape))
        np.testing.assert_allclose(layer.weight.grad,
                                   (g * x_hat).sum(axis=(0, 2, 3)),
                                   rtol=rtol)
        np.testing.assert_allclose(layer.bias.grad, g.sum(axis=(0, 2, 3)),
                                   rtol=rtol)

    def test_rejects_non_nchw_input(self, rng):
        layer = BatchNorm2d(2)
        with pytest.raises(ValueError):
            layer(Tensor(rng.standard_normal((4, 2))))

    def test_gradient_matches_numerical(self, rng):
        layer = BatchNorm2d(2)
        layer.momentum = 0.0
        x = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        out = layer(x)
        (out * out).sum().backward()

        def forward():
            result = layer(Tensor(x.data))
            return float((result.data ** 2).sum())

        np.testing.assert_allclose(x.grad, numerical_gradient(forward, x.data),
                                   atol=1e-4)

    def test_state_dict_includes_running_stats(self, rng):
        layer = BatchNorm2d(2)
        layer(Tensor(rng.standard_normal((4, 2, 3, 3)) + 1))
        state = layer.state_dict()
        fresh = BatchNorm2d(2)
        fresh.load_state_dict(state)
        np.testing.assert_allclose(fresh._buffers["running_mean"],
                                   layer._buffers["running_mean"])


class TestActivationsAndUtility:
    def test_identity_passthrough(self, rng):
        x = Tensor(rng.standard_normal((2, 3)))
        assert Identity()(x) is x

    def test_relu_clips_negative(self):
        out = ReLU()(Tensor([-1.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 2.0])

    def test_leaky_relu_slope(self):
        out = LeakyReLU(0.1)(Tensor([-1.0, 2.0]))
        np.testing.assert_allclose(out.data, [-0.1, 2.0])

    def test_tanh_range(self, rng):
        x = Tensor(rng.standard_normal((10,)) * 10)
        assert np.all(np.abs(Tanh()(x).data) <= 1.0)

    def test_global_avg_pool(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)))
        out = GlobalAvgPool2d()(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, x.data.mean(axis=(2, 3)))
