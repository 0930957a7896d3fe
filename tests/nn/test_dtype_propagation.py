"""Dtype-propagation suite: float32 stays float32 through the whole stack.

Policy under test (see the README "Precision & backends" section):

* every layer's forward and backward pass keeps the input dtype;
* optimizer steps keep parameters and moment buffers in the parameter dtype;
* scalar loss values accumulate in float64, but the gradients they seed
  arrive in the network's dtype;
* serialization round-trips dtypes exactly;
* a float32 trainer smoke run is finite and within documented tolerance of
  the float64 run from identical seeds.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import ModelConfig, Trainer, build_model
from repro.nn import (
    Adam,
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    GlobalAvgPool2d,
    LeakyReLU,
    Linear,
    ReLU,
    Tanh,
    Tensor,
    bce_with_logits_loss,
    default_dtype,
    gaussian_kl_loss,
    l1_loss,
    load_state_dict,
    mse_loss,
    no_grad,
    save_state_dict,
)
from repro.nn.tensor import concatenate

DTYPES = (np.float32, np.float64)


def _nchw(dtype, rng, shape=(2, 3, 8, 8)):
    return Tensor(rng.standard_normal(shape).astype(dtype),
                  requires_grad=True)


class TestTensorOps:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_arithmetic_with_python_scalars_keeps_dtype(self, dtype, rng):
        x = Tensor(rng.standard_normal(5).astype(dtype), requires_grad=True)
        out = ((x * 2.0 + 1.0) / 3.0 - 0.5) ** 2.0
        assert out.dtype == dtype
        out.sum().backward()
        assert x.grad.dtype == dtype

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("method", ["exp", "tanh", "relu", "leaky_relu"])
    def test_unary_ops_keep_dtype(self, dtype, method, rng):
        x = Tensor(rng.random(6).astype(dtype) + 0.5, requires_grad=True)
        out = getattr(x, method)()
        assert out.dtype == dtype
        out.sum().backward()
        assert x.grad.dtype == dtype

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_reductions_keep_dtype(self, dtype, rng):
        x = Tensor(rng.standard_normal((3, 4)).astype(dtype),
                   requires_grad=True)
        for out in (x.sum(), x.mean(axis=1)):
            assert out.dtype == dtype
        x.mean().backward()
        assert x.grad.dtype == dtype

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_shape_ops_keep_dtype(self, dtype, rng):
        x = _nchw(dtype, rng)
        assert x.reshape(2, -1).dtype == dtype
        assert x.transpose(0, 2, 3, 1).dtype == dtype
        assert x[0:1].dtype == dtype
        assert concatenate([x, x], axis=1).dtype == dtype

    def test_accumulation_from_float64_seed_keeps_float32(self, rng):
        """A float64 loss scalar seeds float32 gradients downstream."""
        x = Tensor(rng.standard_normal(4).astype(np.float32),
                   requires_grad=True)
        loss = mse_loss(x, Tensor(np.zeros(4, dtype=np.float32)))
        assert loss.data.dtype == np.float64
        loss.backward()
        assert x.grad.dtype == np.float32

    def test_repeated_accumulation_keeps_dtype(self, rng):
        x = Tensor(rng.standard_normal(3).astype(np.float32),
                   requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        assert x.grad.dtype == np.float32
        np.testing.assert_allclose(x.grad, np.full(3, 5.0))


class TestBackwardSeedValidation:
    def test_dtype_mismatched_seed_raises(self, rng):
        x = Tensor(rng.standard_normal(3).astype(np.float32),
                   requires_grad=True)
        out = x * 2.0
        with pytest.raises(TypeError, match="dtype"):
            out.backward(np.ones(3, dtype=np.float64))

    def test_matching_seed_accepted(self, rng):
        x = Tensor(rng.standard_normal(3).astype(np.float32),
                   requires_grad=True)
        (x * 2.0).backward(np.ones(3, dtype=np.float32))
        np.testing.assert_allclose(x.grad, np.full(3, 2.0))

    def test_non_broadcastable_seed_raises_clear_error(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        out = x * 2.0
        with pytest.raises(ValueError, match="not broadcastable"):
            out.backward(np.ones((2, 4)))

    def test_seed_larger_than_tensor_raises(self, rng):
        """A seed that would broadcast the *tensor* up is rejected too."""
        x = Tensor(rng.standard_normal((1, 4)), requires_grad=True)
        out = x * 2.0
        with pytest.raises(ValueError, match="not broadcastable"):
            out.backward(np.ones((3, 4)))

    def test_broadcastable_seed_still_works(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        (x * 2.0).backward(np.ones((1, 4)))
        np.testing.assert_allclose(x.grad, np.full((3, 4), 2.0))


class TestLayerPropagation:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_linear(self, dtype, rng):
        with default_dtype(dtype):
            layer = Linear(4, 3, rng=rng)
        assert layer.weight.dtype == dtype
        x = Tensor(rng.standard_normal((5, 4)).astype(dtype),
                   requires_grad=True)
        out = layer(x)
        assert out.dtype == dtype
        out.sum().backward()
        assert x.grad.dtype == dtype
        assert layer.weight.grad.dtype == dtype
        assert layer.bias.grad.dtype == dtype

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("layer_cls", [Conv2d, ConvTranspose2d])
    def test_conv_layers(self, dtype, layer_cls, rng):
        with default_dtype(dtype):
            layer = layer_cls(3, 5, 4, stride=2, padding=1, rng=rng)
        x = _nchw(dtype, rng)
        out = layer(x)
        assert out.dtype == dtype
        (out * out).sum().backward()
        assert x.grad.dtype == dtype
        assert layer.weight.grad.dtype == dtype
        assert layer.bias.grad.dtype == dtype

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_batchnorm_train_and_eval(self, dtype, rng):
        with default_dtype(dtype):
            layer = BatchNorm2d(3)
        assert layer._buffers["running_mean"].dtype == dtype
        x = _nchw(dtype, rng)
        out = layer(x)
        assert out.dtype == dtype
        assert layer._buffers["running_mean"].dtype == dtype
        out.sum().backward()
        assert x.grad.dtype == dtype
        layer.eval()
        assert layer(Tensor(x.data)).dtype == dtype        # graph eval path
        with no_grad():
            assert layer(Tensor(x.data)).dtype == dtype    # fused eval path

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_activations_and_pool(self, dtype, rng):
        x = _nchw(dtype, rng)
        for module in (ReLU(), LeakyReLU(0.2), Tanh(), GlobalAvgPool2d()):
            assert module(x).dtype == dtype

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_losses_feed_gradients_in_dtype(self, dtype, rng):
        pred = Tensor(rng.standard_normal((4, 6)).astype(dtype),
                      requires_grad=True)
        target = Tensor(rng.standard_normal((4, 6)).astype(dtype))
        for loss in (mse_loss(pred, target), l1_loss(pred, target),
                     bce_with_logits_loss(pred, 1.0),
                     gaussian_kl_loss(pred, target * 0.0)):
            pred.zero_grad()
            loss.backward()
            assert pred.grad.dtype == dtype

    def test_module_to_casts_everything(self, rng):
        layer = BatchNorm2d(3)
        layer.to("float32")
        assert layer.weight.dtype == np.float32
        assert layer._buffers["running_var"].dtype == np.float32
        layer.to("float64")
        assert layer.dtype == np.float64


class TestOptimizerPropagation:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_adam_moments_stay_in_dtype(self, dtype, rng):
        param = Tensor(rng.standard_normal(4).astype(dtype),
                       requires_grad=True)
        optimizer = Adam([param], lr=0.01)
        optimizer.zero_grad()
        (param * param).sum().backward()
        optimizer.step()
        assert param.data.dtype == dtype
        assert optimizer._m[0].dtype == dtype
        assert optimizer._v[0].dtype == dtype

    def test_updates_are_in_place(self, rng):
        param = Tensor(rng.standard_normal(4), requires_grad=True)
        buffer = param.data
        optimizer = Adam([param], lr=0.01)
        (param * param).sum().backward()
        optimizer.step()
        assert param.data is buffer


class TestSerializationDtype:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_npz_roundtrip_preserves_dtype(self, tmp_path, dtype, rng):
        state = {"weight": rng.standard_normal((3, 3)).astype(dtype)}
        path = tmp_path / "state.npz"
        save_state_dict(state, path)
        restored = load_state_dict(path)
        assert restored["weight"].dtype == dtype
        np.testing.assert_array_equal(restored["weight"], state["weight"])

    def test_load_state_dict_adopts_stored_dtype(self, rng):
        with default_dtype("float32"):
            source = BatchNorm2d(2)
        target = BatchNorm2d(2)                 # float64-initialised
        assert target.weight.dtype == np.float64
        target.load_state_dict(source.state_dict())
        assert target.weight.dtype == np.float32
        assert target._buffers["running_mean"].dtype == np.float32

    def test_buffer_registration_preserves_float32(self):
        module = BatchNorm2d(2)
        module.register_buffer("extra", np.ones(2, dtype=np.float32))
        assert module._buffers["extra"].dtype == np.float32

    def test_model_checkpoint_roundtrip_exact(self, tmp_path, rng):
        config = ModelConfig.tiny()
        model = build_model("cvae_gan", config, rng=rng)
        assert model.dtype == np.float32
        path = tmp_path / "model.npz"
        save_state_dict(model.state_dict(), path)
        fresh = build_model("cvae_gan", config,
                            rng=np.random.default_rng(123))
        fresh.load_state_dict(load_state_dict(path))
        for (_, a), (_, b) in zip(model.named_parameters(),
                                  fresh.named_parameters()):
            assert a.data.dtype == b.data.dtype
            np.testing.assert_array_equal(a.data, b.data)


class TestTrainerPrecision:
    """The documented float32-vs-float64 numerical policy, end to end."""

    #: Documented tolerance: one cVAE-GAN optimisation step from identical
    #: float64 draws differs between float32 and float64 by well under 1%
    #: on every reported loss statistic (see README "Precision & backends").
    STEP_RTOL = 1e-2

    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.data import generate_paired_dataset
        from repro.channel import SimulatorChannel
        from repro.flash import BlockGeometry
        channel = SimulatorChannel(geometry=BlockGeometry(16, 16),
                                   rng=np.random.default_rng(5))
        return generate_paired_dataset(channel, pe_cycles=(4000,),
                                       arrays_per_pe=12, array_size=8)

    @pytest.fixture(scope="class")
    def small_dataset(self):
        """16x16 arrays at two P/E time stamps, for the small architecture."""
        from repro.data import generate_paired_dataset
        from repro.channel import SimulatorChannel
        from repro.flash import BlockGeometry
        channel = SimulatorChannel(geometry=BlockGeometry(16, 16),
                                   rng=np.random.default_rng(7))
        return generate_paired_dataset(channel, pe_cycles=(4000, 10000),
                                       arrays_per_pe=16, array_size=16)

    def _one_step(self, dtype, dataset, config=None, batch=4, seed=11):
        config = replace(config or ModelConfig.tiny(), dtype=dtype)
        model = build_model("cvae_gan", config,
                            rng=np.random.default_rng(seed))
        trainer = Trainer(model, dataset, rng=np.random.default_rng(seed + 1))
        return model, trainer.train_step(*dataset[0:batch])

    def _assert_step_within_tolerance(self, dataset, **setup):
        _, stats32 = self._one_step("float32", dataset, **setup)
        _, stats64 = self._one_step("float64", dataset, **setup)
        assert set(stats32) == set(stats64)
        for key in stats64:
            assert stats32[key] == pytest.approx(stats64[key],
                                                 rel=self.STEP_RTOL), key

    def test_float32_smoke_step_finite_and_in_dtype(self, dataset):
        model, stats = self._one_step("float32", dataset)
        assert all(np.isfinite(value) for value in stats.values())
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
        assert {p.grad.dtype for p in model.parameters()
                if p.grad is not None} == {np.dtype(np.float32)}

    def test_float32_step_within_tolerance_of_float64(self, dataset):
        self._assert_step_within_tolerance(dataset)

    def test_float32_small_step_within_tolerance_of_float64(
            self, small_dataset):
        self._assert_step_within_tolerance(
            small_dataset, batch=8, seed=8,
            config=ModelConfig.small(16, epochs=1, batch_size=8))

    def test_sampling_is_deterministic_within_dtype(self, dataset):
        """Bit-identical within a dtype: same seed, same float32 samples."""
        config = ModelConfig.tiny()
        outputs = []
        for _ in range(2):
            model = build_model("cvae_gan", config,
                                rng=np.random.default_rng(21))
            program = np.zeros((2, 8, 8), dtype=int)
            outputs.append(model.sample(program, np.full(2, 0.5),
                                        np.random.default_rng(22)))
        np.testing.assert_array_equal(outputs[0], outputs[1])
        assert outputs[0].dtype == np.float32

    def test_float64_opt_in_still_works(self, dataset):
        model, stats = self._one_step("float64", dataset)
        assert model.dtype == np.float64
        assert all(np.isfinite(value) for value in stats.values())
