"""Contracts of the eager autograd engine on every array backend.

``repro.nn`` executes eagerly: each op runs its kernel at once and records
a backward closure.  These tests pin what the rest of the pipeline relies
on from that path:

* batched sampling and conv → BatchNorm(train) → activation gradients are
  bit-identical on every backend (the arena-free reference kernels and the
  compiled cjit kernels against the default numpy backend);
* each elementwise backward rule, including the subgradient chosen at the
  kinks of ``relu``/``leaky_relu``;
* the GAN's frozen phases: ``no_grad`` passes build no graph, and frozen
  weights recycle arena scratch without corrupting later gradients;
* gradient buffers handed over by backward kernels are adopted, never
  aliased with arena scratch or with earlier gradients;
* a training step frees its activations by reference counting alone.
"""

from __future__ import annotations

import functools
import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.channel import GenerativeChannel, SimulatorChannel
from repro.core import ModelConfig, Trainer, build_model
from repro.data import generate_paired_dataset
from repro.flash import BlockGeometry
from repro.nn import Tensor, no_grad, use_backend
from repro.nn import functional as F
from repro.nn.backend import NumpyBackend
from repro.nn.cjit import cjit_available
from repro.nn.layers import BatchNorm2d, Conv2d

from tests.nn.conftest import numerical_gradient

needs_compiler = pytest.mark.skipif(
    not cjit_available(), reason="no C compiler (cc/clang/gcc) on PATH")

ARCHITECTURES = ["cvae_gan", "cgan", "cvae", "bicycle_gan"]
DTYPES = ["float32", "float64"]

#: Backends compared against the default numpy backend: the reference
#: kernels (fresh allocations, no arena) and, with a compiler, cjit.
OTHER_BACKENDS = ["reference", pytest.param("cjit", marks=needs_compiler)]


def _resolve(backend_name, cjit_backend):
    return cjit_backend if backend_name == "cjit" else backend_name


def _sample_voltages(arch: str, dtype: str, backend) -> np.ndarray:
    """One deterministic batched-sampling pass of an untrained model."""
    with use_backend(backend):
        config = replace(ModelConfig.small(16), dtype=dtype)
        model = build_model(arch, config, rng=np.random.default_rng(5))
        channel = GenerativeChannel(model, rng=np.random.default_rng(3))
        blocks = np.random.default_rng(6).integers(0, 8, (4, 16, 16))
        return channel.read_repeated(blocks, 123, num_samples=2)


@functools.lru_cache(maxsize=None)
def _numpy_voltages(arch: str, dtype: str) -> np.ndarray:
    return _sample_voltages(arch, dtype, "numpy")


class TestSamplingBackendConformance:
    """Batched sampling returns the numpy backend's voltages bit for bit."""

    @pytest.mark.parametrize("backend_name", OTHER_BACKENDS)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_batched_sampling_bit_identical(self, arch, dtype, backend_name,
                                            cjit_backend):
        want = _numpy_voltages(arch, dtype)
        got = _sample_voltages(arch, dtype,
                               _resolve(backend_name, cjit_backend))
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert np.all(np.isfinite(got))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_warm_arena_sampling_matches_cold(self, dtype):
        """Recycled scratch buffers carry no state between forward passes."""
        backend = NumpyBackend()
        cold = _sample_voltages("cvae_gan", dtype, backend)
        cold_hits = backend.arena.stats()["hits"]
        warm = _sample_voltages("cvae_gan", dtype, backend)
        assert backend.arena.stats()["hits"] > cold_hits
        np.testing.assert_array_equal(warm, cold)


def _micro_gradients(backend, dtype, mixed: bool) -> dict[str, np.ndarray]:
    """Gradients of a conv → BN(train) → leaky-ReLU (→ × tensor) graph."""
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(dtype),
               requires_grad=True)
    w = Tensor((rng.standard_normal((4, 3, 3, 3)) * 0.1).astype(dtype),
               requires_grad=True)
    b = Tensor(rng.standard_normal(4).astype(dtype), requires_grad=True)
    mix = Tensor(rng.standard_normal((2, 4, 8, 8)).astype(dtype),
                 requires_grad=True)
    norm = BatchNorm2d(4).to(np.dtype(dtype))
    with use_backend(backend):
        h = norm(F.conv2d(x, w, b, stride=1, padding=1)).leaky_relu(0.2)
        if mixed:
            h = h * mix
        (h * h).mean().backward()
    grads = {"x": x.grad, "w": w.grad, "b": b.grad,
             "bn_w": norm.weight.grad, "bn_b": norm.bias.grad}
    if mixed:
        grads["mix"] = mix.grad
    return grads


class TestMicroGraphGradients:
    """The training path's building blocks, end to end through backward."""

    @pytest.mark.parametrize("mixed", [False, True], ids=["chain", "mixed"])
    def test_matches_numerical_gradient(self, mixed):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3)) * 0.1
        b = rng.standard_normal(4)
        mix = rng.standard_normal((2, 4, 8, 8))
        gamma = np.ones(4)
        beta = np.zeros(4)

        def loss():
            with no_grad():
                norm = BatchNorm2d(4)
                norm.weight.data, norm.bias.data = gamma, beta
                h = norm(F.conv2d(Tensor(x), Tensor(w), Tensor(b),
                                  stride=1, padding=1)).leaky_relu(0.2)
                if mixed:
                    h = h * Tensor(mix)
                return float((h.data * h.data).mean())

        got = _micro_gradients("numpy", "float64", mixed)
        wanted = {"x": x, "w": w, "b": b, "bn_w": gamma, "bn_b": beta}
        if mixed:
            wanted["mix"] = mix
        for key, array in wanted.items():
            np.testing.assert_allclose(got[key],
                                       numerical_gradient(loss, array),
                                       rtol=1e-5, atol=1e-8, err_msg=key)

    @pytest.mark.parametrize("backend_name", OTHER_BACKENDS)
    @pytest.mark.parametrize("mixed", [False, True], ids=["chain", "mixed"])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_backend_bit_identical(self, dtype, mixed, backend_name,
                                   cjit_backend):
        want = _micro_gradients(NumpyBackend(), dtype, mixed)
        got = _micro_gradients(_resolve(backend_name, cjit_backend), dtype,
                               mixed)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].dtype == np.dtype(dtype), key
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)


#: name -> (op, d op / dx as a function of input x and output y).
UNARY_RULES = {
    "leaky_relu_0.2": (lambda t: t.leaky_relu(0.2),
                       lambda x, y: np.where(x > 0, 1.0, 0.2)),
    "leaky_relu_0": (lambda t: t.leaky_relu(0.0),
                     lambda x, y: np.where(x > 0, 1.0, 0.0)),
    "relu": (lambda t: t.relu(), lambda x, y: (x > 0).astype(x.dtype)),
    "tanh": (lambda t: t.tanh(), lambda x, y: 1.0 - y * y),
    "exp": (lambda t: t.exp(), lambda x, y: y),
    "mul_self": (lambda t: t * t, lambda x, y: 2.0 * x),
    "mul_scalar": (lambda t: t * 0.5, lambda x, y: np.full_like(x, 0.5)),
    "rmul_scalar": (lambda t: 2.0 * t, lambda x, y: np.full_like(x, 2.0)),
    "add_self": (lambda t: t + t, lambda x, y: np.full_like(x, 2.0)),
    "add_scalar": (lambda t: t + 1.5, lambda x, y: np.ones_like(x)),
}


class TestUnaryBackwardRules:
    """Each elementwise backward against its closed-form derivative."""

    RTOL = {np.dtype(np.float32): 1e-6, np.dtype(np.float64): 1e-14}

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("rule", sorted(UNARY_RULES))
    def test_gradient_matches_closed_form(self, rule, dtype):
        op, derivative = UNARY_RULES[rule]
        rng = np.random.default_rng(9)
        x_data = rng.standard_normal(64).astype(dtype)
        # The kinks: a gradient there is the subgradient the forward kernel
        # implies (``x > 0`` selects the positive branch; zero is not).
        x_data[:4] = [0.0, -0.0, 0.5, -0.5]
        seed = rng.standard_normal(64).astype(dtype)
        x = Tensor(x_data, requires_grad=True)
        y = op(x)
        assert y.dtype == np.dtype(dtype) and y.requires_grad
        y.backward(seed)
        want = seed * derivative(x_data, y.data).astype(dtype)
        assert x.grad.dtype == np.dtype(dtype)
        np.testing.assert_allclose(x.grad, want,
                                   rtol=self.RTOL[np.dtype(dtype)], atol=0)


class TestFrozenPhases:
    """The GAN's alternating phases on the eager path."""

    def test_no_grad_records_no_graph(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.1,
                   requires_grad=True)
        with no_grad():
            out = BatchNorm2d(4)(F.conv2d(x, w, stride=1, padding=1))
            out = out.leaky_relu(0.2).tanh()
        assert not out.requires_grad
        assert out._parents == () and out._backward is None

    @staticmethod
    def _frozen_weight_grad(dtype, interleave: bool) -> np.ndarray:
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(dtype),
                   requires_grad=True)
        w = Tensor((rng.standard_normal((4, 3, 3, 3)) * 0.1).astype(dtype))
        other = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(dtype))
        with use_backend(NumpyBackend()) as backend:
            h = F.conv2d(x, w, stride=1, padding=1).leaky_relu(0.2)
            if interleave:
                # A same-shaped graph-free conv overwrites the arena's
                # column buffer that the frozen-weight conv above used.
                hits = backend.arena.stats()["hits"]
                with no_grad():
                    F.conv2d(other, w, stride=1, padding=1)
                assert backend.arena.stats()["hits"] > hits
            (h * h).sum().backward()
        assert w.grad is None
        return x.grad

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_frozen_weight_input_gradient_survives_arena_reuse(self, dtype):
        want = self._frozen_weight_grad(dtype, interleave=False)
        got = self._frozen_weight_grad(dtype, interleave=True)
        np.testing.assert_array_equal(got, want)

    def test_freeze_decision_is_taken_at_forward_time(self):
        rng = np.random.default_rng(13)
        x_data = rng.standard_normal((2, 3, 6, 6))
        w_data = rng.standard_normal((4, 3, 3, 3)) * 0.1
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data)
        out = F.conv2d(x, w, stride=1, padding=1)
        w.requires_grad = True  # unfrozen after the forward pass
        out.sum().backward()
        assert w.grad is None
        reference_x = Tensor(x_data, requires_grad=True)
        F.conv2d(reference_x, Tensor(w_data), stride=1,
                 padding=1).sum().backward()
        np.testing.assert_array_equal(x.grad, reference_x.grad)

    def test_frozen_discriminator_gets_no_gradient(self):
        rng = np.random.default_rng(14)
        generator = Conv2d(1, 2, 3, padding=1, rng=rng)
        discriminator = Conv2d(2, 1, 4, stride=2, padding=1, rng=rng)
        for parameter in discriminator.parameters():
            parameter.requires_grad = False
        fake = generator(Tensor(rng.standard_normal((2, 1, 8, 8))))
        discriminator(fake).mean().backward()
        assert all(p.grad is None for p in discriminator.parameters())
        assert all(p.grad is not None and np.any(p.grad != 0)
                   for p in generator.parameters())


class TestScalarGraphs:
    def test_zero_d_arithmetic_backward(self):
        # Loss preambles like ``(a * 0.5) + 1.0`` run on 0-d arrays.
        a = Tensor(np.float64(2.0).reshape(()), requires_grad=True)
        out = (a * 0.5) + 1.0
        assert out.shape == () and out.item() == 2.0
        out.backward()
        assert a.grad.shape == () and float(a.grad) == 0.5


class TestGradientOwnership:
    """Backward kernels hand over fresh buffers; nothing aliases."""

    def test_owned_buffer_is_adopted_without_copy(self):
        tensor = Tensor(np.zeros((2, 3)), requires_grad=True)
        buffer = np.ones((2, 3))
        tensor._accumulate_owned(buffer)
        assert tensor.grad is buffer

    def test_owned_buffer_adds_into_existing_gradient(self):
        tensor = Tensor(np.zeros(3), requires_grad=True)
        tensor._accumulate(np.ones(3))
        first = tensor.grad
        buffer = np.full(3, 2.0)
        tensor._accumulate_owned(buffer)
        assert tensor.grad is first and tensor.grad is not buffer
        np.testing.assert_array_equal(tensor.grad, np.full(3, 3.0))
        np.testing.assert_array_equal(buffer, np.full(3, 2.0))

    def test_owned_buffer_of_another_dtype_is_cast(self):
        tensor = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        buffer = np.ones(3, dtype=np.float64)
        tensor._accumulate_owned(buffer)
        assert tensor.grad is not buffer
        assert tensor.grad.dtype == np.float32

    @pytest.mark.parametrize("backend_name",
                             ["numpy", pytest.param("cjit",
                                                    marks=needs_compiler)])
    def test_conv_input_gradients_never_alias(self, backend_name,
                                              cjit_backend):
        rng = np.random.default_rng(15)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.1,
                   requires_grad=True)
        grads = []
        with use_backend(_resolve(backend_name, cjit_backend)) as backend:
            for _ in range(2):
                x = Tensor(rng.standard_normal((2, 3, 8, 8)),
                           requires_grad=True)
                F.conv2d(x, w, stride=1, padding=1).sum().backward()
                grads.append((x.grad, x.grad.copy()))
            scratch = list(backend.arena._pool().values())
        (first, first_copy), (second, _) = grads
        np.testing.assert_array_equal(first, first_copy)
        assert not np.shares_memory(first, second)
        assert not any(np.shares_memory(first, buf) for buf in scratch)

    @pytest.mark.parametrize("backend_name",
                             ["numpy", pytest.param("cjit",
                                                    marks=needs_compiler)])
    def test_batchnorm_input_gradients_never_alias(self, backend_name,
                                                   cjit_backend):
        rng = np.random.default_rng(16)
        norm = BatchNorm2d(3)
        grads = []
        with use_backend(_resolve(backend_name, cjit_backend)) as backend:
            for _ in range(2):
                x = Tensor(rng.standard_normal((2, 3, 5, 5)),
                           requires_grad=True)
                seed = rng.standard_normal((2, 3, 5, 5))
                norm(x).backward(seed)
                grads.append((x.grad, x.grad.copy()))
            scratch = list(backend.arena._pool().values())
        (first, first_copy), (second, _) = grads
        np.testing.assert_array_equal(first, first_copy)
        assert not np.shares_memory(first, second)
        assert not any(np.shares_memory(first, buf) for buf in scratch)


@pytest.fixture(scope="module")
def tiny_dataset():
    simulator = SimulatorChannel(geometry=BlockGeometry(16, 16),
                                 rng=np.random.default_rng(5))
    return generate_paired_dataset(simulator, pe_cycles=(4000.0, 10000.0),
                                   arrays_per_pe=8, array_size=8)


class TestTrainStepReleasesGraph:
    """One train step with the cyclic GC disabled must free every output of
    a spied-on network: a graph that ``backward()`` never walks stays a
    reference cycle until the GC runs."""

    def _outputs_after_step(self, arch, network, tiny_dataset):
        config = replace(ModelConfig.tiny(), dtype="float32")
        model = build_model(arch, config, rng=np.random.default_rng(21))
        trainer = Trainer(model, tiny_dataset, rng=np.random.default_rng(22))
        module = model
        for name in network.split("."):
            module = getattr(module, name)
        outputs = []
        forward = module.forward

        def spy(*args, **kwargs):
            out = forward(*args, **kwargs)
            outputs.append(weakref.ref(out.data))
            return out

        module.forward = spy
        gc.collect()
        gc.disable()
        try:
            trainer.train_step(*tiny_dataset[0:4])
            alive = [ref for ref in outputs if ref() is not None]
        finally:
            gc.enable()
        return outputs, alive

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_generator_outputs_freed_without_cyclic_gc(self, arch,
                                                       tiny_dataset):
        outputs, alive = self._outputs_after_step(arch, "generator",
                                                  tiny_dataset)
        assert outputs
        assert not alive

    @pytest.mark.parametrize("arch", ["cgan", "cvae_gan", "bicycle_gan"])
    def test_discriminator_outputs_freed_without_cyclic_gc(self, arch,
                                                           tiny_dataset):
        outputs, alive = self._outputs_after_step(arch, "discriminator",
                                                  tiny_dataset)
        assert outputs
        assert not alive

    def test_bicycle_gan_latent_regression_builds_no_logvar_graph(
            self, tiny_dataset):
        """The cLR cycle re-encodes the generated voltages for their mean
        only; a log-variance head run there would leave its graph behind."""
        outputs, alive = self._outputs_after_step(
            "bicycle_gan", "encoder.fc_logvar", tiny_dataset)
        assert outputs
        assert not alive

