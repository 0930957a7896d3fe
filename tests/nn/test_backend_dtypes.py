"""Tests for the precision policy and the swappable array-kernel backend."""

from __future__ import annotations

import contextlib
import threading
from dataclasses import replace

import numpy as np
import pytest

import repro.nn.backend as backend_mod
from repro.channel import SimulatorChannel
from repro.core import ModelConfig, Trainer, build_model
from repro.data import generate_paired_dataset
from repro.ecc import LDPCCode
from repro.flash import BlockGeometry
from repro.nn import (
    Tensor,
    bce_with_logits_loss,
    default_dtype,
    gaussian_kl_loss,
    get_backend,
    get_default_dtype,
    l1_loss,
    mse_loss,
    no_grad,
    resolve_dtype,
    use_backend,
)
from repro.nn import functional as F
from repro.nn.backend import (
    BACKEND_REGISTRY,
    ArrayBackend,
    BufferArena,
    NumpyBackend,
    ReferenceBackend,
    build_backend,
    register_backend,
)
from repro.nn.cjit import (cjit_available, find_compiler,
                           standard_kernel_specs)
from repro.nn.cjit import backend as cjit_backend_mod
from tests.ecc.test_ldpc import _bpsk_llrs, _irregular_parity_check

needs_compiler = pytest.mark.skipif(
    not cjit_available(), reason="no C compiler (cc/clang/gcc) on PATH")

#: ``(kernel, stride, padding, height, width)`` of every conv kernel the
#: warm set compiles, and the windows among them.
WARM_PLANES = sorted({tuple(dict(spec.params).values())
                      for spec in standard_kernel_specs()
                      if spec.op == "im2col"})
WARM_GEOMETRIES = sorted({plane[:3] for plane in WARM_PLANES})

#: Backends held to the reference kernels: numpy always, cjit when a
#: compiler exists (without one it degenerates to the numpy kernels).
CONFORMANCE_BACKENDS = ["numpy",
                        pytest.param("cjit", marks=needs_compiler)]


@contextlib.contextmanager
def _worker_inside(scope):
    """Hold a worker thread inside ``with scope() as value:`` for the body;
    yields a dict whose ``"value"`` is what the worker's scope returned."""
    inside, release = threading.Event(), threading.Event()
    seen = {}

    def worker():
        with scope() as value:
            seen["value"] = value
            inside.set()
            release.wait(timeout=30)

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        assert inside.wait(timeout=30)
        yield seen
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()


class TestDtypePolicy:
    def test_default_is_float64(self):
        assert get_default_dtype() == np.float64

    def test_resolve_names_and_types(self):
        assert resolve_dtype("float32") == np.float32
        assert resolve_dtype("FLOAT64") == np.float64
        assert resolve_dtype(np.float32) == np.float32

    @pytest.mark.parametrize("spec", ["float16", "f32", "single", "f64",
                                      "double", np.int32])
    def test_resolve_rejects_unsupported(self, spec):
        with pytest.raises(ValueError):
            resolve_dtype(spec)

    def test_context_manager_scopes_and_restores(self):
        with default_dtype("float32"):
            assert get_default_dtype() == np.float32
            assert Tensor([1.0, 2.0]).dtype == np.float32
        assert get_default_dtype() == np.float64

    def test_context_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with default_dtype("float32"):
                raise RuntimeError("boom")
        assert get_default_dtype() == np.float64

    def test_default_dtype_is_per_thread(self):
        """A worker inside a float32 scope leaves this thread at float64."""
        with _worker_inside(lambda: default_dtype("float32")):
            assert get_default_dtype() == np.float64
            assert Tensor([1.0]).dtype == np.float64

    def test_tensor_creation_follows_default(self):
        with default_dtype("float32"):
            assert Tensor([1, 2, 3]).dtype == np.float32      # ints promoted
            assert Tensor(2.5).dtype == np.float32            # python float
            assert Tensor.zeros((2,)).dtype == np.float32
            assert Tensor.ones((2,)).dtype == np.float32

    def test_explicit_ndarray_keeps_its_dtype(self):
        with default_dtype("float32"):
            assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64
        assert Tensor(np.zeros(3, dtype=np.float32)).dtype == np.float32

    def test_explicit_dtype_argument_wins(self):
        assert Tensor([1.0], dtype=np.float32).dtype == np.float32

    def test_prior_latent_same_stream_across_dtypes(self):
        """float32 latents are the cast of the float64 stream, not a new
        one (the sampling path every generative read takes)."""
        latents = {}
        for dtype in ("float64", "float32"):
            config = replace(ModelConfig.tiny(), dtype=dtype)
            model = build_model("cvae_gan", config,
                                rng=np.random.default_rng(0))
            latents[dtype] = model.prior_latent(
                16, np.random.default_rng(3)).data
        assert latents["float32"].dtype == np.float32
        np.testing.assert_array_equal(
            latents["float64"].astype(np.float32), latents["float32"])


class TestBackendRegistry:
    def test_default_backend_is_cjit_exactly_when_a_compiler_is_found(self):
        expected = "cjit" if find_compiler() is not None else "numpy"
        assert get_backend().name == expected
        assert get_backend() is get_backend()

    def test_default_without_a_compiler_is_numpy(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_DEFAULT", None)
        monkeypatch.setattr(cjit_backend_mod, "find_compiler", lambda: None)
        assert type(get_backend()) is NumpyBackend

    def test_registry_contents(self):
        assert "numpy" in BACKEND_REGISTRY and "reference" in BACKEND_REGISTRY

    def test_build_unknown_backend(self):
        with pytest.raises(ValueError):
            build_backend("cuda")

    def test_use_backend_scopes_and_restores(self):
        default = get_backend()
        with use_backend("reference") as backend:
            assert isinstance(backend, ReferenceBackend)
            assert get_backend() is backend
        assert get_backend() is default

    def test_use_backend_is_per_thread(self):
        """A worker inside use_backend leaves this thread's backend alone."""
        default = get_backend()
        with _worker_inside(lambda: use_backend("reference")) as seen:
            assert isinstance(seen["value"], ReferenceBackend)
            assert get_backend() is default

    def test_use_backend_accepts_instance(self):
        default = get_backend()
        instance = NumpyBackend()
        with use_backend(instance) as backend:
            assert backend is instance
            assert get_backend() is instance
        assert get_backend() is default

    def test_use_backend_rejects_junk(self):
        default = get_backend()
        with pytest.raises(TypeError):
            with use_backend(42):
                pass
        assert get_backend() is default

    def test_register_backend_decorator(self):
        @register_backend("_test_backend")
        class _TestBackend(NumpyBackend):
            name = "_test_backend"
        try:
            assert isinstance(build_backend("_test_backend"), _TestBackend)
        finally:
            del BACKEND_REGISTRY["_test_backend"]

    def test_register_rejects_non_backend(self):
        with pytest.raises(TypeError):
            register_backend("junk", int)


class TestBufferArena:
    def test_scratch_reuses_buffers(self):
        arena = BufferArena()
        first = arena.scratch((4, 5), np.float32)
        second = arena.scratch((4, 5), np.float32)
        assert first is second
        assert arena.stats()["hits"] == 1
        assert arena.stats()["misses"] == 1

    def test_scratch_distinguishes_dtype(self):
        arena = BufferArena()
        assert arena.scratch((3,), np.float32) is not \
            arena.scratch((3,), np.float64)

    def test_clear(self):
        arena = BufferArena()
        arena.scratch((2, 2), np.float64)
        arena.clear()
        assert arena.stats()["buffers"] == 0

    def test_peak_bytes_high_water_and_reset(self):
        backend = NumpyBackend()
        stats = backend.arena.stats()
        assert stats["peak_bytes"] == 0
        backend.scratch_out((64, 64), np.float32)
        peak = backend.arena.stats()["peak_bytes"]
        assert peak >= 64 * 64 * 4
        # Same-key reuse does not raise the peak.
        backend.scratch_out((64, 64), np.float32)
        assert backend.arena.stats()["peak_bytes"] == peak
        backend.arena.reset_peak()
        # The live pool still counts: peak restarts from resident bytes.
        assert backend.arena.stats()["peak_bytes"] == \
            backend.arena.stats()["bytes"]

    def test_conv_inference_hits_arena(self):
        """Graph-free conv forward passes reuse the im2col scratch buffer."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.1)
        with use_backend(NumpyBackend()) as backend:
            with no_grad():
                first = F.conv2d(x, w, stride=1, padding=1)
                second = F.conv2d(x, w, stride=1, padding=1)
            assert backend.arena.stats()["hits"] >= 1
        np.testing.assert_array_equal(first.data, second.data)

    def test_grad_path_never_uses_arena(self):
        """When a backward closure captures the columns they must be fresh."""
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.1, requires_grad=True)
        with use_backend(NumpyBackend()) as backend:
            out = F.conv2d(x, w, stride=1, padding=1)
            (out * out).sum().backward()
            assert backend.arena.stats()["hits"] == 0
        assert w.grad is not None and x.grad is not None


class TestBackendConformance:
    """Every accelerated backend must match the plain reference kernels.

    The conv lowering is pure indexing plus the shared BLAS matmul, so the
    comparison is **bit-exact** for the numpy arena backend and for the
    compiled-kernel (cjit) backend alike.
    """

    @pytest.mark.parametrize("backend_name", CONFORMANCE_BACKENDS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_conv2d_forward_backward(self, dtype, backend_name, cjit_backend):
        rng = np.random.default_rng(7)
        x_data = rng.standard_normal((2, 3, 9, 9)).astype(dtype)
        w_data = (rng.standard_normal((4, 3, 4, 4)) * 0.1).astype(dtype)
        b_data = rng.standard_normal(4).astype(dtype)
        under_test = cjit_backend if backend_name == "cjit" else backend_name
        results = {}
        for name in (under_test, "reference"):
            with use_backend(name):
                x = Tensor(x_data, requires_grad=True)
                w = Tensor(w_data, requires_grad=True)
                b = Tensor(b_data, requires_grad=True)
                out = F.conv2d(x, w, b, stride=2, padding=1)
                (out * out).sum().backward()
                results[name] = (out.data, x.grad, w.grad, b.grad)
        for got, want in zip(results[under_test], results["reference"]):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == dtype

    @pytest.mark.parametrize("backend_name", CONFORMANCE_BACKENDS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_conv_transpose2d_inference(self, dtype, backend_name,
                                        cjit_backend):
        rng = np.random.default_rng(8)
        x_data = rng.standard_normal((2, 4, 5, 5)).astype(dtype)
        w_data = (rng.standard_normal((4, 2, 4, 4)) * 0.1).astype(dtype)
        under_test = cjit_backend if backend_name == "cjit" else backend_name
        results = {}
        for name in (under_test, "reference"):
            with use_backend(name), no_grad():
                out = F.conv_transpose2d(Tensor(x_data), Tensor(w_data),
                                         stride=2, padding=1)
                results[name] = out.data.copy()
        np.testing.assert_array_equal(results[under_test],
                                      results["reference"])
        assert results[under_test].dtype == dtype

    @pytest.mark.parametrize("backend_name", CONFORMANCE_BACKENDS)
    def test_ldpc_min_sum_rejects_malformed_indexes(self, backend_name,
                                                    cjit_backend):
        """The compiled decoder addresses memory with the padded indexes,
        so an entry out of range or a shape mismatch is a ValueError on
        every backend, never a wild read or numpy's negative wrap-around."""
        backend = cjit_backend if backend_name == "cjit" \
            else build_backend(backend_name)
        code = LDPCCode(_irregular_parity_check())
        llrs = np.full((2, code.n), -1.0)
        indexes = (code._check_edges, code._check_variables,
                   code._variable_edges)
        num_edges = int(code.parity_check.sum())
        for position, entry in ((0, num_edges + 1), (1, code.n + 1),
                                (2, num_edges + 1), (2, -1)):
            broken = [index.copy() for index in indexes]
            broken[position][-1, 0] = entry
            with pytest.raises(ValueError, match="must lie in"):
                backend.ldpc_min_sum(llrs, *broken, 30, 0.8)
        with pytest.raises(ValueError, match="shape"):
            backend.ldpc_min_sum(llrs, indexes[0], indexes[1][:, :-1],
                                 indexes[2], 30, 0.8)


@needs_compiler
class TestCJitKernelConformance:
    """Compiled kernels vs the NumPy kernels, per the documented contract.

    Every compiled kernel — the indexing kernels (im2col/col2im), the
    Adam update, ``leaky_relu``, ``bn_bwd_dx`` and the LDPC min-sum
    decoder — must be **bit-identical**; no comparison has a tolerance.
    """

    #: Every warm window and one without padding, on planes of every shape
    #: class: smaller than the window, odd, non-square, a warm size.
    GEOMETRIES = sorted({*WARM_GEOMETRIES, (2, 2, 0)})
    PLANES = [(1, 1), (3, 3), (5, 7), (7, 5), (9, 9), (16, 16)]

    @staticmethod
    def _assert_conv_lowering_bit_identical(backend, x, kernel, stride,
                                            padding):
        """im2col of ``x`` and col2im of random columns, byte for byte."""
        reference = NumpyBackend()
        want = reference.im2col(x, kernel, stride, padding)
        got = backend.im2col(x, kernel, stride, padding)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        cols = np.random.default_rng(5).standard_normal(want.shape) \
            .astype(x.dtype)
        want = reference.col2im(cols, x.shape, kernel, stride, padding)
        got = backend.col2im(cols, x.shape, kernel, stride, padding)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("plane", PLANES,
                             ids=lambda plane: "x".join(map(str, plane)))
    @pytest.mark.parametrize("geometry", GEOMETRIES,
                             ids=lambda g: "k{}s{}p{}".format(*g))
    def test_im2col_col2im_bit_identical(self, dtype, plane, geometry,
                                         cjit_backend):
        rng = np.random.default_rng(11)
        for batch in (1, 3):
            x = rng.standard_normal((batch, 2, *plane)).astype(dtype)
            x[x > 1.5] = -0.0  # a signed zero must survive the copies
            self._assert_conv_lowering_bit_identical(cjit_backend, x,
                                                     *geometry)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_im2col_col2im_bit_identical_on_every_warm_plane(self, dtype,
                                                             cjit_backend):
        rng = np.random.default_rng(17)
        for kernel, stride, padding, height, width in WARM_PLANES:
            x = rng.standard_normal((2, 3, height, width)).astype(dtype)
            self._assert_conv_lowering_bit_identical(cjit_backend, x, kernel,
                                                     stride, padding)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("beta1", [0.5, 0.9], ids=["paper", "plain"])
    def test_adam_update_bit_identical(self, dtype, beta1, cjit_backend):
        """The paper's betas (0.5, 0.999) and the textbook ones."""
        reference = NumpyBackend()
        states = {}
        for backend in (reference, cjit_backend):
            rng_local = np.random.default_rng(13)
            param = rng_local.standard_normal(193).astype(dtype)
            grad = rng_local.standard_normal(193).astype(dtype)
            m = np.zeros_like(param)
            v = np.zeros_like(param)
            for step in range(1, 6):
                backend.adam_update(param, grad, m, v, lr=1e-3, beta1=beta1,
                                    beta2=0.999, eps=1e-8,
                                    bias_correction1=1 - beta1 ** step,
                                    bias_correction2=1 - 0.999 ** step)
            states[backend.name] = (param, m, v)
        for got, want in zip(states["cjit"], states["numpy"]):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_leaky_relu_bit_identical_and_nan_propagating(self, dtype,
                                                          cjit_backend):
        x = np.array([-2.0, -0.0, 0.0, 3.5, np.nan, -np.inf],
                     dtype=dtype)
        got = cjit_backend.leaky_relu(x, 0.2)
        want = NumpyBackend().leaky_relu(x, 0.2)
        np.testing.assert_array_equal(got, want)
        assert np.isnan(got[4])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bn_bwd_dx_bit_identical(self, dtype, cjit_backend):
        rng = np.random.default_rng(4)
        grad = rng.standard_normal((2, 5, 6, 6)).astype(dtype)
        x = rng.standard_normal((2, 5, 6, 6)).astype(dtype)
        s1, s2, s3 = (rng.standard_normal(5).astype(dtype)
                      for _ in range(3))
        want = NumpyBackend().bn_bwd_dx(grad, x, s1, s2, s3)
        got = cjit_backend.bn_bwd_dx(grad, x, s1, s2, s3)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @staticmethod
    def _ldpc_code(name: str) -> LDPCCode:
        """The n = 252 campaign code; the degenerate code of the LDPC tests
        (degree-1, empty, duplicate and shortened checks); or a width-1
        code, every check of degree 1 and one variable checked twice."""
        if name == "campaign":
            return LDPCCode.regular(n=252, column_weight=3, row_weight=6,
                                    rng=np.random.default_rng(1))
        if name == "degenerate":
            return LDPCCode(_irregular_parity_check())
        parity = np.zeros((6, 12), dtype=np.int64)
        parity[np.arange(6), [0, 1, 1, 3, 5, 8]] = 1
        return LDPCCode(parity)

    @pytest.mark.parametrize("scale", [0.5, 0.8, 1.0])
    @pytest.mark.parametrize("max_iterations", [0, 1, 30])
    @pytest.mark.parametrize("code_name", ["campaign", "degenerate",
                                           "width_1"])
    def test_ldpc_min_sum_bit_identical(self, code_name, max_iterations,
                                        scale, cjit_backend):
        """Codewords, iterations and success flags, on noisy LLRs, tied
        magnitudes (rounded LLRs), signed zeros, LLRs up to the message
        cap (messages then reach it), clean, noisy and hopeless codewords
        in one batch, an already-converged batch and batches of one and
        none."""
        code = self._ldpc_code(code_name)
        rng = np.random.default_rng(15)
        codewords = code.encode_batch(rng.integers(0, 2, size=(24, code.k)))
        awgn = _bpsk_llrs(codewords, 0.9, rng)
        zeros = rng.choice([0.0, -0.0], size=awgn.shape)
        inputs = {
            "awgn": awgn,
            "ties": np.round(awgn),
            "signed_zeros": np.where(rng.random(awgn.shape) < 0.25, zeros,
                                     np.round(awgn, 1)),
            "at_the_cap": np.clip(awgn * (backend_mod.LDPC_MESSAGE_CAP / 4),
                                  -backend_mod.LDPC_MESSAGE_CAP,
                                  backend_mod.LDPC_MESSAGE_CAP),
            "mixed": _bpsk_llrs(codewords, rng.choice([0.3, 0.7, 2.0],
                                                      size=(24, 1)), rng),
            "converged": 4.0 * (1.0 - 2.0 * codewords),
            "batch_of_none": awgn[:0],
            "batch_of_one": awgn[:1],
        }
        reference = NumpyBackend()
        fallbacks = cjit_backend.fallbacks
        for label, llrs in inputs.items():
            args = (llrs, code._check_edges, code._check_variables,
                    code._variable_edges, max_iterations, scale)
            want = reference.ldpc_min_sum(*args)
            got = cjit_backend.ldpc_min_sum(*args)
            for name, got_array, want_array in zip(
                    ("codewords", "iterations", "success"), got, want):
                assert got_array.dtype == want_array.dtype, (label, name)
                np.testing.assert_array_equal(got_array, want_array,
                                              err_msg=f"{label}: {name}")
        assert cjit_backend.fallbacks == fallbacks

    def test_ldpc_lanes_converge_independently(self, cjit_backend):
        """The compiled kernel decodes a call's codewords in lockstep, one
        per SIMD lane, each lane freezing its result at the iteration it
        converges.  Batch sizes 1 to 17 leave every count of idle lanes in
        the last group (up to 8 lanes), and each batch mixes clean, noisy
        and hopeless codewords, which converge at different iterations."""
        code = self._ldpc_code("campaign")
        rng = np.random.default_rng(16)
        reference = NumpyBackend()
        iterations = set()
        for batch in range(1, 18):
            codewords = code.encode_batch(rng.integers(0, 2,
                                                       size=(batch, code.k)))
            sigmas = rng.choice([0.3, 0.7, 0.85, 2.0], size=(batch, 1))
            args = (_bpsk_llrs(codewords, sigmas, rng), code._check_edges,
                    code._check_variables, code._variable_edges, 30, 0.8)
            want = reference.ldpc_min_sum(*args)
            got = cjit_backend.ldpc_min_sum(*args)
            for got_array, want_array in zip(got, want):
                assert got_array.dtype == want_array.dtype
                np.testing.assert_array_equal(got_array, want_array,
                                              err_msg=f"batch of {batch}")
            iterations.update(want[1].tolist())
        assert {0, 30} <= iterations and len(iterations) >= 6

    #: Every loss of the training objectives, called on two tensors of one
    #: shape: a prediction and a target, logits against either label, or
    #: the ``(mu, logvar)`` of a KL term.
    LOSSES = {
        "mse": lambda first, second: mse_loss(first, second),
        "l1": lambda first, second: l1_loss(first, second),
        "bce_real": lambda first, _: bce_with_logits_loss(first, 1.0),
        "bce_fake": lambda first, _: bce_with_logits_loss(first, 0.0),
        "gaussian_kl": lambda first, second: gaussian_kl_loss(first, second),
    }

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("loss", sorted(LOSSES))
    def test_loss_value_and_gradients_bit_identical(self, loss, dtype,
                                                    cjit_backend):
        """Loss values are NumPy reductions outside the array backend, so
        on cjit a loss reads numpy's value and gradients bit for bit."""
        rng = np.random.default_rng(14)
        first = rng.standard_normal((8, 257)).astype(dtype)
        second = (rng.standard_normal((8, 257)) * 0.3).astype(dtype)
        results = {}
        for name, backend in (("numpy", "numpy"), ("cjit", cjit_backend)):
            with use_backend(backend):
                inputs = (Tensor(first, requires_grad=True),
                          Tensor(second, requires_grad=True))
                value = self.LOSSES[loss](*inputs)
                value.backward()
                results[name] = (value.item(),
                                 [tensor.grad for tensor in inputs])
        (got, got_grads), (want, want_grads) = results["cjit"], \
            results["numpy"]
        assert got == want
        assert [grad is None for grad in got_grads] \
            == [grad is None for grad in want_grads]
        assert want_grads[0] is not None
        for got_grad, want_grad in zip(got_grads, want_grads):
            if want_grad is not None:
                assert got_grad.dtype == want_grad.dtype == dtype
                assert got_grad.tobytes() == want_grad.tobytes()


class TestFusedReductions:
    def test_mse_accumulates_in_float64(self):
        """A float32 prediction's squared errors are summed in float64:
        10,000 equal terms land within float64 round-off of the exact
        mean, where a float32 sum would be off by ~1e-7 relative."""
        value = np.float32(1e-4)
        pred = Tensor(np.full(10_000, value, dtype=np.float32))
        loss = mse_loss(pred, Tensor(np.zeros(10_000, dtype=np.float32)))
        assert loss.item() == pytest.approx(float(value) ** 2, rel=1e-12)

    def test_fused_mse_matches_composition(self):
        rng = np.random.default_rng(2)
        pred_data = rng.standard_normal((4, 8))
        target = Tensor(rng.standard_normal((4, 8)))
        pred = Tensor(pred_data, requires_grad=True)
        loss = mse_loss(pred, target)
        loss.backward()
        diff = pred_data - target.data
        assert loss.item() == pytest.approx(float((diff ** 2).mean()))
        np.testing.assert_allclose(pred.grad, 2.0 * diff / diff.size,
                                   rtol=1e-12)

    def test_fused_mse_unbroadcasts_gradient(self):
        """A broadcast prediction gets its gradient reduced back."""
        pred = Tensor(np.ones((2, 1)), requires_grad=True)
        target = Tensor(np.zeros((2, 3)))
        mse_loss(pred, target).backward()
        assert pred.grad.shape == (2, 1)
        np.testing.assert_allclose(pred.grad,
                                   np.full((2, 1), 3 * 2.0 / 6))

    def test_fused_l1_unbroadcasts_gradient(self):
        pred = Tensor(np.ones((2, 1)), requires_grad=True)
        l1_loss(pred, Tensor(np.zeros((2, 3)))).backward()
        assert pred.grad.shape == (2, 1)

    def test_fused_bce_logits_gradient_is_sigmoid_minus_target(self):
        logits_data = np.array([-2.0, 0.0, 3.0])
        logits = Tensor(logits_data, requires_grad=True)
        bce_with_logits_loss(logits, 1.0).backward()
        expected = (1 / (1 + np.exp(-logits_data)) - 1.0) / logits_data.size
        np.testing.assert_allclose(logits.grad, expected, rtol=1e-12)

    def test_fused_gaussian_kl_gradients(self):
        mu = Tensor(np.array([[0.5, -1.0]]), requires_grad=True)
        logvar = Tensor(np.array([[0.2, -0.4]]), requires_grad=True)
        gaussian_kl_loss(mu, logvar).backward()
        np.testing.assert_allclose(mu.grad, mu.data, rtol=1e-12)
        np.testing.assert_allclose(logvar.grad,
                                   0.5 * (np.exp(logvar.data) - 1.0),
                                   rtol=1e-12)

    def test_loss_value_is_float64_scalar(self):
        pred = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        loss = mse_loss(pred, Tensor(np.ones(4, dtype=np.float32)))
        assert loss.data.dtype == np.float64
        assert loss.data.shape == ()

    def test_custom_backend_is_actually_used(self):
        calls = []

        class _Spy(NumpyBackend):
            def matmul(self, a, b, out=None):
                calls.append(a.shape)
                return super().matmul(a, b, out=out)

        with use_backend(_Spy()):
            a = Tensor(np.ones((2, 3)))
            b = Tensor(np.ones((3, 2)))
            a.matmul(b).sum()
        assert calls


@pytest.fixture(scope="module")
def tiny_dataset():
    simulator = SimulatorChannel(geometry=BlockGeometry(16, 16),
                                 rng=np.random.default_rng(5))
    return generate_paired_dataset(simulator, pe_cycles=(4000.0, 10000.0),
                                   arrays_per_pe=8, array_size=8)


def _train_steps(arch, dtype, dataset, backend, steps=2):
    """Each step's loss stats and the state dict of a tiny model after
    ``steps`` training steps on ``backend``."""
    with use_backend(backend):
        config = replace(ModelConfig.tiny(), dtype=dtype)
        model = build_model(arch, config, rng=np.random.default_rng(21))
        trainer = Trainer(model, dataset, rng=np.random.default_rng(22))
        stats = [trainer.train_step(*dataset[0:4]) for _ in range(steps)]
        return stats, model.state_dict()


class TestTrainStepBackendConformance:
    """Whole training steps on any backend leave numpy's loss values and
    weights bit for bit.

    Every kernel cjit compiles on the training path is bit-identical, the
    BatchNorm reductions stay NumPy on every backend, and loss values are
    NumPy reductions outside the backend, so the stats and the weights
    after full optimizer steps must match exactly: on every architecture
    and both dtypes.  The reference backend never recycles arena scratch,
    so matching it shows the numpy backend's buffer reuse is invisible.
    """

    @staticmethod
    def _assert_same_steps(got, want):
        got_stats, got_weights = got
        want_stats, want_weights = want
        assert got_stats == want_stats
        assert got_weights.keys() == want_weights.keys()
        for key in want_weights:
            assert got_weights[key].dtype == want_weights[key].dtype, key
            np.testing.assert_array_equal(got_weights[key],
                                          want_weights[key], err_msg=key)

    @needs_compiler
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("arch",
                             ["cvae_gan", "cgan", "cvae", "bicycle_gan"])
    def test_stats_and_weights_bit_identical_after_two_train_steps(
            self, arch, dtype, tiny_dataset, cjit_backend):
        want = _train_steps(arch, dtype, tiny_dataset, "numpy")
        got = _train_steps(arch, dtype, tiny_dataset, cjit_backend)
        self._assert_same_steps(got, want)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("arch",
                             ["cvae_gan", "cgan", "cvae", "bicycle_gan"])
    def test_reference_backend_weights_bit_identical(self, arch, dtype,
                                                     tiny_dataset):
        want = _train_steps(arch, dtype, tiny_dataset, "numpy")
        got = _train_steps(arch, dtype, tiny_dataset, "reference")
        self._assert_same_steps(got, want)
