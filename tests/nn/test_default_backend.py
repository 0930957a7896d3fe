"""The process-default array backend: compiled kernels wherever they work.

The default is resolved on the first ``get_backend()`` call: ``cjit`` when a
C compiler is found, ``numpy`` otherwise (``TestBackendRegistry`` in
``test_backend_dtypes.py`` pins that choice).  A default must not fail for an
environmental reason, so a default cjit that cannot write its kernel cache
or build a kernel warns once and runs the NumPy kernels — and still trains
and samples bit-identically to numpy — while an explicitly built ``cjit``
raises :class:`KernelCompileError`.  The sampling tests pin the path the
ECC campaigns (and the fleet workers) run under the default.
"""

from __future__ import annotations

import contextlib
import shutil
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import repro.nn.backend as backend_mod
from repro.channel import GenerativeChannel, SimulatorChannel
from repro.core import ModelConfig, Trainer, build_model
from repro.data import generate_paired_dataset
from repro.ecc import (BCHCode, LDPCCode, evaluate_bch_over_channel,
                       evaluate_ldpc_over_channel)
from repro.flash import BlockGeometry
from repro.nn import get_backend, use_backend
from repro.nn.backend import build_backend
from repro.nn.cjit import CompilerInfo, KernelCompileError, cjit_available
from repro.nn.cjit import backend as cjit_backend_mod

needs_compiler = pytest.mark.skipif(
    not cjit_available(), reason="no C compiler (cc/clang/gcc) on PATH")


@pytest.fixture
def fresh_default(monkeypatch):
    """Make the next ``get_backend()`` resolve a new process default; the
    session's default instance is restored afterwards."""
    monkeypatch.setattr(backend_mod, "_DEFAULT", None)
    monkeypatch.setattr(backend_mod._STATE, "current", None)


@pytest.fixture
def failing_compiler(monkeypatch):
    """A 'compiler' that fails every compile (``false`` exits 1)."""
    path = shutil.which("false")
    if path is None:
        pytest.skip("no `false` executable to stand in for a broken compiler")
    info = CompilerInfo(path=path, version="false 1.0")
    monkeypatch.setattr(cjit_backend_mod, "find_compiler", lambda: info)
    return info


@pytest.fixture
def unusable_dir(tmp_path):
    """A path no directory can be created at: its parent is a file."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    return blocker / "kernels"


@pytest.fixture(scope="module")
def tiny_dataset():
    simulator = SimulatorChannel(geometry=BlockGeometry(16, 16),
                                 rng=np.random.default_rng(5))
    return generate_paired_dataset(simulator, pe_cycles=(4000.0, 10000.0),
                                   arrays_per_pe=8, array_size=8)


def _train_tiny(dataset, steps=2) -> dict[str, np.ndarray]:
    """State dict of the tiny cVAE-GAN after ``steps`` Adam steps on the
    current thread's backend."""
    model = build_model("cvae_gan", ModelConfig.tiny(),
                        rng=np.random.default_rng(21))
    trainer = Trainer(model, dataset, rng=np.random.default_rng(22))
    for _ in range(steps):
        trainer.train_step(*dataset[0:4])
    return {key: value.copy() for key, value in model.state_dict().items()}


def _assert_same_weights(got, want):
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def _numpy_fallback_warnings(record) -> list:
    return [warning for warning in record
            if "running the NumPy kernels" in str(warning.message)]


def test_concurrent_first_calls_share_one_default(fresh_default,
                                                  monkeypatch):
    """Threads racing the first ``get_backend()`` all get one instance."""
    def slow_find_compiler():
        time.sleep(0.01)  # widen the window a missing lock would lose
        return None

    monkeypatch.setattr(cjit_backend_mod, "find_compiler", slow_find_compiler)
    start = threading.Barrier(8)
    seen = []

    def first_call():
        start.wait(timeout=10)
        seen.append(get_backend())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=first_call) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8
    assert all(backend is seen[0] for backend in seen)


class TestDefaultFallsBackToNumpy:
    @needs_compiler
    def test_unusable_cache_trains_like_numpy(self, fresh_default,
                                              monkeypatch, unusable_dir,
                                              tiny_dataset):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(unusable_dir))
        with use_backend("numpy"):
            want = _train_tiny(tiny_dataset)
        with pytest.warns(RuntimeWarning) as record:
            got = _train_tiny(tiny_dataset)
        _assert_same_weights(got, want)
        assert len(_numpy_fallback_warnings(record)) == 1
        assert "kernel cache" in str(_numpy_fallback_warnings(record)[0]
                                     .message)
        assert get_backend().name == "cjit"
        assert not get_backend().available()

    def test_failing_compiler_trains_like_numpy(self, fresh_default,
                                                failing_compiler, tmp_path,
                                                monkeypatch, tiny_dataset):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernels"))
        with use_backend("numpy"):
            want = _train_tiny(tiny_dataset)
        with pytest.warns(RuntimeWarning) as record:
            got = _train_tiny(tiny_dataset)
        _assert_same_weights(got, want)
        assert len(_numpy_fallback_warnings(record)) == 1
        assert get_backend().compiled == 0

    @needs_compiler
    def test_a_later_failure_switches_loaded_kernels_to_numpy(
            self, fresh_default, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernels"))
        backend = get_backend()
        x = np.linspace(-1, 1, 16, dtype=np.float32)
        backend.leaky_relu(x, 0.2)
        assert backend.compiled == 1

        def failing_compile(source, output, compiler):
            raise KernelCompileError("compiler crashed")

        monkeypatch.setattr(cjit_backend_mod, "compile_source",
                            failing_compile)
        with pytest.warns(RuntimeWarning, match="compiler crashed"):
            backend.im2col(np.ones((1, 1, 4, 4), np.float32), 4, 2, 1)
        fallbacks = backend.fallbacks
        np.testing.assert_array_equal(
            backend.leaky_relu(x, 0.2),
            backend_mod.NumpyBackend().leaky_relu(x, 0.2))
        assert backend.fallbacks == fallbacks + 1


@needs_compiler
def test_a_plane_smaller_than_the_window_keeps_the_compiled_kernels(
        fresh_default, monkeypatch, tmp_path):
    """A 1x1 plane has no 4x4/s2/p1 window: both conv kernels answer with
    NumPy's empty result and no compile, and the default stays compiled."""
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernels"))
    backend = get_backend()
    reference = backend_mod.NumpyBackend()
    x = np.ones((2, 3, 1, 1), np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cols = backend.im2col(x, 4, 2, 1)
        np.testing.assert_array_equal(cols, reference.im2col(x, 4, 2, 1))
        assert cols.shape == (2, 48, 0)
        grad = backend.col2im(cols, x.shape, 4, 2, 1)
        np.testing.assert_array_equal(
            grad, reference.col2im(cols, x.shape, 4, 2, 1))
        assert backend.compiled == 0
        assert backend.available()
        backend.leaky_relu(x, 0.2)
    assert backend.compiled == 1


class TestExplicitCJitRaises:
    def test_failing_compile_raises(self, failing_compiler, tmp_path):
        backend = build_backend("cjit", cache_dir=tmp_path)
        with pytest.raises(KernelCompileError, match="compilation failed"):
            backend.im2col(np.ones((1, 1, 4, 4), np.float32), 4, 2, 1)

    @needs_compiler
    def test_unusable_cache_raises(self, unusable_dir):
        backend = build_backend("cjit", cache_dir=unusable_dir)
        with pytest.raises(KernelCompileError, match="kernel cache"):
            backend.im2col(np.ones((1, 1, 4, 4), np.float32), 4, 2, 1)


@pytest.fixture(scope="module")
def trained_channel(tiny_dataset):
    """A tiny cVAE-GAN trained for a few steps behind the adapter."""
    with use_backend("numpy"):
        model = build_model("cvae_gan", ModelConfig.tiny(),
                            rng=np.random.default_rng(31))
        Trainer(model, tiny_dataset, rng=np.random.default_rng(32),
                max_steps_per_epoch=3).train(epochs=1)
    return GenerativeChannel(model, rng=np.random.default_rng(33))


def _under(label: str):
    """``use_backend("numpy")``, or no switch at all: the default."""
    return use_backend("numpy") if label == "numpy" \
        else contextlib.nullcontext()


class TestDefaultSamplingMatchesNumpy:
    """Sampling and the ECC campaigns over a trained generative channel
    return the numpy backend's voltages and frame records bit for bit."""

    def test_read_repeated(self, trained_channel):
        blocks = np.random.default_rng(6).integers(0, 8, (3, 16, 16))
        reads = {}
        for label in ("numpy", "default"):
            with _under(label):
                reads[label] = trained_channel.read_repeated(
                    blocks, 7000, num_samples=2,
                    rng=np.random.default_rng(7))
        np.testing.assert_array_equal(reads["default"], reads["numpy"])

    def test_bch_and_ldpc_campaigns(self, trained_channel):
        bch = BCHCode(m=6, t=4)
        ldpc = LDPCCode.regular(n=96, column_weight=3, row_weight=6,
                                rng=np.random.default_rng(1))
        records = {}
        for label in ("numpy", "default"):
            trained_channel.cache.clear()
            with _under(label):
                records[label] = [
                    evaluate(code, trained_channel, 10000, num_codewords=16,
                             group_size=8, seed=3, executor="serial")
                    .frame_records
                    for evaluate, code in ((evaluate_bch_over_channel, bch),
                                           (evaluate_ldpc_over_channel,
                                            ldpc))]
        for got, want in zip(records["default"], records["numpy"]):
            np.testing.assert_array_equal(got, want)
