"""The compiled-kernel array backend (``register_backend("cjit")``).

``CJitBackend`` routes the hot kernels of :class:`repro.nn.backend
.NumpyBackend` — the conv im2col/col2im lowering, the fused loss
reductions, the in-place optimizer updates and the single-pass
``leaky_relu`` — through C functions rendered by
:mod:`repro.nn.cjit.render`, compiled once per (kernel, window shape,
dtype) by :mod:`repro.nn.cjit.compiler`, and persisted across processes in
the artifact-store kernel cache (:class:`repro.artifacts.kernels
.KernelCache`).

Fallback is per-operation and silent only when legitimate: with no C
compiler on the host every kernel is the inherited NumPy one (the whole
pipeline keeps working, just slower); unsupported dtypes and
non-contiguous in-place targets fall back per call.  A *failing* compile,
by contrast, raises :class:`repro.nn.cjit.compiler.KernelCompileError`
with the compiler stderr attached — a poisoned kernel is a bug, not a
slow path.

``matmul`` stays on NumPy's BLAS: it is both the parity reference and
faster than any portable C loop.
"""

from __future__ import annotations

import ctypes
import hashlib
import os

import numpy as np

from repro.nn import backend as _base
from repro.nn.backend import NumpyBackend, profiled_kernel
from repro.nn.cjit.compiler import (
    KernelCompileError,
    compile_source,
    find_compiler,
    load_library,
    platform_tag,
)
from repro.nn.cjit.render import (
    SUPPORTED_DTYPES,
    KernelSpec,
    bn_bwd_dx_spec,
    conv_spec,
    elementwise_spec,
    reduce_spec,
    render_kernel,
    standard_kernel_specs,
    update_spec,
)

__all__ = ["CJitBackend", "kernel_cache_key"]

_DTYPE_NAMES = {np.dtype(np.float32): "float32",
                np.dtype(np.float64): "float64"}


def kernel_cache_key(source: str, compiler_tag: str, platform: str) -> str:
    """Cache key of one rendered kernel: SHA-256 over platform, compiler
    version and source — any of the three changing is a different object."""
    digest = hashlib.sha256()
    for part in (platform, compiler_tag, source):
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:32]


def _ptr(array: np.ndarray):
    ctype = ctypes.c_float if array.dtype == np.float32 else ctypes.c_double
    return array.ctypes.data_as(ctypes.POINTER(ctype))


class CJitBackend(NumpyBackend):
    """NumPy backend with JIT-compiled C kernels behind the hot ops."""

    name = "cjit"

    def __init__(self, cache_dir: str | os.PathLike | None = None,
                 require_compiler: bool = False):
        super().__init__()
        from repro.artifacts.kernels import KernelCache

        self.compiler = find_compiler()
        if require_compiler and self.compiler is None:
            raise RuntimeError(
                "cjit backend requires a C compiler (cc/clang/gcc) on PATH "
                "and none was found")
        self.cache = KernelCache(cache_dir)
        self._functions: dict[str, object] = {}
        self._libraries: dict[str, ctypes.CDLL] = {}
        self.compiled = 0
        self.fallbacks = 0

    # ------------------------------------------------------------------ #
    # Kernel materialisation: render -> cache -> compile -> dlopen
    # ------------------------------------------------------------------ #
    def available(self) -> bool:
        """Whether compiled kernels are actually in play on this host."""
        return self.compiler is not None

    def _kernel(self, spec: KernelSpec):
        """The ctypes function for ``spec``, or ``None`` without a compiler.

        Warm path: in-process memo, then the on-disk cache (hash-verified,
        no compiler invocation).  Cold path: compile into the cache.  A
        cached object that passes hash verification but fails to ``dlopen``
        is treated as corrupted — evicted and recompiled once.
        """
        fn = self._functions.get(spec.symbol)
        if fn is not None:
            return fn
        if self.compiler is None:
            return None
        source = render_kernel(spec)
        source_sha = hashlib.sha256(source.encode()).hexdigest()
        key = kernel_cache_key(source, self.compiler.tag, platform_tag())
        path = self.cache.lookup(key, source_sha256=source_sha)
        if path is None:
            path = self._compile_entry(spec, source, source_sha, key)
        try:
            library = load_library(path)
        except KernelCompileError:
            # Hash-valid but unloadable (e.g. cached on an incompatible
            # toolchain): evict and rebuild once; a second failure is real.
            self.cache.evict(key)
            library = load_library(
                self._compile_entry(spec, source, source_sha, key))
        self._libraries[spec.symbol] = library
        fn = spec.configure(library)
        self._functions[spec.symbol] = fn
        return fn

    def _compile_entry(self, spec: KernelSpec, source: str, source_sha: str,
                       key: str):
        target = self.cache.object_path(key)
        # Compiles are the dominant cold-start cost; with profiling on they
        # land in the ``nn.phase.cjit_compile`` histogram (the phase channel
        # — a compile can trigger mid-kernel, inside a timed region).
        profiler = _base.KERNEL_PROFILER
        token = profiler.phase_enter() if profiler is not None else None
        try:
            compile_source(source, target, self.compiler)
        finally:
            if token is not None:
                profiler.phase_exit("cjit_compile", token)
        self.compiled += 1
        return self.cache.store(key, target, source_sha256=source_sha,
                                symbol=spec.symbol,
                                compiler=self.compiler.tag,
                                platform=platform_tag())

    def warm(self, dtypes=SUPPORTED_DTYPES) -> int:
        """Pre-compile the standard kernel set; returns the kernel count.

        Raises when no compiler is present — warming is an explicit
        request for compiled kernels, unlike the per-op fallback.
        """
        if self.compiler is None:
            raise RuntimeError("cannot warm the kernel cache: no C compiler "
                               "(cc/clang/gcc) on PATH")
        specs = standard_kernel_specs(dtypes)
        for spec in specs:
            self._kernel(spec)
        return len(specs)

    def _dtype_name(self, *arrays: np.ndarray) -> str | None:
        name = _DTYPE_NAMES.get(arrays[0].dtype)
        if name is None or any(a.dtype != arrays[0].dtype
                               for a in arrays[1:]):
            return None
        return name

    # ------------------------------------------------------------------ #
    # Convolution lowering
    # ------------------------------------------------------------------ #
    @profiled_kernel("im2col")
    def im2col(self, x: np.ndarray, kernel: int, stride: int, padding: int,
               scratch: bool = False) -> np.ndarray:
        dtype = self._dtype_name(x)
        fn = self._kernel(conv_spec("im2col", dtype, kernel, stride,
                                    padding)) if dtype else None
        if fn is None:
            self.fallbacks += 1
            return super().im2col(x, kernel, stride, padding, scratch=scratch)
        batch, channels, height, width = x.shape
        out_h = (height + 2 * padding - kernel) // stride + 1
        out_w = (width + 2 * padding - kernel) // stride + 1
        x = np.ascontiguousarray(x)
        shape = (batch, channels, kernel, kernel, out_h, out_w)
        cols = self.scratch_out(shape, x.dtype) if scratch \
            else np.empty(shape, dtype=x.dtype)
        fn(_ptr(x), _ptr(cols), batch, channels, height, width, out_h, out_w)
        return cols.reshape(batch, channels * kernel * kernel, out_h * out_w)

    @profiled_kernel("col2im")
    def col2im(self, cols: np.ndarray,
               input_shape: tuple[int, int, int, int],
               kernel: int, stride: int, padding: int) -> np.ndarray:
        dtype = self._dtype_name(cols)
        fn = self._kernel(conv_spec("col2im", dtype, kernel, stride,
                                    padding)) if dtype else None
        if fn is None:
            self.fallbacks += 1
            return super().col2im(cols, input_shape, kernel, stride, padding)
        batch, channels, height, width = input_shape
        out_h = (height + 2 * padding - kernel) // stride + 1
        out_w = (width + 2 * padding - kernel) // stride + 1
        cols = np.ascontiguousarray(cols)
        result = np.zeros(input_shape, dtype=cols.dtype)
        fn(_ptr(cols), _ptr(result), batch, channels, height, width,
           out_h, out_w)
        return result

    # ------------------------------------------------------------------ #
    # Elementwise
    # ------------------------------------------------------------------ #
    @profiled_kernel("leaky_relu")
    def leaky_relu(self, x: np.ndarray, negative_slope: float) -> np.ndarray:
        dtype = self._dtype_name(x)
        fn = self._kernel(elementwise_spec("leaky_relu", dtype)) \
            if dtype else None
        if fn is None:
            self.fallbacks += 1
            return super().leaky_relu(x, negative_slope)
        x = np.ascontiguousarray(x)
        out = np.empty_like(x)
        fn(_ptr(x), _ptr(out), x.size, float(negative_slope))
        return out

    # ------------------------------------------------------------------ #
    # Train-mode BatchNorm backward
    # ------------------------------------------------------------------ #
    @profiled_kernel("bn_bwd_dx")
    def bn_bwd_dx(self, grad: np.ndarray, x: np.ndarray, s1: np.ndarray,
                  s2: np.ndarray, s3: np.ndarray) -> np.ndarray:
        """Compiled train-mode BatchNorm input gradient (one pass)."""
        dtype = self._dtype_name(grad, x, s1, s2, s3)
        fn = self._kernel(bn_bwd_dx_spec(dtype)) \
            if dtype is not None and grad.ndim == 4 else None
        if fn is None:
            self.fallbacks += 1
            return super().bn_bwd_dx(grad, x, s1, s2, s3)
        g = np.ascontiguousarray(grad)
        xc = np.ascontiguousarray(x)
        s1c = np.ascontiguousarray(s1)
        s2c = np.ascontiguousarray(s2)
        s3c = np.ascontiguousarray(s3)
        out = np.empty_like(g)
        fn(_ptr(g), _ptr(xc), _ptr(out), g.size, g.shape[1],
           g.shape[2] * g.shape[3], _ptr(s1c), _ptr(s2c), _ptr(s3c))
        return out

    # ------------------------------------------------------------------ #
    # Fused elementwise + reduction kernels (float64 accumulation)
    # ------------------------------------------------------------------ #
    def _reduce(self, op: str, array: np.ndarray, *extra):
        dtype = self._dtype_name(array)
        fn = self._kernel(reduce_spec(op, dtype)) if dtype else None
        if fn is None:
            self.fallbacks += 1
            return None
        flat = np.ascontiguousarray(array)
        return float(fn(_ptr(flat), flat.size, *extra))

    def sum_squares(self, array: np.ndarray) -> float:
        total = self._reduce("sum_squares", array)
        if total is None:
            return super().sum_squares(array)
        return total

    def mean_abs(self, array: np.ndarray) -> float:
        total = self._reduce("abs_sum", array)
        if total is None:
            return super().mean_abs(array)
        return total / array.size

    def bce_logits(self, logits: np.ndarray, target: float) -> float:
        total = self._reduce("bce_logits", logits, float(target))
        if total is None:
            return super().bce_logits(logits, target)
        return total / logits.size

    def gaussian_kl(self, mu: np.ndarray, logvar: np.ndarray) -> float:
        dtype = self._dtype_name(mu, logvar)
        fn = self._kernel(reduce_spec("gaussian_kl", dtype)) if dtype else None
        if fn is None:
            self.fallbacks += 1
            return super().gaussian_kl(mu, logvar)
        mu_c = np.ascontiguousarray(mu)
        lv_c = np.ascontiguousarray(logvar)
        total = float(fn(_ptr(mu_c), _ptr(lv_c), mu_c.size))
        return -0.5 * total / mu.shape[0]

    # ------------------------------------------------------------------ #
    # In-place parameter updates (bit-identical to the NumPy sequence)
    # ------------------------------------------------------------------ #
    @profiled_kernel("sgd_update")
    def sgd_update(self, param: np.ndarray, grad: np.ndarray,
                   velocity: np.ndarray | None, lr: float, momentum: float,
                   weight_decay: float) -> None:
        dtype = self._dtype_name(param, grad,
                                 *([velocity] if velocity is not None else []))
        fn = self._kernel(update_spec("sgd_update", dtype)) if dtype else None
        if fn is None or not param.flags["C_CONTIGUOUS"] or (
                velocity is not None
                and not velocity.flags["C_CONTIGUOUS"]):
            self.fallbacks += 1
            return super().sgd_update(param, grad, velocity, lr, momentum,
                                      weight_decay)
        grad = np.ascontiguousarray(grad)
        fn(_ptr(param), _ptr(grad),
           _ptr(velocity) if velocity is not None else None,
           param.size, float(lr), float(momentum), float(weight_decay),
           1 if velocity is not None else 0)

    @profiled_kernel("adam_update")
    def adam_update(self, param: np.ndarray, grad: np.ndarray,
                    m: np.ndarray, v: np.ndarray, lr: float,
                    beta1: float, beta2: float, eps: float,
                    bias_correction1: float, bias_correction2: float,
                    weight_decay: float) -> None:
        dtype = self._dtype_name(param, grad, m, v)
        fn = self._kernel(update_spec("adam_update", dtype)) if dtype else None
        if fn is None or not all(buffer.flags["C_CONTIGUOUS"]
                                 for buffer in (param, m, v)):
            self.fallbacks += 1
            return super().adam_update(param, grad, m, v, lr, beta1, beta2,
                                       eps, bias_correction1,
                                       bias_correction2, weight_decay)
        grad = np.ascontiguousarray(grad)
        fn(_ptr(param), _ptr(grad), _ptr(m), _ptr(v), param.size,
           float(lr), float(beta1), float(beta2), float(eps),
           float(bias_correction1), float(bias_correction2),
           float(weight_decay))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, object]:
        """Compile/cache counters plus the cache's own entry stats.

        The numeric counters are read back through the unified obs metrics
        registry (``nn.cjit.*`` gauges, see
        :func:`repro.obs.metrics.backend_registry`); the dict shape is the
        legacy surface kept for the CLI and benchmarks.
        """
        from repro.obs.metrics import backend_registry

        snapshot = backend_registry(self).snapshot()
        return {
            "compiler": self.compiler.version if self.compiler else None,
            "kernels_loaded": len(self._functions),
            "compiled": int(snapshot["nn.cjit.compiled"]["value"]),
            "fallbacks": int(snapshot["nn.cjit.fallbacks"]["value"]),
            "cache": {key: int(snapshot[f"nn.cjit.cache.{key}"]["value"])
                      for key in self.cache.stats()},
        }
