"""The compiled-kernel array backend (``register_backend("cjit")``).

``CJitBackend`` routes the hot kernels of :class:`repro.nn.backend
.NumpyBackend` — the conv im2col/col2im lowering, the in-place Adam
update, the single-pass ``leaky_relu``, the BatchNorm input gradient and
the LDPC min-sum decoder — through C functions rendered by
:mod:`repro.nn.cjit.render`, compiled once per (kernel, shape constants,
dtype) by :mod:`repro.nn.cjit.compiler`, and persisted across processes in
the per-user kernel cache (:class:`repro.artifacts.kernels.KernelCache`).
It is the process default wherever a C compiler is found
(:func:`default_backend`).

The conv lowering compiles one kernel per window and plane shape: the
plane count is the only runtime extent, so one object serves a layer at
every batch size, and a shape the warm set
(:func:`repro.nn.cjit.render.standard_kernel_specs`) lacks compiles on
first use.  A warm call costs one dict lookup under a plain
``(op, dtype, *shape)`` tuple and a ctypes call with integer array
addresses: most calls of a training step are on small arrays, where this
marshaling, not the C loop, is the price.

Fallback is per-operation and silent only when legitimate: with no C
compiler on the host every kernel is the inherited NumPy one (the whole
pipeline keeps working, just slower); unsupported dtypes and
non-contiguous in-place targets fall back per call.  A kernel that cannot
be built — a failing compile, an unloadable object, a cache directory that
cannot be written — raises :class:`repro.nn.cjit.compiler
.KernelCompileError` from an explicitly built backend, with the compiler
stderr attached: a poisoned kernel is a bug, not a slow path.  The process
default must not fail for an environmental reason, so it warns once and
runs the NumPy kernels from then on.

``matmul`` stays on NumPy's BLAS: it is both the parity reference and
faster than any portable C loop.  Every compiled kernel is bit-identical
to its NumPy one, and loss values are NumPy reductions on every backend
(:mod:`repro.nn.losses`), so a training step reads the same weights and
loss values on cjit as on numpy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import warnings

import numpy as np

from repro.nn import backend as _base
from repro.nn.backend import ArrayBackend, NumpyBackend, profiled_kernel
from repro.nn.cjit.compiler import (
    KernelCompileError,
    build_target,
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
    ldpc_min_sum_spec,
    render_kernel,
    standard_kernel_specs,
    update_spec,
)

__all__ = ["CJitBackend", "default_backend", "kernel_cache_key"]

_DTYPE_NAMES = {np.dtype(np.float32): "float32",
                np.dtype(np.float64): "float64"}

#: Spec constructor per op, called as ``_SPECS[op](op, dtype, *shape)``.
_SPECS = {
    **dict.fromkeys(("im2col", "col2im"), conv_spec),
    "adam_update": update_spec,
    "leaky_relu": elementwise_spec,
    "bn_bwd_dx": lambda op, dtype: bn_bwd_dx_spec(dtype),
    "ldpc_min_sum": lambda op, dtype: ldpc_min_sum_spec(dtype),
}


def kernel_cache_key(source: str, compiler_tag: str, platform: str,
                     target_tag: str) -> str:
    """Cache key of one rendered kernel: SHA-256 over platform, compiler
    version, build target (flags and the instruction set they resolve to)
    and source — any of the four changing is a different object."""
    digest = hashlib.sha256()
    for part in (platform, compiler_tag, target_tag, source):
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:32]


def _addr(array: np.ndarray) -> int:
    """Base address of a C-contiguous array, for a ``c_void_p`` argument.

    Reading it through the buffer protocol costs about half of
    ``array.ctypes.data``; read-only and empty arrays export no writable
    buffer and take that slower route.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError):
        return array.ctypes.data


class CJitBackend(NumpyBackend):
    """NumPy backend with JIT-compiled C kernels behind the hot ops."""

    name = "cjit"

    def __init__(self, cache_dir: str | os.PathLike | None = None):
        super().__init__()
        from repro.artifacts.kernels import KernelCache

        self.compiler = find_compiler()
        self.cache = KernelCache(cache_dir)
        #: Loaded kernels by ``(op, dtype, *shape)``; a ctypes function
        #: keeps its library mapped.
        self._functions: dict[tuple, object] = {}
        self.compiled = 0
        self.fallbacks = 0

    # ------------------------------------------------------------------ #
    # Kernel materialisation: render -> cache -> compile -> dlopen
    # ------------------------------------------------------------------ #
    def available(self) -> bool:
        """Whether compiled kernels are actually in play on this host."""
        return self.compiler is not None

    def _build(self, key: tuple):
        """Load the kernel of a memo miss; ``None`` when none can run here.

        ``key`` is ``(op, dtype, *shape)``.  ``None`` means an unsupported
        dtype or no compiler: the caller runs the NumPy kernel.  Failing to
        build a kernel raises :class:`KernelCompileError`, cache I/O errors
        included.
        """
        op, dtype, *shape = key
        dtype_name = _DTYPE_NAMES.get(dtype)
        if dtype_name is None or self.compiler is None:
            return None
        spec = _SPECS[op](op, dtype_name, *shape)
        try:
            library = self._library(spec)
        except OSError as error:
            raise KernelCompileError(
                f"cannot build kernel {spec.symbol} in the kernel cache "
                f"{self.cache.directory}: {error}") from error
        fn = self._functions[key] = spec.configure(library)
        return fn

    def _library(self, spec: KernelSpec) -> ctypes.CDLL:
        """The loaded library of ``spec``, compiling it on a cache miss.

        Warm path: the on-disk cache (hash-verified, no compiler
        invocation).  Cold path: compile into the cache.  A cached object
        that passes hash verification but fails to ``dlopen`` is treated as
        corrupted — evicted and recompiled once.
        """
        source = render_kernel(spec)
        source_sha = hashlib.sha256(source.encode()).hexdigest()
        key = kernel_cache_key(source, self.compiler.tag, platform_tag(),
                               build_target(self.compiler).tag)
        path = self.cache.lookup(key, source_sha256=source_sha)
        if path is None:
            path = self._compile_entry(spec, source, source_sha, key)
        try:
            return load_library(path)
        except KernelCompileError:
            # Hash-valid but unloadable (e.g. cached on an incompatible
            # toolchain): evict and rebuild once; a second failure is real.
            self.cache.evict(key)
            return load_library(
                self._compile_entry(spec, source, source_sha, key))

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
            key = (spec.op, np.dtype(spec.dtype),
                   *(value for _, value in spec.params))
            if key not in self._functions:
                self._build(key)
        return len(specs)

    # ------------------------------------------------------------------ #
    # Convolution lowering
    # ------------------------------------------------------------------ #
    @profiled_kernel("im2col")
    def im2col(self, x: np.ndarray, kernel: int, stride: int, padding: int,
               scratch: bool = False) -> np.ndarray:
        batch, channels, height, width = x.shape
        out_h = _base._conv_out(height, kernel, stride, padding)
        out_w = _base._conv_out(width, kernel, stride, padding)
        fn = None
        # An empty output (a plane smaller than the window) has no kernel.
        if out_h > 0 and out_w > 0:
            key = ("im2col", x.dtype, kernel, stride, padding, height, width)
            fn = self._functions.get(key) or self._build(key)
        if fn is None:
            self.fallbacks += 1
            return super().im2col(x, kernel, stride, padding, scratch=scratch)
        x = np.ascontiguousarray(x)
        # The kernel writes (N, C, K, K, H_out, W_out) order, which is this
        # shape's memory layout.
        shape = (batch, channels * kernel * kernel, out_h * out_w)
        cols = self.scratch_out(shape, x.dtype) if scratch \
            else np.empty(shape, dtype=x.dtype)
        if fn(_addr(x), _addr(cols), batch * channels):
            raise MemoryError("im2col: cannot allocate the scratch plane")
        return cols

    @profiled_kernel("col2im")
    def col2im(self, cols: np.ndarray,
               input_shape: tuple[int, int, int, int],
               kernel: int, stride: int, padding: int) -> np.ndarray:
        batch, channels, height, width = input_shape
        out_h = _base._conv_out(height, kernel, stride, padding)
        out_w = _base._conv_out(width, kernel, stride, padding)
        fn = None
        if out_h > 0 and out_w > 0:
            key = ("col2im", cols.dtype, kernel, stride, padding, height,
                   width)
            fn = self._functions.get(key) or self._build(key)
        if fn is None:
            self.fallbacks += 1
            return super().col2im(cols, input_shape, kernel, stride, padding)
        if cols.size != batch * channels * kernel * kernel * out_h * out_w:
            raise ValueError(f"col2im: {cols.shape} columns do not match "
                             f"input shape {input_shape}")
        cols = np.ascontiguousarray(cols)
        # The kernel writes every element, the ones no window reaches too.
        result = np.empty(input_shape, dtype=cols.dtype)
        if fn(_addr(cols), _addr(result), batch * channels):
            raise MemoryError("col2im: cannot allocate the scratch plane")
        return result

    # ------------------------------------------------------------------ #
    # Elementwise
    # ------------------------------------------------------------------ #
    @profiled_kernel("leaky_relu")
    def leaky_relu(self, x: np.ndarray, negative_slope: float) -> np.ndarray:
        key = ("leaky_relu", x.dtype)
        fn = self._functions.get(key) or self._build(key)
        if fn is None:
            self.fallbacks += 1
            return super().leaky_relu(x, negative_slope)
        x = np.ascontiguousarray(x)
        out = np.empty_like(x)
        fn(_addr(x), _addr(out), x.size, float(negative_slope))
        return out

    # ------------------------------------------------------------------ #
    # Train-mode BatchNorm backward
    # ------------------------------------------------------------------ #
    @profiled_kernel("bn_bwd_dx")
    def bn_bwd_dx(self, grad: np.ndarray, x: np.ndarray, s1: np.ndarray,
                  s2: np.ndarray, s3: np.ndarray) -> np.ndarray:
        """Compiled train-mode BatchNorm input gradient (one pass)."""
        key = ("bn_bwd_dx", grad.dtype)
        fn = None
        if grad.ndim == 4 and all(a.dtype == grad.dtype
                                  for a in (x, s1, s2, s3)):
            fn = self._functions.get(key) or self._build(key)
        if fn is None:
            self.fallbacks += 1
            return super().bn_bwd_dx(grad, x, s1, s2, s3)
        g = np.ascontiguousarray(grad)
        xc = np.ascontiguousarray(x)
        s1c = np.ascontiguousarray(s1)
        s2c = np.ascontiguousarray(s2)
        s3c = np.ascontiguousarray(s3)
        out = np.empty_like(g)
        fn(_addr(g), _addr(xc), _addr(out), g.size, g.shape[1],
           g.shape[2] * g.shape[3], _addr(s1c), _addr(s2c), _addr(s3c))
        return out

    # ------------------------------------------------------------------ #
    # In-place parameter update (bit-identical to the NumPy sequence)
    # ------------------------------------------------------------------ #
    @profiled_kernel("adam_update")
    def adam_update(self, param: np.ndarray, grad: np.ndarray,
                    m: np.ndarray, v: np.ndarray, lr: float,
                    beta1: float, beta2: float, eps: float,
                    bias_correction1: float, bias_correction2: float) -> None:
        key = ("adam_update", param.dtype)
        fn = None
        if all(a.dtype == param.dtype for a in (grad, m, v)) and all(
                buffer.flags["C_CONTIGUOUS"] for buffer in (param, m, v)):
            fn = self._functions.get(key) or self._build(key)
        if fn is None:
            self.fallbacks += 1
            return super().adam_update(param, grad, m, v, lr, beta1, beta2,
                                       eps, bias_correction1,
                                       bias_correction2)
        grad = np.ascontiguousarray(grad)
        fn(_addr(param), _addr(grad), _addr(m), _addr(v), param.size,
           float(lr), float(beta1), float(beta2), float(eps),
           float(bias_correction1), float(bias_correction2))

    # ------------------------------------------------------------------ #
    # LDPC decoding (bit-identical to the NumPy loop)
    # ------------------------------------------------------------------ #
    @profiled_kernel("ldpc_min_sum")
    def ldpc_min_sum(self, llrs: np.ndarray, check_edges: np.ndarray,
                     check_variables: np.ndarray, variable_edges: np.ndarray,
                     max_iterations: int, scale: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compiled min-sum decoding: one C call for the whole batch, its
        codewords decoded in lockstep groups, one per SIMD lane
        (:meth:`ldpc_lanes`)."""
        key = ("ldpc_min_sum", llrs.dtype)
        fn = None
        if llrs.dtype == np.float64:
            fn = self._functions.get(key) or self._build(key)
        if fn is None:
            self.fallbacks += 1
            return super().ldpc_min_sum(llrs, check_edges, check_variables,
                                        variable_edges, max_iterations,
                                        scale)
        batch, n = llrs.shape
        _base._tanner_edge_count(n, check_edges, check_variables,
                                 variable_edges)
        checks, width = check_edges.shape
        llrs = np.ascontiguousarray(llrs)
        check_edges, check_variables, variable_edges = (
            np.ascontiguousarray(index, dtype=np.int64)
            for index in (check_edges, check_variables, variable_edges))
        codewords = np.empty((batch, n), dtype=np.int64)
        iterations = np.empty(batch, dtype=np.int64)
        success = np.empty(batch, dtype=bool)
        if not fn(_addr(llrs), batch, n, checks, width, _addr(check_edges),
                  _addr(check_variables), variable_edges.shape[1],
                  _addr(variable_edges), max_iterations, float(scale),
                  _addr(codewords), _addr(iterations), _addr(success)):
            raise MemoryError("ldpc_min_sum: cannot allocate the lane "
                              "scratch")
        return codewords, iterations, success

    def ldpc_lanes(self) -> int | None:
        """Codewords the compiled LDPC kernel decodes at once: the build
        target's double-vector width (8 under AVX-512, 4 under AVX, else
        2), or ``None`` when no compiled kernel runs here."""
        key = ("ldpc_min_sum", np.dtype(np.float64))
        fn = self._functions.get(key) or self._build(key)
        if fn is None:
            return None
        # An empty batch decodes nothing and returns the lane count.
        return fn(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.0, 0, 0, 0)


class _DefaultCJitBackend(CJitBackend):
    """The process-default cjit: a kernel that cannot be built switches
    this instance to the NumPy kernels, after one warning.

    A default must not fail for an environmental reason (an unwritable
    cache, a broken toolchain), and every compiled kernel is a drop-in for
    its NumPy one.  Build the backend explicitly (``use_backend("cjit")``)
    to have such failures raise instead.
    """

    def _build(self, key: tuple):
        try:
            return super()._build(key)
        except KernelCompileError as error:
            self.compiler = None
            self._functions.clear()
            warnings.warn(f"compiled kernels are unavailable, running the "
                          f"NumPy kernels instead: {error}", RuntimeWarning)
            return None


def default_backend() -> ArrayBackend:
    """A new process-default backend: cjit when :func:`find_compiler`
    finds a C compiler, :class:`NumpyBackend` otherwise."""
    if find_compiler() is None:
        return NumpyBackend()
    return _DefaultCJitBackend()
