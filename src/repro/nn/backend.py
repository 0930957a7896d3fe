"""Swappable, dtype-aware array-kernel backend for the autograd engine.

The hot array operations of :mod:`repro.nn` — the conv im2col/col2im
lowering and its BLAS matmuls, ``leaky_relu``, the train-mode BatchNorm
backward and the in-place Adam update — are routed through one backend
object, and so is the hot loop of the ECC campaigns, the LDPC normalised
min-sum decoder (:meth:`ArrayBackend.ldpc_min_sum`, called by
:meth:`repro.ecc.LDPCCode.decode_min_sum_batch`).  A method belongs here
when a backend compiles it or the kernel profiler times it; everything
else (the other activations, the loss values of :mod:`repro.nn.losses`)
calls NumPy directly.  The indirection has two purposes:

* **precision**: every kernel preserves the dtype of the arrays it is handed
  (float32 stays float32 end to end);
* **pluggability**: an accelerated port (MKL, CuPy, a C extension) registers
  a subclass under a name and the whole train → sample → sweep pipeline uses
  it, mirroring ``build_channel`` / ``build_executor``.

The process default is resolved on the first :func:`get_backend` call:
the compiled-kernel :class:`repro.nn.cjit.CJitBackend` when a C compiler is
found, :class:`NumpyBackend` otherwise.  The two train (loss values
included), sample and decode bit-identically; cjit is the faster one, and
a default cjit that cannot build a kernel (no writable cache, a broken
toolchain) warns once and runs the NumPy kernels.  :class:`NumpyBackend`
stays the fallback and the conformance reference; ``use_backend("numpy")``
opts out.

:class:`NumpyBackend` additionally owns a :class:`BufferArena` of
pre-allocated, thread-local scratch buffers: graph-free forward passes
(``no_grad`` inference, the generative channel's batched sampling) reuse the
same im2col column buffers call after call instead of re-allocating the
largest arrays of the pipeline on every layer.

Usage mirrors the channel registry::

    from repro.nn import backend
    backend.get_backend()              # current backend ("cjit" or "numpy")
    with backend.use_backend("numpy"):
        ...                            # this thread, this block only

    @backend.register_backend("mykernels")
    class MyBackend(backend.NumpyBackend):
        def matmul(self, a, b, out=None): ...
"""

from __future__ import annotations

import contextlib
import functools
import threading

import numpy as np

__all__ = [
    "BufferArena",
    "ArrayBackend",
    "NumpyBackend",
    "ReferenceBackend",
    "BACKEND_REGISTRY",
    "register_backend",
    "build_backend",
    "get_backend",
    "use_backend",
    "KERNEL_PROFILER",
    "LDPC_LLR_LIMIT",
    "LDPC_MESSAGE_CAP",
    "set_kernel_profiler",
    "profiled_kernel",
    "strip_kernel_hooks",
]


#: Kernel-profiling slot filled by :mod:`repro.obs` while tracing is enabled
#: (a :class:`repro.obs.trace.KernelProfiler`).  ``None`` means profiling is
#: off, and the per-kernel hook below is a single global load + ``None``
#: check — the near-zero disabled cost the obs tests pin.  A module global
#: (not per-backend state) so every backend subclass shares one switch
#: without importing :mod:`repro.obs`.
KERNEL_PROFILER = None

#: Largest LLR magnitude LDPC decoding accepts
#: (:meth:`repro.ecc.LDPCCode.decode_min_sum_batch` refuses larger ones).
LDPC_LLR_LIMIT = 1e200

#: Cap on every message magnitude :meth:`ArrayBackend.ldpc_min_sum` sends,
#: so totals never overflow.  A message from LLRs within the limit stays below
#: ``LDPC_LLR_LIMIT * (d_v - 1) ** t`` at iteration ``t``, so the cap changes
#: no result before iteration 332 at column weight 3.
LDPC_MESSAGE_CAP = 1e300


def set_kernel_profiler(profiler):
    """Install (or clear, with ``None``) the kernel profiler.

    Returns the previous profiler so scoped users can restore it.  The
    profiler only needs ``enter() -> token | None`` / ``exit(name, token)``
    (and ``phase_enter``/``phase_exit`` for the cjit compile timings).
    """
    global KERNEL_PROFILER
    previous = KERNEL_PROFILER
    KERNEL_PROFILER = profiler
    return previous


def profiled_kernel(name: str):
    """Wrap a backend kernel with the per-kernel wall-time hook.

    With no profiler installed the wrapper adds one global load and one
    ``None`` check.  With one installed, the outermost kernel call on each
    thread is timed into the active metrics registry's ``nn.kernel.<name>``
    histogram — re-entrant calls (a cjit fallback delegating to the numpy
    base implementation) are deliberately not double-counted.
    """
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            profiler = KERNEL_PROFILER
            if profiler is None:
                return fn(self, *args, **kwargs)
            token = profiler.enter()
            if token is None:
                return fn(self, *args, **kwargs)
            try:
                return fn(self, *args, **kwargs)
            finally:
                profiler.exit(name, token)
        wrapper._profiled_kernel = name
        return wrapper
    return decorator


def strip_kernel_hooks(backend: "ArrayBackend") -> "ArrayBackend":
    """Bind the undecorated kernel implementations onto ``backend``.

    This reconstructs the pre-observability code path (no wrapper frame, no
    profiler check at all) on one instance; the overhead benchmark uses it
    as the baseline the disabled-mode ≤2% gate compares against.
    """
    cls = type(backend)
    for attr in dir(cls):
        fn = getattr(cls, attr, None)
        if callable(fn) and getattr(fn, "_profiled_kernel", None) is not None:
            setattr(backend, attr, fn.__wrapped__.__get__(backend, cls))
    return backend


class BufferArena:
    """Thread-local pool of reusable scratch buffers, keyed by shape+dtype.

    ``scratch`` hands out an *uninitialised* buffer that is only valid until
    the next ``scratch`` request with the same key from the same thread;
    callers must never store a scratch buffer in a result that outlives the
    current forward call (the conv kernels only use it for column matrices
    that die with the call, and only when no backward closure captures
    them).
    """

    def __init__(self, max_buffers: int = 32):
        self.max_buffers = max_buffers
        self._local = threading.local()

    def _pool(self) -> dict:
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = {}
            self._local.hits = 0
            self._local.misses = 0
            self._local.total_bytes = 0
            self._local.peak_bytes = 0
        return pool

    def scratch(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised buffer of the requested shape and dtype."""
        pool = self._pool()
        key = (tuple(shape), np.dtype(dtype))
        buffer = pool.get(key)
        if buffer is None:
            if len(pool) >= self.max_buffers:
                pool.clear()  # simple pressure valve; shapes are few in practice
                self._local.total_bytes = 0
            buffer = pool[key] = np.empty(key[0], dtype=key[1])
            self._local.misses += 1
            self._local.total_bytes += buffer.nbytes
            if self._local.total_bytes > self._local.peak_bytes:
                self._local.peak_bytes = self._local.total_bytes
        else:
            self._local.hits += 1
        return buffer

    def stats(self) -> dict[str, int]:
        pool = self._pool()
        return {
            "buffers": len(pool),
            "bytes": int(sum(b.nbytes for b in pool.values())),
            "peak_bytes": int(self._local.peak_bytes),
            "hits": int(self._local.hits),
            "misses": int(self._local.misses),
        }

    def reset_peak(self) -> None:
        """Restart the peak-bytes high-water mark from the live pool size.

        Benchmarks call this between phases so the reported peak covers
        exactly the measured region (the pool itself persists — recycling
        forward scratch across training steps is the point of the arena).
        """
        self._pool()
        self._local.peak_bytes = self._local.total_bytes

    def clear(self) -> None:
        self._pool().clear()
        self._local.total_bytes = 0


def _conv_out(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


class ArrayBackend:
    """Kernel interface + reference NumPy implementations.

    Subclasses override individual kernels; everything they do not override
    falls back to these straightforward NumPy versions.  All kernels must
    preserve the dtype of their array arguments.
    """

    #: Registry name; subclasses set their own.
    name = "reference"

    def __init__(self):
        self.arena = BufferArena()

    def scratch_out(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An output buffer for a kernel intermediate that dies with the
        current forward call.

        The default policy hands out arena buffers (reused across calls);
        :class:`ReferenceBackend` overrides this with fresh allocations.
        Callers must only use it on graph-free paths — never for arrays a
        backward closure or a tensor's ``data`` would retain.
        """
        return self.arena.scratch(shape, dtype)

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    @profiled_kernel("matmul")
    def matmul(self, a: np.ndarray, b: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        """``np.matmul(a, b, out=out)``.

        A product whose contracted dimension is 1 is an outer product per
        stacked matrix (the innermost conv layers' weight gradients, the
        PatchGAN head's input gradient): NumPy runs it in its non-BLAS
        loop, so it is taken as the broadcast ``np.multiply`` of the
        operands instead.  Each element is the same rounded product either
        way; only a zero product's sign can differ, as the loop adds the
        product to ``+0.0``.
        """
        if a.ndim >= 2 and b.ndim >= 2 and a.shape[-1] == 1 == b.shape[-2]:
            return np.multiply(a, b, out=out)
        return np.matmul(a, b, out=out)

    # ------------------------------------------------------------------ #
    # Convolution lowering
    # ------------------------------------------------------------------ #
    @profiled_kernel("im2col")
    def im2col(self, x: np.ndarray, kernel: int, stride: int, padding: int,
               scratch: bool = False) -> np.ndarray:
        """Lower an NCHW array into ``(N, C*K*K, H_out*W_out)`` columns.

        With ``scratch=True`` the column matrix comes from the arena and is
        only valid until the next same-shaped request — legal only on
        graph-free paths where no backward closure captures it.
        """
        batch, channels, height, width = x.shape
        out_h = _conv_out(height, kernel, stride, padding)
        out_w = _conv_out(width, kernel, stride, padding)
        if padding > 0:
            x = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                           (padding, padding)))
        shape = (batch, channels, kernel, kernel, out_h, out_w)
        if scratch:
            cols = self.scratch_out(shape, x.dtype)
        else:
            cols = np.empty(shape, dtype=x.dtype)
        for i in range(kernel):
            i_end = i + stride * out_h
            for j in range(kernel):
                j_end = j + stride * out_w
                cols[:, :, i, j, :, :] = x[:, :, i:i_end:stride, j:j_end:stride]
        return cols.reshape(batch, channels * kernel * kernel, out_h * out_w)

    @profiled_kernel("col2im")
    def col2im(self, cols: np.ndarray,
               input_shape: tuple[int, int, int, int],
               kernel: int, stride: int, padding: int) -> np.ndarray:
        """Adjoint of :meth:`im2col`: scatter-add columns onto an NCHW grid."""
        batch, channels, height, width = input_shape
        out_h = _conv_out(height, kernel, stride, padding)
        out_w = _conv_out(width, kernel, stride, padding)
        cols = cols.reshape(batch, channels, kernel, kernel, out_h, out_w)
        result = np.zeros((batch, channels, height + 2 * padding,
                           width + 2 * padding), dtype=cols.dtype)
        for i in range(kernel):
            i_end = i + stride * out_h
            for j in range(kernel):
                j_end = j + stride * out_w
                result[:, :, i:i_end:stride, j:j_end:stride] += \
                    cols[:, :, i, j, :, :]
        if padding > 0:
            result = result[:, :, padding:-padding, padding:-padding]
        return result

    # ------------------------------------------------------------------ #
    # Elementwise activation (dtype preserving)
    # ------------------------------------------------------------------ #
    def leaky_relu(self, x: np.ndarray, negative_slope: float) -> np.ndarray:
        return np.where(x > 0, x, x * negative_slope)

    # ------------------------------------------------------------------ #
    # BatchNorm backward (closed form)
    # ------------------------------------------------------------------ #
    @profiled_kernel("bn_bwd_reductions")
    def bn_bwd_reductions(self, grad: np.ndarray, x: np.ndarray,
                          mean: np.ndarray,
                          invstd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-channel ``Σg`` and ``Σg·x̂`` of a BatchNorm backward, with
        ``x̂ = (x - mean) * invstd`` (the batch statistics in train mode,
        the running ones in eval mode).

        The normalized input ``x̂`` is rebuilt into one arena scratch
        buffer (backward never saved it).  The
        sums stay NumPy pairwise reductions on *every* backend: compiled
        ports must not override them, or the numpy-vs-cjit bit-identity
        contract on weight gradients breaks (C sequential sums round
        differently).
        """
        channel_shape = (1, -1, 1, 1)
        buf = self.scratch_out(x.shape, x.dtype)
        np.subtract(x, mean.reshape(channel_shape), out=buf)
        np.multiply(buf, invstd.reshape(channel_shape), out=buf)
        np.multiply(buf, grad, out=buf)
        sum_g = grad.sum(axis=(0, 2, 3))
        sum_gx = buf.sum(axis=(0, 2, 3))
        return sum_g, sum_gx

    @profiled_kernel("bn_bwd_dx")
    def bn_bwd_dx(self, grad: np.ndarray, x: np.ndarray, s1: np.ndarray,
                  s2: np.ndarray, s3: np.ndarray) -> np.ndarray:
        """Train-mode BatchNorm input gradient ``g·s1 + x·s2 + s3``.

        ``s1``/``s2``/``s3`` are the per-channel coefficients of the
        closed-form backward (see :class:`~repro.nn.layers.BatchNorm2d`);
        the element order is fixed — two multiplies, then two adds — so a
        compiled override stays bit-identical.
        """
        channel_shape = (1, -1, 1, 1)
        out = grad * s1.reshape(channel_shape)
        term = self.scratch_out(x.shape, x.dtype)
        np.multiply(x, s2.reshape(channel_shape), out=term)
        np.add(out, term, out=out)
        np.add(out, s3.reshape(channel_shape), out=out)
        return out

    # ------------------------------------------------------------------ #
    # In-place parameter update
    # ------------------------------------------------------------------ #
    @profiled_kernel("adam_update")
    def adam_update(self, param: np.ndarray, grad: np.ndarray,
                    m: np.ndarray, v: np.ndarray, lr: float,
                    beta1: float, beta2: float, eps: float,
                    bias_correction1: float, bias_correction2: float) -> None:
        """One in-place Adam step; the moment buffers are updated in place."""
        m *= beta1
        m += (1 - beta1) * grad
        v *= beta2
        v += (1 - beta2) * grad * grad
        m_hat = m / bias_correction1
        v_hat = v / bias_correction2
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)

    # ------------------------------------------------------------------ #
    # LDPC decoding (normalised min-sum on the Tanner graph's edges)
    # ------------------------------------------------------------------ #
    @profiled_kernel("ldpc_min_sum")
    def ldpc_min_sum(self, llrs: np.ndarray, check_edges: np.ndarray,
                     check_variables: np.ndarray, variable_edges: np.ndarray,
                     max_iterations: int, scale: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Normalised min-sum decoding of a ``(B, n)`` batch of finite LLRs,
        message magnitudes capped at :data:`LDPC_MESSAGE_CAP`.

        The Tanner graph's ``E`` edges arrive as three padded indexes:
        ``check_edges`` lists each check's edge ids (padded with ``E``),
        ``check_variables`` the variable of each of those edges (padded
        with ``n``), and ``variable_edges`` each variable's edge ids in
        ascending check order (padded with ``E``).  Check-to-variable
        messages live in one ``(B, E + 1)`` array whose last slot is the
        zero every padded slot reads.  Codewords that converge drop out of
        the working set, so each row's result depends on that row alone.

        Returns the hard decisions ``(B, n)`` int64, the iterations run
        ``(B,)`` int64 and the converged flags ``(B,)`` bool.  An index of
        the wrong shape or with an entry out of range raises
        :class:`ValueError`.
        """
        batch, n = llrs.shape
        num_edges = _tanner_edge_count(n, check_edges, check_variables,
                                       variable_edges)
        mask = check_variables < n
        variables = np.minimum(check_variables, n - 1)
        degrees = mask.sum(axis=1)
        positions = np.arange(check_edges.shape[1])

        codewords = (llrs < 0).astype(np.int64)
        iterations = np.zeros(batch, dtype=np.int64)
        success = ~_tanner_syndromes(codewords, check_variables).any(axis=1)
        active = np.nonzero(~success)[0]
        llrs = llrs[active]
        messages = np.zeros((active.size, num_edges + 1))

        for iteration in range(1, max_iterations + 1):
            if active.size == 0:
                break
            totals = _variable_totals(llrs, messages, variable_edges)
            # Check-node update: extrinsic inputs per edge, the product of
            # their signs and the two smallest magnitudes per check, then
            # the normalised min-sum outgoing messages.
            incoming = totals.take(variables, axis=1) \
                - messages.take(check_edges, axis=1)
            signs = np.where(incoming < 0, -1.0, 1.0)
            magnitudes = np.where(mask, np.abs(incoming), np.inf)
            smallest_two = np.partition(magnitudes, 1, axis=-1) \
                if magnitudes.shape[-1] > 1 else magnitudes
            smallest = smallest_two[..., 0]
            second = np.where(degrees > 1,
                              smallest_two[..., min(1, magnitudes.shape[-1] - 1)],
                              smallest)
            smallest = np.minimum(smallest, LDPC_MESSAGE_CAP)
            second = np.minimum(second, LDPC_MESSAGE_CAP)
            minimum_position = np.argmin(magnitudes, axis=-1)
            product_sign = np.prod(np.where(mask, signs, 1.0), axis=-1)
            outgoing = np.where(positions == minimum_position[..., None],
                                second[..., None], smallest[..., None])
            update = scale * product_sign[..., None] * signs * outgoing
            messages[:, check_edges] = np.where(mask, update, 0.0)
            hard = (_variable_totals(llrs, messages, variable_edges)
                    < 0).astype(np.int64)
            converged = ~_tanner_syndromes(hard, check_variables).any(axis=1)
            codewords[active] = hard
            iterations[active] = iteration
            success[active] = converged
            running = ~converged
            active, llrs, messages = \
                active[running], llrs[running], messages[running]
        return codewords, iterations, success


def _tanner_edge_count(n: int, check_edges: np.ndarray,
                       check_variables: np.ndarray,
                       variable_edges: np.ndarray) -> int:
    """The edge count ``E`` of ``ldpc_min_sum``'s padded indexes, after
    checking their shapes and that variables lie in ``[0, n]`` and edge ids
    in ``[0, E]``: a compiled kernel addresses memory with them."""
    if (check_edges.ndim != 2 or check_variables.shape != check_edges.shape
            or variable_edges.ndim != 2 or len(variable_edges) != n):
        raise ValueError("ldpc_min_sum: check_edges and check_variables "
                         "must share one (checks, width) shape and "
                         "variable_edges have one row per variable")
    num_edges = int(np.count_nonzero(check_variables < n))
    for index, top in ((check_variables, n), (check_edges, num_edges),
                       (variable_edges, num_edges)):
        if index.size and (index.min() < 0 or index.max() > top):
            raise ValueError(f"ldpc_min_sum: index entries must lie in "
                             f"[0, {top}]")
    return num_edges


def _variable_totals(llrs: np.ndarray, messages: np.ndarray,
                     variable_edges: np.ndarray) -> np.ndarray:
    """Channel LLR plus every incoming check message, per variable.

    The messages are added in ascending check order, the order in which a
    column sum over a dense ``H``-shaped message array adds them.
    """
    incoming = messages.take(variable_edges[:, 0], axis=1)
    for column in range(1, variable_edges.shape[1]):
        incoming += messages.take(variable_edges[:, column], axis=1)
    return llrs + incoming


def _tanner_syndromes(words: np.ndarray,
                      check_variables: np.ndarray) -> np.ndarray:
    """XOR of each check's variables over a ``(B, n)`` 0/1 batch; padded
    index slots read the zero column ``n``."""
    padded = np.zeros((len(words), words.shape[1] + 1), dtype=np.int64)
    padded[:, :-1] = words
    return np.bitwise_xor.reduce(padded.take(check_variables, axis=1),
                                 axis=2)


class NumpyBackend(ArrayBackend):
    """BLAS matmuls + arena-backed conv buffers: the default on hosts
    without a C compiler.

    The kernels are numerically identical to :class:`ArrayBackend` (the
    reference implementations already call into NumPy); what this class
    exists for is the registry slot accelerated ports subclass from, and as
    the carrier of the scratch arena used on graph-free forward paths.
    """

    name = "numpy"


class ReferenceBackend(ArrayBackend):
    """Plain reference kernels, never using the scratch arena.

    Used by the conformance tests to check that arena reuse and compiled
    kernels in an accelerated backend do not change results; every scratch
    request gets a fresh allocation instead of a pooled buffer.
    """

    name = "reference"

    def scratch_out(self, shape, dtype):
        return np.empty(shape, dtype=dtype)


BACKEND_REGISTRY: dict[str, type[ArrayBackend]] = {
    NumpyBackend.name: NumpyBackend,
    ReferenceBackend.name: ReferenceBackend,
}


def register_backend(name: str, cls: type[ArrayBackend] | None = None):
    """Register a backend class under ``name`` (usable as a decorator)."""
    def _register(backend_cls: type[ArrayBackend]) -> type[ArrayBackend]:
        if not (isinstance(backend_cls, type)
                and issubclass(backend_cls, ArrayBackend)):
            raise TypeError("backend must subclass ArrayBackend")
        BACKEND_REGISTRY[name] = backend_cls
        return backend_cls
    if cls is not None:
        return _register(cls)
    return _register


def build_backend(name: str, **kwargs) -> ArrayBackend:
    """Instantiate a registered backend by name."""
    if name not in BACKEND_REGISTRY:
        raise ValueError(f"unknown array backend {name!r}; available: "
                         f"{sorted(BACKEND_REGISTRY)}")
    return BACKEND_REGISTRY[name](**kwargs)


class _BackendState(threading.local):
    def __init__(self):
        self.current: ArrayBackend | None = None


_STATE = _BackendState()
#: The process default, built by the first :func:`get_backend` call that
#: needs it (never at import: finding a compiler runs a subprocess).
_DEFAULT: ArrayBackend | None = None
_DEFAULT_LOCK = threading.Lock()


def get_backend() -> ArrayBackend:
    """The backend the engine currently routes kernels through."""
    backend = _STATE.current
    if backend is not None:
        return backend
    return _DEFAULT if _DEFAULT is not None else _resolve_default()


def _resolve_default() -> ArrayBackend:
    """Build the process default once: cjit with a C compiler, else numpy."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = _cjit.default_backend()
    return _DEFAULT


@contextlib.contextmanager
def use_backend(backend: str | ArrayBackend):
    """Route this thread's kernels through ``backend`` for one ``with``
    block; accepts a registry name or an instance and restores the previous
    backend on exit."""
    if isinstance(backend, str):
        backend = build_backend(backend)
    if not isinstance(backend, ArrayBackend):
        raise TypeError("backend must be a registry name or an ArrayBackend")
    previous = _STATE.current
    _STATE.current = backend
    try:
        yield backend
    finally:
        _STATE.current = previous


# The compiled-kernel backend registers itself on import; it only touches
# this module and the stdlib at import time (compiler detection and cache
# I/O happen lazily), so registration is cheap and cycle-free.
from repro.nn import cjit as _cjit  # noqa: E402,F401  (registers "cjit")
