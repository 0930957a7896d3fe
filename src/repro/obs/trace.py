"""Span-based tracing with near-zero disabled cost.

Design constraints, in priority order:

1. **Disabled cost ~0.**  ``span(...)`` with tracing off performs one module
   global load, one ``None`` check and returns a shared no-op singleton whose
   ``__enter__``/``__exit__`` do nothing.  No allocation, no locks, no time
   reads.  A tier-1 test pins this (bulk no-op spans stay cheap, and the
   singleton identity is asserted so a regression to per-call allocation
   fails loudly).
2. **Cross-process mergeable.**  Spans are plain dict records carrying a
   ``trace`` id, a ``span`` id and a ``parent`` id.  A worker process records
   into a local :class:`Tracer` whose records ride back in the shard result
   envelope and are adopted into the parent tracer.
3. **Kernel profiling is opt-in and sampled.**  The NN backends carry a
   module-global profiler slot (``repro.nn.backend.KERNEL_PROFILER``); when
   tracing is enabled a :class:`KernelProfiler` is installed there and
   per-kernel wall times land in ``nn.kernel.*`` histograms of the active
   metrics registry.  When disabled the hook is a single ``None`` check on
   the kernel hot path.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.obs import metrics as _metrics

_SPAN_COUNTER = itertools.count(1)
_TRACE_COUNTER = itertools.count(1)

# Name of the most recently entered real span in this process; shipped in
# worker error diagnostics so a retry-exhaustion note can say where the
# worker died.
_LAST_SPAN: Optional[str] = None


def _new_trace_id() -> str:
    return f"t{os.getpid():x}-{time.time_ns():x}-{next(_TRACE_COUNTER)}"


class Tracer:
    """Collects span/event records, optionally streaming them to a sink."""

    def __init__(self, trace_id: Optional[str] = None, sink: Any = None,
                 keep_records: bool = True) -> None:
        self.trace_id = trace_id if trace_id is not None else _new_trace_id()
        self.sink = sink
        self.keep_records = keep_records
        self.records: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    def new_span_id(self) -> str:
        return f"{os.getpid():x}-{next(_SPAN_COUNTER)}"

    def emit(self, record: Dict[str, Any]) -> None:
        with self._lock:
            if self.keep_records:
                self.records.append(record)
            if self.sink is not None:
                self.sink.write(record)

    def adopt(self, records: Iterable[Dict[str, Any]]) -> None:
        """Merge records produced by a worker-side tracer into this one."""
        for record in records:
            self.emit(record)


# Active tracer: one per process (``_TRACER``), with a thread-local override
# used by worker-side shard observation so a shard collects only its own
# records even when the process-global tracer is off.
_TRACER: Optional[Tracer] = None
_LOCAL = threading.local()
_STACK = threading.local()


def active_tracer() -> Optional[Tracer]:
    override = getattr(_LOCAL, "tracer", None)
    return override if override is not None else _TRACER


def is_enabled() -> bool:
    return active_tracer() is not None


def last_span_name() -> Optional[str]:
    return _LAST_SPAN


def current_span_id() -> Optional[str]:
    stack = getattr(_STACK, "spans", None)
    return stack[-1][0] if stack else None


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as this thread's active tracer."""
    previous = getattr(_LOCAL, "tracer", None)
    _LOCAL.tracer = tracer
    try:
        yield tracer
    finally:
        _LOCAL.tracer = previous


class _NoopSpan:
    """Shared do-nothing span handle returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _SpanHandle:
    __slots__ = ("_tracer", "_name", "_parent", "_attrs", "span_id",
                 "_t0_wall", "_t0_perf")

    def __init__(self, tracer: Tracer, name: str, parent: Optional[str],
                 attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._attrs = attrs
        self.span_id = ""
        self._t0_wall = 0.0
        self._t0_perf = 0.0

    def __enter__(self) -> "_SpanHandle":
        global _LAST_SPAN
        self.span_id = self._tracer.new_span_id()
        if self._parent is None:
            self._parent = current_span_id()
        stack = getattr(_STACK, "spans", None)
        if stack is None:
            stack = _STACK.spans = []
        stack.append((self.span_id, self._name))
        _LAST_SPAN = self._name
        self._t0_wall = time.time()
        self._t0_perf = time.perf_counter()
        return self

    def set(self, **attrs: Any) -> None:
        self._attrs.update(attrs)

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        duration = time.perf_counter() - self._t0_perf
        stack = getattr(_STACK, "spans", None)
        if stack and stack[-1][0] == self.span_id:
            stack.pop()
        record: Dict[str, Any] = {
            "type": "span",
            "trace": self._tracer.trace_id,
            "span": self.span_id,
            "parent": self._parent,
            "name": self._name,
            "t0": self._t0_wall,
            "dur": duration,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        if self._attrs:
            record["attrs"] = self._attrs
        self._tracer.emit(record)
        return False


def span(name: str, *, parent: Optional[str] = None, **attrs: Any):
    """Open a span.  Returns the shared no-op handle when tracing is off."""
    tracer = getattr(_LOCAL, "tracer", None)
    if tracer is None:
        tracer = _TRACER
        if tracer is None:
            return NOOP_SPAN
    return _SpanHandle(tracer, name, parent, attrs)


def event(name: str, *, parent: Optional[str] = None, **attrs: Any) -> None:
    """Record an instantaneous event (retry, worker death, ...)."""
    tracer = active_tracer()
    if tracer is None:
        return
    record: Dict[str, Any] = {
        "type": "event",
        "trace": tracer.trace_id,
        "name": name,
        "ts": time.time(),
        "pid": os.getpid(),
        "parent": parent if parent is not None else current_span_id(),
    }
    if attrs:
        record["attrs"] = attrs
    tracer.emit(record)


class KernelProfiler:
    """Times kernel calls into ``nn.kernel.*`` histograms.

    Installed into ``repro.nn.backend.KERNEL_PROFILER`` while profiling is
    enabled; the backend hot-path hook is ``profiler is None`` when off.
    Re-entrant kernel calls (a cjit fallback invoking the numpy base
    implementation) are counted once: only the outermost timed region
    records, tracked with a per-thread depth flag.  ``sample_every=N``
    records every Nth outermost call to bound enabled-mode overhead.
    """

    def __init__(self, sample_every: int = 1) -> None:
        self.sample_every = max(1, int(sample_every))
        self._local = threading.local()

    def enter(self) -> Optional[float]:
        local = self._local
        if getattr(local, "depth", 0):
            return None
        if self.sample_every > 1:
            tick = getattr(local, "tick", 0) + 1
            local.tick = tick
            if tick % self.sample_every:
                return None
        local.depth = 1
        return time.perf_counter()

    def exit(self, name: str, token: float) -> None:
        duration = time.perf_counter() - token
        self._local.depth = 0
        _metrics.get_registry().observe(f"nn.kernel.{name}", duration)

    def phase_enter(self) -> Optional[float]:
        """Like :meth:`enter` but on a separate depth channel, used for
        coarse phases (cjit compiles) that can start inside a timed kernel
        call."""
        local = self._local
        if getattr(local, "phase_depth", 0):
            return None
        local.phase_depth = 1
        return time.perf_counter()

    def phase_exit(self, name: str, token: float) -> None:
        duration = time.perf_counter() - token
        self._local.phase_depth = 0
        _metrics.get_registry().observe(f"nn.phase.{name}", duration)


def _set_backend_profiler(profiler: Optional[KernelProfiler]) -> None:
    """Install ``profiler`` on the NN backend module if it is loaded.

    Imported lazily so tracing pure-exec workloads never drags in numpy and
    the NN stack; if ``repro.nn.backend`` is imported later it simply starts
    unprofiled (its slot defaults to ``None``).
    """
    import sys

    backend_mod = sys.modules.get("repro.nn.backend")
    if backend_mod is not None:
        backend_mod.set_kernel_profiler(profiler)


def _flush_backend_metrics(registry: _metrics.MetricsRegistry) -> None:
    """Absorb the default backend's counters into ``registry`` at flush."""
    import sys

    backend_mod = sys.modules.get("repro.nn.backend")
    if backend_mod is None:
        return
    try:
        _metrics.backend_registry(backend_mod.get_backend(), registry)
    except Exception:  # pragma: no cover - flush must never break a run
        pass


def enable_tracing(sink: Any = None, trace_id: Optional[str] = None,
                   sample_every: int = 1,
                   profile_kernels: bool = True) -> Tracer:
    """Turn on process-wide tracing.  Returns the active :class:`Tracer`."""
    global _TRACER
    if _TRACER is not None:
        raise RuntimeError("tracing is already enabled in this process")
    tracer = Tracer(trace_id=trace_id, sink=sink)
    tracer.emit({
        "type": "meta",
        "trace": tracer.trace_id,
        "t0": time.time(),
        "pid": os.getpid(),
        "argv": list(__import__("sys").argv),
    })
    _TRACER = tracer
    if profile_kernels:
        _set_backend_profiler(KernelProfiler(sample_every=sample_every))
    return tracer


def disable_tracing() -> Optional[Tracer]:
    """Turn tracing off: flush the process metrics snapshot and clear hooks."""
    global _TRACER
    tracer = _TRACER
    if tracer is None:
        return None
    _set_backend_profiler(None)
    registry = _metrics.process_registry()
    _flush_backend_metrics(registry)
    tracer.emit({
        "type": "metrics",
        "trace": tracer.trace_id,
        "scope": "process",
        "pid": os.getpid(),
        "snapshot": registry.snapshot(),
    })
    _TRACER = None
    return tracer


@contextmanager
def tracing(path_or_sink: Any = None, *, trace_id: Optional[str] = None,
            sample_every: int = 1,
            profile_kernels: bool = True) -> Iterator[Tracer]:
    """``with tracing("run.jsonl") as tracer:`` — enable, run, flush.

    Accepts a filesystem path (a :class:`repro.obs.sink.JsonlSink` is opened
    and closed for you), an existing sink object, or ``None`` to trace into
    memory only (``tracer.records``).
    """
    sink = None
    owns_sink = False
    if path_or_sink is not None:
        if hasattr(path_or_sink, "write"):
            sink = path_or_sink
        else:
            from repro.obs.sink import JsonlSink
            sink = JsonlSink(path_or_sink)
            owns_sink = True
    tracer = enable_tracing(sink=sink, trace_id=trace_id,
                            sample_every=sample_every,
                            profile_kernels=profile_kernels)
    try:
        yield tracer
    finally:
        disable_tracing()
        if owns_sink:
            sink.close()
