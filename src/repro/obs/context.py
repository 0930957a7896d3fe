"""Trace-context propagation across executors and the remote transport.

The engine stamps each ``ShardSpec`` with a tiny picklable
:class:`TraceContext` (trace id + the plan span's id).  How the shard's
observability data gets home depends on where the shard runs:

- **Same process, same trace** (the serial executor): the shard's
  ``exec.shard`` span records directly into the live tracer, parented to the
  plan span.
- **Another process** (process pool and remote fleet workers): the shard runs
  under a temporary thread-local tracer and a shard-local metrics registry;
  both snapshots ride back in the ``ShardResult.obs`` envelope, and
  :func:`merge_shard_envelopes` folds them into the parent timeline.

Everything here is a no-op (and never imported by the hot path) when the
shard carries no trace context.
"""

from __future__ import annotations

import os
import socket
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, Optional

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace


@dataclass(frozen=True)
class TraceContext:
    """The cross-process handle a shard carries: ~100 bytes pickled.

    ``pid`` records the tracing process: a fork-started pool worker inherits
    the parent's enabled tracer (same trace id!), so trace-id equality alone
    cannot distinguish "same process" from "forked copy" — the pid can.
    """

    trace_id: str
    parent_id: Optional[str] = None
    pid: int = 0


@contextmanager
def plan_scope(plan: Any, executor_name: str,
               workers: Optional[int]) -> Iterator[Optional[TraceContext]]:
    """Wrap a ``run_plan`` call in an ``exec.plan`` span.

    Yields the :class:`TraceContext` to stamp onto shards, or ``None`` when
    tracing is disabled (in which case this is a bare ``yield``).
    """
    tracer = _trace.active_tracer()
    if tracer is None:
        yield None
        return
    task_name = getattr(plan.task, "__name__", type(plan.task).__name__)
    with _trace.span("exec.plan", task=task_name,
                     units=plan.num_units, executor=executor_name,
                     workers=workers) as handle:
        yield TraceContext(tracer.trace_id, handle.span_id, os.getpid())


class _ShardObs:
    """Mutable box ``observe_shard`` fills with the outbound envelope."""

    __slots__ = ("envelope",)

    def __init__(self) -> None:
        self.envelope: Optional[Dict[str, Any]] = None


@contextmanager
def _shard_profiler() -> Iterator[None]:
    """Enable kernel profiling for an envelope-mode shard, if the NN backend
    is loaded and not already profiled (workers have no global tracer, so
    nothing else installs the profiler for them)."""
    backend_mod = sys.modules.get("repro.nn.backend")
    if backend_mod is None or backend_mod.KERNEL_PROFILER is not None:
        yield
        return
    previous = backend_mod.set_kernel_profiler(_trace.KernelProfiler())
    try:
        yield
    finally:
        backend_mod.set_kernel_profiler(previous)


@contextmanager
def observe_shard(spec: Any) -> Iterator[_ShardObs]:
    """Record one shard's spans/metrics, direct or enveloped (see module
    docstring).  ``spec.trace`` must be a :class:`TraceContext`."""
    box = _ShardObs()
    ctx = spec.trace
    attrs = dict(shard=spec.index, start=spec.start, units=len(spec.units))
    tracer = _trace.active_tracer()
    if tracer is not None and tracer.trace_id == ctx.trace_id \
            and os.getpid() == ctx.pid:
        with _trace.span("exec.shard", parent=ctx.parent_id, **attrs):
            yield box
        return
    local = _trace.Tracer(trace_id=ctx.trace_id)
    registry = _metrics.MetricsRegistry()
    with _trace.use_tracer(local), _metrics.use_registry(registry), \
            _shard_profiler():
        with _trace.span("exec.shard", parent=ctx.parent_id, **attrs):
            yield box
    box.envelope = {
        "spans": local.records,
        "metrics": registry.snapshot(),
        "worker": {"pid": os.getpid(), "host": socket.gethostname()},
    }


def merge_shard_envelopes(results: Iterable[Any]) -> None:
    """Fold worker-side envelopes from ``ShardResult.obs`` into the parent
    tracer and process registry — one envelope per shard, so merged totals
    count every unit exactly once."""
    tracer = _trace.active_tracer()
    registry = _metrics.get_registry()
    for result in results:
        envelope = getattr(result, "obs", None)
        if not envelope:
            continue
        if tracer is not None:
            tracer.adopt(envelope.get("spans", ()))
        registry.merge_snapshot(envelope.get("metrics", {}))


def record_fleet_stats(stats: Dict[str, int],
                       transport_totals: Optional[Dict[str, int]] = None,
                       ) -> None:
    """Publish remote-scheduler counters (and transport byte totals) into the
    process registry, but only while tracing — disabled runs keep the
    zero-cost contract and `RemoteExecutor.last_run_stats` unchanged."""
    if not _trace.is_enabled():
        return
    registry = _metrics.get_registry()
    for key, value in stats.items():
        registry.counter(f"exec.fleet.{key}").inc(int(value))
    for key, value in (transport_totals or {}).items():
        registry.counter(f"exec.transport.{key}").inc(int(value))


def record_fleet_size(size: int) -> None:
    """Publish the current fleet size as the ``exec.fleet.size`` gauge.

    The gauge holds the *peak* fleet — the fleet a run starts with, since
    workers only leave mid-run — so a later replenishment never lowers it.
    Only recorded while tracing (the zero-cost contract).
    """
    if not _trace.is_enabled():
        return
    gauge = _metrics.get_registry().gauge("exec.fleet.size")
    gauge.merge({"value": int(size)})
