"""Unified observability: metrics registry, span tracing, kernel profiling.

Quick tour::

    from repro.obs import tracing, span, get_registry

    with tracing("run.jsonl"):                 # enable + flush on exit
        with span("campaign", frames=1000):    # spans nest per thread
            run_plan(plan, reducer, executor="remote", workers=4)
        get_registry().inc("frames.decoded", 1000)

    # then: python -m repro.obs summarize run.jsonl
    #       python -m repro.obs chrome run.jsonl -o run.chrome.json

With tracing disabled every hook is a single ``None`` check — ``span()``
returns a shared no-op handle, the NN kernel hooks skip timing entirely, and
``run_plan`` attaches nothing to its shards.  A tier-1 test enforces this.

Shards running in other processes (process pool, remote fleet) record into a
shard-local tracer/registry whose snapshots ride back in the
``ShardResult.obs`` envelope and merge into the parent timeline.
"""

from repro.obs.metrics import (MetricsRegistry, backend_registry,
                               cache_registry, get_registry,
                               process_registry, use_registry)
from repro.obs.trace import (KernelProfiler, Tracer, disable_tracing,
                             enable_tracing, event, is_enabled, span,
                             tracing)
from repro.obs.context import TraceContext, current_context
from repro.obs.sink import JsonlSink, read_trace, validate_trace
from repro.obs.report import chrome_trace, format_summary, summarize

__all__ = [
    "MetricsRegistry", "backend_registry", "cache_registry", "get_registry",
    "process_registry", "use_registry",
    "KernelProfiler", "Tracer", "disable_tracing", "enable_tracing",
    "event", "is_enabled", "span", "tracing",
    "TraceContext", "current_context",
    "JsonlSink", "read_trace", "validate_trace",
    "chrome_trace", "format_summary", "summarize",
]
