"""Tracing: disabled-cost contract, span mechanics, kernel profiler."""

from __future__ import annotations

import time

import pytest

from repro.obs import metrics, trace


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with process-wide tracing disabled."""
    trace.disable_tracing()
    yield
    trace.disable_tracing()


class TestDisabledCost:
    def test_disabled_span_is_the_shared_noop_singleton(self):
        # Identity, not equality: a regression to per-call allocation on the
        # disabled path must fail loudly.
        assert trace.span("anything") is trace.NOOP_SPAN
        assert trace.span("anything", attr=1) is trace.NOOP_SPAN

    def test_bulk_disabled_spans_stay_cheap(self):
        start = time.perf_counter()
        for _ in range(100_000):
            with trace.span("hot"):
                pass
        elapsed = time.perf_counter() - start
        # ~3 attribute loads and a None check per call; even a slow CI box
        # does 100k in well under a second.  Generous bound, loud failure.
        assert elapsed < 1.0

    def test_disabled_event_records_nothing(self):
        trace.event("exec.retry", shard=0)  # must not raise, must not record
        assert not trace.is_enabled()


class TestSpans:
    def test_parentage_follows_the_stack(self):
        with trace.tracing() as tracer:
            with trace.span("outer") as outer:
                with trace.span("inner"):
                    pass
        spans = {r["name"]: r for r in tracer.records if r["type"] == "span"}
        assert spans["inner"]["parent"] == outer.span_id
        assert spans["outer"]["parent"] is None

    def test_exception_marks_the_span_and_propagates(self):
        with trace.tracing() as tracer:
            with pytest.raises(ValueError):
                with trace.span("doomed"):
                    raise ValueError("boom")
        [record] = [r for r in tracer.records if r["type"] == "span"]
        assert record["error"] == "ValueError"

    def test_attrs_and_late_set(self):
        with trace.tracing() as tracer:
            with trace.span("s", fixed=1) as handle:
                handle.set(late=2)
        [record] = [r for r in tracer.records if r["type"] == "span"]
        assert record["attrs"] == {"fixed": 1, "late": 2}

    def test_enable_twice_is_an_error(self):
        trace.enable_tracing()
        try:
            with pytest.raises(RuntimeError, match="already enabled"):
                trace.enable_tracing()
        finally:
            trace.disable_tracing()

    def test_last_span_name_tracks_entries(self):
        with trace.tracing():
            with trace.span("exec.shard"):
                pass
        assert trace.last_span_name() == "exec.shard"


class TestKernelProfiler:
    def test_reentrant_calls_count_once(self):
        registry = metrics.MetricsRegistry()
        profiler = trace.KernelProfiler()
        with metrics.use_registry(registry):
            outer = profiler.enter()
            inner = profiler.enter()  # a fallback calling the base kernel
            assert inner is None
            profiler.exit("matmul", outer)
        assert registry.histogram("nn.kernel.matmul").count == 1

    def test_sampling_records_every_nth(self):
        registry = metrics.MetricsRegistry()
        profiler = trace.KernelProfiler(sample_every=4)
        with metrics.use_registry(registry):
            recorded = 0
            for _ in range(16):
                token = profiler.enter()
                if token is not None:
                    profiler.exit("k", token)
                    recorded += 1
        assert recorded == 4
        assert registry.histogram("nn.kernel.k").count == 4

    def test_phase_channel_does_not_suppress_kernels(self):
        registry = metrics.MetricsRegistry()
        profiler = trace.KernelProfiler()
        with metrics.use_registry(registry):
            phase = profiler.phase_enter()
            token = profiler.enter()  # kernels inside a phase still record
            assert token is not None
            profiler.exit("k", token)
            profiler.phase_exit("cjit_compile", phase)
        assert registry.histogram("nn.kernel.k").count == 1
        assert registry.histogram("nn.phase.cjit_compile").count == 1

    def test_backend_hook_installed_and_cleared_with_tracing(self):
        pytest.importorskip("numpy")
        from repro.nn import backend as backend_mod

        assert backend_mod.KERNEL_PROFILER is None
        with trace.tracing():
            assert isinstance(backend_mod.KERNEL_PROFILER,
                              trace.KernelProfiler)
        assert backend_mod.KERNEL_PROFILER is None
