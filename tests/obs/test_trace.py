"""Tracing: disabled-cost contract, span mechanics, kernel profiler."""

from __future__ import annotations

import threading
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

    def test_each_session_closes_with_only_its_own_metrics(self):
        """Tracing starts from an empty process registry, so no caller
        resets it between sessions: a counter bumped before tracing and a
        first session's observations stay out of the second's record."""
        metrics.process_registry().inc("before.tracing")
        snapshots = []
        try:
            for observations in (2, 1):
                with trace.tracing() as tracer:
                    for _ in range(observations):
                        metrics.get_registry().observe("nn.kernel.matmul",
                                                       0.5)
                [record] = [r for r in tracer.records
                            if r["type"] == "metrics"]
                snapshots.append(record["snapshot"])
        finally:
            metrics.process_registry().reset()
        assert [snapshot["nn.kernel.matmul"]["count"]
                for snapshot in snapshots] == [2, 1]
        assert not any("before.tracing" in snapshot
                       for snapshot in snapshots)

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

    def test_every_outermost_call_records(self):
        registry = metrics.MetricsRegistry()
        profiler = trace.KernelProfiler()
        with metrics.use_registry(registry):
            for _ in range(16):
                token = profiler.enter()
                assert token is not None
                profiler.exit("k", token)
        assert registry.histogram("nn.kernel.k").count == 16

    def test_nesting_depth_is_per_thread(self):
        """A kernel running on one thread does not mask another thread's."""
        registry = metrics.MetricsRegistry()
        profiler = trace.KernelProfiler()
        tokens = []
        with metrics.use_registry(registry):
            outer = profiler.enter()
            worker = threading.Thread(
                target=lambda: tokens.append(profiler.enter()))
            worker.start()
            worker.join(timeout=30)
            profiler.exit("k", outer)
        assert not worker.is_alive()
        assert tokens and tokens[0] is not None
        assert registry.histogram("nn.kernel.k").count == 1

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
