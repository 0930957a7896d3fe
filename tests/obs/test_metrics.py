"""The unified metrics registry: types, merge semantics, scoping."""

from __future__ import annotations

import threading

import pytest

from repro.obs import metrics


class TestMetricTypes:
    def test_counter_accumulates_and_merges_by_addition(self):
        registry = metrics.MetricsRegistry()
        registry.inc("calls")
        registry.inc("calls", 4)
        assert registry.counter("calls").value == 5
        registry.merge_snapshot({"calls": {"type": "counter", "value": 7}})
        assert registry.counter("calls").value == 12

    def test_gauge_merges_by_max(self):
        registry = metrics.MetricsRegistry()
        registry.gauge("peak").set(100)
        registry.merge_snapshot({"peak": {"type": "gauge", "value": 40}})
        assert registry.gauge("peak").value == 100  # high-water mark kept
        registry.merge_snapshot({"peak": {"type": "gauge", "value": 250}})
        assert registry.gauge("peak").value == 250

    def test_histogram_combines_count_total_min_max(self):
        registry = metrics.MetricsRegistry()
        registry.observe("lat", 0.5)
        registry.observe("lat", 1.5)
        other = metrics.MetricsRegistry()
        other.observe("lat", 0.1)
        registry.merge_snapshot(other.snapshot())
        hist = registry.histogram("lat")
        assert hist.count == 3
        assert hist.total == pytest.approx(2.1)
        assert hist.min == pytest.approx(0.1)
        assert hist.max == pytest.approx(1.5)
        assert hist.mean == pytest.approx(0.7)

    def test_name_reuse_across_types_is_an_error(self):
        registry = metrics.MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="counter"):
            registry.gauge("x")

    def test_snapshot_is_plain_and_json_safe(self):
        import json

        registry = metrics.MetricsRegistry()
        registry.inc("a")
        registry.gauge("b").set(3)
        registry.observe("c", 0.25)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_totals_flat_view(self):
        registry = metrics.MetricsRegistry()
        registry.inc("a", 2)
        registry.gauge("b").set(9)
        registry.observe("c", 0.5)
        registry.observe("c", 0.25)
        assert registry.totals() == {"a": 2, "b": 9, "c": 0.75}


class TestScoping:
    def test_thread_local_override_shadows_process_registry(self):
        shard = metrics.MetricsRegistry()
        with metrics.use_registry(shard):
            assert metrics.get_registry() is shard
            metrics.get_registry().inc("seen")
        assert metrics.get_registry() is metrics.process_registry()
        assert shard.counter("seen").value == 1

    def test_override_is_per_thread(self):
        shard = metrics.MetricsRegistry()
        seen_in_thread = []

        def probe():
            seen_in_thread.append(metrics.get_registry())

        with metrics.use_registry(shard):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen_in_thread == [metrics.process_registry()]


class TestLegacySurfaceBridges:
    def test_backend_registry_mirrors_arena_stats(self):
        pytest.importorskip("numpy")
        import numpy as np

        from repro.nn.backend import ArrayBackend

        backend = ArrayBackend()
        backend.scratch_out((4, 4), np.float32)
        snapshot = metrics.backend_registry(backend).snapshot()
        for key, value in backend.arena.stats().items():
            assert snapshot[f"nn.arena.{key}"]["value"] == value
