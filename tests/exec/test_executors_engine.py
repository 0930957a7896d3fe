"""Executor registry, engine dispatch and worker cache merging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import ConditionCache, build_channel
from repro.exec import (
    EXECUTOR_REGISTRY,
    MonteCarloPlan,
    ProcessExecutor,
    SerialExecutor,
    TallyReducer,
    build_executor,
    run_plan,
)
from repro.flash import BlockGeometry


def _draw(unit, rng):
    return float(rng.random())


def _cached_estimate(unit, rng, *, channel):
    """Plan task exercising the channel's per-condition LRU cache."""
    return channel.level_error_rate_estimate(4000 + 1000 * int(unit),
                                             num_blocks=1)


class TestBuildExecutor:
    def test_registry_names(self):
        assert set(EXECUTOR_REGISTRY) == {"serial", "process", "remote"}

    def test_remote_resolves_by_name(self):
        from repro.exec import RemoteExecutor

        backend = build_executor("remote", workers=2)
        try:
            assert isinstance(backend, RemoteExecutor)
            assert backend.workers == 2
        finally:
            backend.close()

    def test_auto_resolution(self):
        assert isinstance(build_executor("auto"), SerialExecutor)
        assert isinstance(build_executor("auto", workers=1), SerialExecutor)
        assert isinstance(build_executor("auto", workers=4), ProcessExecutor)

    def test_by_name(self):
        assert isinstance(build_executor("serial"), SerialExecutor)
        assert build_executor("process", workers=3).workers == 3

    def test_instance_passthrough(self):
        backend = SerialExecutor()
        assert build_executor(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            build_executor("quantum")

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            build_executor("process", workers=0)


class TestRunPlan:
    @pytest.fixture
    def plan(self):
        return MonteCarloPlan(task=_draw, units=tuple(range(6)), seed=11)

    def test_default_returns_per_unit_results(self, plan):
        results = run_plan(plan)
        assert len(results) == 6

    def test_every_executor_agrees(self, plan):
        serial = run_plan(plan, executor="serial")
        process = run_plan(plan, executor="process", workers=2)
        assert serial == process

    def test_num_shards_is_a_throughput_knob(self, plan):
        one = run_plan(plan, executor="serial", num_shards=1)
        many = run_plan(plan, executor="serial", num_shards=6)
        assert one == many

    def test_reducer_applied_to_unit_ordered_results(self, plan):
        total = run_plan(plan, reducer=TallyReducer(), executor="process",
                         workers=2)
        assert total == pytest.approx(sum(run_plan(plan)))


class TestWorkerCacheMerging:
    @pytest.fixture
    def channel(self):
        return build_channel("simulator", geometry=BlockGeometry(16, 16),
                             rng=np.random.default_rng(0))

    def _plan(self, channel, units=4):
        return MonteCarloPlan(task=_cached_estimate,
                              units=tuple(range(units)), seed=3,
                              context={"channel": channel})

    def test_process_pool_entries_fold_into_parent(self, channel):
        channel.cache.clear()
        run_plan(self._plan(channel), executor="process", workers=2)
        stats = channel.cache.stats()
        # Each worker computed its shards' conditions; the parent adopted
        # every entry even though no compute ran in this process — one
        # merge per guided chunk (1 + 1 + 1 + 1 units).
        assert stats["size"] == 4
        assert stats["merges"] == 4
        assert stats["merged_entries"] == 4
        assert stats["misses"] == 4

    def test_merged_entries_serve_parent_hits(self, channel):
        channel.cache.clear()
        run_plan(self._plan(channel), executor="process", workers=2)
        before = channel.cache.stats()["misses"]
        # Re-running serially now hits the merged entries.
        run_plan(self._plan(channel), executor="serial")
        assert channel.cache.stats()["misses"] == before

    def test_serial_execution_does_not_double_count(self, channel):
        channel.cache.clear()
        run_plan(self._plan(channel), executor="serial")
        stats = channel.cache.stats()
        assert stats["merges"] == 0 and stats["misses"] == 4

    def test_merge_can_be_disabled(self, channel):
        channel.cache.clear()
        run_plan(self._plan(channel), executor="process", workers=2,
                 merge_caches=False)
        assert channel.cache.stats()["size"] == 0

    def test_explicit_cache_context_value_is_merged(self):
        cache = ConditionCache(maxsize=8)
        plan = MonteCarloPlan(task=_cache_filler, units=(0, 1), seed=0,
                              context={"cache": cache})
        run_plan(plan, executor="process", workers=2)
        assert cache.stats()["size"] == 2


def _cache_filler(unit, rng, *, cache):
    return cache.get_or_compute(int(unit), lambda: float(rng.random()))
