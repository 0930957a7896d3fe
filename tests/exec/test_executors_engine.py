"""Executor registry, engine dispatch, and what shard results carry."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.channel import ConditionCache, build_channel
from repro.exec import (
    EXECUTOR_REGISTRY,
    MonteCarloPlan,
    ProcessExecutor,
    RemoteExecutor,
    SerialExecutor,
    TallyReducer,
    build_executor,
    run_plan,
)
from repro.flash import BlockGeometry
from repro.obs import metrics, trace


def _draw(unit, rng):
    return float(rng.random())


def _cached_estimate(unit, rng, *, channel):
    """Plan task exercising the channel's per-condition LRU cache."""
    return channel.level_error_rate_estimate(4000 + 1000 * int(unit),
                                             num_blocks=1)


def _first_unit_wins(unit, rng, *, channel):
    """Every unit returns whichever unit first filled the shared entry."""
    return channel.cache.get_or_compute("first", lambda: int(unit))


def _cache_filler(unit, rng, *, cache):
    return cache.get_or_compute(int(unit), lambda: float(rng.random()))


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


class TestContextCaches:
    @pytest.fixture
    def channel(self):
        return build_channel("simulator", geometry=BlockGeometry(16, 16),
                             rng=np.random.default_rng(0))

    def _plan(self, channel, units=4):
        return MonteCarloPlan(task=_cached_estimate,
                              units=tuple(range(units)), seed=3,
                              context={"channel": channel})

    def test_serial_execution_does_not_double_count(self, channel):
        run_plan(self._plan(channel), executor="serial")
        assert channel.cache.stats() == {"hits": 0, "misses": 4, "size": 4}

    def test_result_frames_do_not_carry_the_context_cache(self, channel):
        """Workers send back their results, not the cache they were
        shipped: a 1 MiB cache entry rides out with the context but never
        back with a result."""
        channel.cache.get_or_compute("ballast", lambda: bytes(1 << 20))
        executor = RemoteExecutor(workers=2)
        try:
            run_plan(MonteCarloPlan(task=_draw, units=(0, 1), seed=1),
                     executor=executor)
            metrics.process_registry().reset()
            with trace.tracing():
                run_plan(self._plan(channel, units=8), executor=executor)
            received = metrics.process_registry().totals()[
                "exec.transport.bytes_received"]
        finally:
            trace.disable_tracing()
            metrics.process_registry().reset()
            executor.close()
        assert received < 64 * 1024

    def test_shard_result_pickles_without_the_context_cache(self, channel):
        """What a pool worker pickles back is the per-unit results alone."""
        channel.cache.get_or_compute("ballast", lambda: bytes(1 << 20))
        (shard,) = self._plan(channel).shards(1)
        assert len(pickle.dumps(shard.run())) < 64 * 1024

    @pytest.mark.parametrize("executor", ["process", "remote"])
    def test_worker_cache_carries_over_between_its_chunks(self, channel,
                                                          executor):
        """A worker keeps its copy of the context for the whole run, so its
        later chunks hit the entry its first chunk computed, as the units
        of a serial run do; the entry never reaches the parent."""
        plan = MonteCarloPlan(task=_first_unit_wins, units=tuple(range(4)),
                              seed=3, context={"channel": channel})
        results = run_plan(plan, executor=executor, workers=1, num_shards=4)
        assert results == [0, 0, 0, 0]
        assert "first" not in channel.cache
        assert run_plan(plan, executor="serial") == results

    def test_explicit_cache_context_value_stays_in_the_worker(self):
        cache = ConditionCache(maxsize=8)
        plan = MonteCarloPlan(task=_cache_filler, units=(0, 1), seed=0,
                              context={"cache": cache})
        results = run_plan(plan, executor="process", workers=2)
        assert cache.stats() == {"hits": 0, "misses": 0, "size": 0}
        assert results == run_plan(plan, executor="serial")
