"""One conformance battery over every executor backend.

The determinism contract of ``repro.exec`` says the executor is a pure
throughput knob: for a fixed seed, every backend — serial, process pool,
remote fleet — must produce bit-identical per-unit results and identical
reductions, must be invariant under how the plan is cut (guided chunks or
``num_shards`` balanced shards), and must leave a worker's condition-cache
entries in the worker.  This battery runs the same assertions over all
three registered backends so a new executor cannot land without honouring
the contract.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.channel import build_channel
from repro.exec import (
    MeanReducer,
    MonteCarloPlan,
    RecordReducer,
    RemoteExecutor,
    SerialExecutor,
    TallyReducer,
    build_executor,
    run_plan,
)
from repro.flash import BlockGeometry

BACKENDS = ("serial", "process", "remote")
WORKERS = 2


def _draw_unit(unit, rng, *, scale):
    """A toy Monte-Carlo task: deterministic per-unit random draws."""
    return scale * float(unit) + float(rng.standard_normal(3).sum())


def _record_unit(unit, rng):
    """Array-valued results, for the stacking reducer."""
    return rng.integers(0, 100, size=3)


def _cached_draw(unit, rng, *, channel):
    """A task exercising the channel's per-condition LRU cache.

    The computed artifact is anchored to the unit rng (unlike e.g.
    ``level_error_rate_estimate``, which draws from the channel's own
    generator), so the values must be identical for every backend.
    """
    return channel.cache.get_or_compute(
        ("conformance", int(unit)), lambda: float(rng.random()))


@pytest.fixture(scope="module", params=BACKENDS)
def backend(request):
    """One long-lived executor per backend; the remote fleet (worker
    subprocesses) is spawned once for the whole battery."""
    executor = build_executor(request.param, workers=WORKERS)
    yield executor
    executor.close()


@pytest.fixture(scope="module")
def plan():
    return MonteCarloPlan(task=_draw_unit, units=tuple(range(12)), seed=42,
                          context={"scale": 0.5})


@pytest.fixture(scope="module")
def reference(plan):
    return run_plan(plan, executor="serial")


class TestReducerConformance:
    def test_per_unit_results_bit_identical(self, backend, plan, reference):
        assert run_plan(plan, executor=backend) == reference

    def test_tally_and_mean_reductions_identical(self, backend, plan,
                                                 reference):
        assert run_plan(plan, reducer=TallyReducer(),
                        executor=backend) == sum(reference)
        assert run_plan(plan, reducer=MeanReducer(),
                        executor=backend) == np.mean(reference)

    def test_stacked_records_identical(self, backend):
        plan = MonteCarloPlan(task=_record_unit, units=tuple(range(9)),
                              seed=5)
        expected = run_plan(plan, reducer=RecordReducer(stack=True),
                            executor="serial")
        stacked = run_plan(plan, reducer=RecordReducer(stack=True),
                           executor=backend)
        np.testing.assert_array_equal(stacked, expected)


class TestCacheConformance:
    def _run(self, backend, channel):
        plan = MonteCarloPlan(task=_cached_draw, units=tuple(range(4)),
                              seed=3, context={"channel": channel})
        return run_plan(plan, executor=backend, num_shards=2)

    @staticmethod
    def _channel():
        return build_channel("simulator", geometry=BlockGeometry(16, 16),
                             rng=np.random.default_rng(0))

    def test_cached_results_identical(self, backend):
        assert self._run(backend, self._channel()) \
            == self._run("serial", self._channel())

    def test_worker_entries_stay_in_the_worker(self, backend):
        channel = self._channel()
        self._run(backend, channel)
        # Only shards run in this process fill the parent's cache; a pool
        # or fleet worker's entries never travel back.
        local = 4 if isinstance(backend, SerialExecutor) else 0
        assert channel.cache.stats() == {"hits": 0, "misses": local,
                                         "size": local}

    def test_parent_entries_serve_worker_hits(self, backend):
        """An artifact computed in the parent rides out with the context
        and is served from the cache on every backend, never recomputed."""
        channel = self._channel()
        for unit in range(4):
            channel.cache.get_or_compute(("conformance", unit),
                                         lambda: 100.0 + unit)
        assert self._run(backend, channel) == [100.0, 101.0, 102.0, 103.0]


class TestChunkingConformance:
    @pytest.mark.parametrize("num_shards", [None, 1, 3 * WORKERS])
    def test_output_invariant_for_any_cut(self, backend, plan, reference,
                                          num_shards):
        assert run_plan(plan, executor=backend,
                        num_shards=num_shards) == reference


class TestServeModeFleet:
    def test_hosts_fleet_matches_serial(self, plan, reference):
        """A pre-started ``--serve`` worker (the multi-host shape) conforms
        too."""
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.exec.worker",
             "--serve", "127.0.0.1:0", "--once"],
            stdout=subprocess.PIPE, text=True)
        try:
            address = process.stdout.readline().split()[-1]
            executor = RemoteExecutor(hosts=[address], connect_timeout=5.0)
            try:
                assert run_plan(plan, executor=executor) == reference
            finally:
                executor.close()
        finally:
            process.terminate()
            process.wait(timeout=10)
