"""Guided chunks (``MonteCarloPlan.chunks``), the engine's default cut.

Each chunk takes ``ceil(remaining units / (2 * workers))`` units (one
worker gets one chunk), so pool and fleet workers pulling chunks in order
start with large chunks and even out on small ones.  Because randomness is anchored per unit, the per-unit
results must be bit-identical for any worker count, cut and executor (the
determinism contract of ``repro.exec``).
"""

from __future__ import annotations

import dataclasses
import os
import pickle

import pytest

from repro.exec import MonteCarloPlan, RemoteExecutor, run_plan
from repro.exec.executors import ProcessExecutor, SerialExecutor


def draw_unit(unit, rng, scale=1.0):
    """A toy Monte-Carlo task: per-unit random draws."""
    return float(unit) * scale + rng.standard_normal(3).sum()


class CountsCopies:
    """A context value that counts how often it is pickled and unpickled."""

    pickled = 0
    unpickled = 0

    def __reduce__(self):
        type(self).pickled += 1
        return _unpickle_counter, ()


def _unpickle_counter():
    CountsCopies.unpickled += 1
    return CountsCopies()


def copies_so_far(unit, rng, *, counter):
    """Which process ran the unit, and how many context copies it made."""
    return os.getpid(), type(counter).unpickled


class RecordingExecutor(SerialExecutor):
    """Serial execution that records the unit counts the engine cut."""

    def __init__(self, workers=None):
        super().__init__(workers)
        self.cuts: list[list[int]] = []

    def map_shards(self, shards):
        self.cuts.append([len(shard.units) for shard in shards])
        return super().map_shards(shards)


@pytest.fixture()
def plan():
    return MonteCarloPlan(task=draw_unit, units=tuple(range(24)), seed=42,
                          context={"scale": 0.5})


WORKER_COUNTS = (1, 2, 3, 4, 7, 24, 100)


class TestChunkShape:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_sizes_never_increase(self, plan, workers):
        sizes = [len(chunk.units) for chunk in plan.chunks(workers)]
        assert sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_chunks_cover_the_units_contiguously(self, plan, workers):
        chunks = plan.chunks(workers)
        assert [chunk.index for chunk in chunks] == list(range(len(chunks)))
        position = 0
        for chunk in chunks:
            assert chunk.start == position
            assert chunk.units == plan.units[position:position + len(
                chunk.units)]
            position += len(chunk.units)
        assert position == plan.num_units

    @pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
    def test_each_chunk_is_a_half_share_of_the_remaining_units(
            self, plan, workers):
        remaining = plan.num_units
        for chunk in plan.chunks(workers):
            assert len(chunk.units) == -(-remaining // (2 * workers))
            remaining -= len(chunk.units)

    def test_two_workers_on_24_units(self, plan):
        assert [len(chunk.units) for chunk in plan.chunks(2)] == [
            6, 5, 4, 3, 2, 1, 1, 1, 1]

    def test_one_worker_gives_one_chunk(self, plan):
        [chunk] = plan.chunks(1)
        assert chunk.units == plan.units

    @pytest.mark.parametrize("workers", [0, -1])
    def test_invalid_worker_count_rejected(self, plan, workers):
        with pytest.raises(ValueError, match="workers"):
            plan.chunks(workers)


class TestEngineCut:
    def test_engine_cuts_guided_chunks_for_the_worker_count(self, plan):
        backend = RecordingExecutor(workers=4)
        run_plan(plan, executor=backend)
        assert backend.cuts == [[len(chunk.units)
                                 for chunk in plan.chunks(4)]]

    def test_serial_run_gets_one_chunk(self, plan):
        backend = RecordingExecutor()
        run_plan(plan, executor=backend)
        assert backend.cuts == [[plan.num_units]]

    def test_explicit_num_shards_cuts_balanced_shards(self, plan):
        backend = RecordingExecutor(workers=4)
        run_plan(plan, executor=backend, num_shards=5)
        assert backend.cuts == [[4, 5, 5, 5, 5]]


class TestDeterminism:
    def test_output_identical_for_any_worker_count_and_executor(self, plan):
        reference = run_plan(plan, executor="serial")
        for workers in (2, 3, 5):
            assert run_plan(plan, executor=RecordingExecutor(
                workers=workers)) == reference
        assert run_plan(plan, executor="process", workers=3) == reference


class TestContextShipping:
    """The chunks of one cut carry their context pickled once, and a worker
    process unpickles it once for all its chunks of the run."""

    @pytest.fixture()
    def counted(self):
        CountsCopies.pickled = CountsCopies.unpickled = 0
        return MonteCarloPlan(task=copies_so_far, units=tuple(range(24)),
                              seed=5, context={"counter": CountsCopies()})

    def test_one_cut_pickles_and_unpickles_its_context_once(self, counted):
        chunks = counted.chunks(3)
        specs = [pickle.loads(pickle.dumps(chunk)) for chunk in chunks]
        assert len(specs) > 1
        assert (CountsCopies.pickled, CountsCopies.unpickled) == (1, 1)
        assert all(spec.context is specs[0].context for spec in specs)
        assert [spec.units for spec in specs] == [chunk.units
                                                  for chunk in chunks]
        # A new cut is a new run: its context is shipped afresh.
        again = pickle.loads(pickle.dumps(counted.chunks(3)[0]))
        assert (CountsCopies.pickled, CountsCopies.unpickled) == (2, 2)
        assert again.context is not specs[0].context

    def test_replaced_context_pickles_plainly(self, plan):
        [chunk] = plan.chunks(1)
        replaced = dataclasses.replace(chunk, context={"scale": 2.0})
        assert pickle.loads(pickle.dumps(replaced)).context == {
            "scale": 2.0}

    @pytest.mark.parametrize("backend", [ProcessExecutor, RemoteExecutor])
    def test_each_worker_unpickles_the_context_once_per_run(self, counted,
                                                             backend):
        executor = backend(workers=2)
        try:
            runs = [run_plan(counted, executor=executor) for _ in range(2)]
        finally:
            executor.close()
        per_run = []
        for results in runs:
            copies = {}
            for pid, count in results:
                copies.setdefault(pid, set()).add(count)
            # Every chunk a worker ran in one run saw the same copy.
            assert all(len(counts) == 1 for counts in copies.values())
            per_run.append({pid: counts.pop()
                            for pid, counts in copies.items()})
        # The next run ships its context afresh.
        for pid in per_run[0].keys() & per_run[1].keys():
            assert per_run[1][pid] > per_run[0][pid]
