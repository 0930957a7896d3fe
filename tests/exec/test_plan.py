"""Unit tests for Monte-Carlo plans, shard splitting and unit seeds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import MonteCarloPlan, stable_seed, unit_rng


def _draw(unit, rng, *, offset=0.0):
    return float(rng.random()) + offset


class TestStableSeed:
    def test_non_negative_ints_pass_through(self):
        assert stable_seed(3, 7000) == (3, 7000)

    def test_other_values_hash_deterministically(self):
        assert stable_seed("fig2", None) == stable_seed("fig2", None)
        assert stable_seed(4000.0) != stable_seed(7000.0)
        assert stable_seed(-1) == stable_seed(-1)

    def test_distinct_components_distinct_entropy(self):
        assert stable_seed("level") != stable_seed("erased")


class TestMonteCarloPlan:
    def test_rejects_empty_units_and_non_callables(self):
        with pytest.raises(ValueError):
            MonteCarloPlan(task=_draw, units=())
        with pytest.raises(TypeError):
            MonteCarloPlan(task=42, units=(1,))

    def test_unit_rng_is_per_unit_deterministic(self):
        plan = MonteCarloPlan(task=_draw, units=tuple(range(4)), seed=9)
        first = plan.unit_rng(2).random()
        again = plan.unit_rng(2).random()
        other = plan.unit_rng(3).random()
        assert first == again
        assert first != other
        with pytest.raises(IndexError):
            plan.unit_rng(4)

    def test_plan_and_shards_draw_from_unit_rng(self):
        """One per-unit generator serves the plan, every shard and the
        sweeps that loop over their units in-process."""
        seed = stable_seed("study", 3)
        plan = MonteCarloPlan(task=_draw, units=tuple(range(5)), seed=seed)
        expected = [unit_rng(seed, index).random() for index in range(5)]
        assert [plan.unit_rng(index).random()
                for index in range(5)] == expected
        shards = plan.shards(2)
        assert [shard.unit_rng(offset).random() for shard in shards
                for offset in range(len(shard.units))] == expected
        sequence = np.random.SeedSequence(seed, spawn_key=(4,))
        assert expected[4] == np.random.default_rng(sequence).random()

    def test_unit_rng_streams_differ_across_seeds(self):
        """Unit ``i`` of sweeps seeded apart — two P/E counts of one
        schedule, say — draws different numbers."""
        seeds = (0, 1, stable_seed(0, 4000.0), stable_seed(0, 7000.0))
        draws = {unit_rng(seed, 2).random() for seed in seeds}
        assert len(draws) == len(seeds)

    def test_shards_cover_units_contiguously(self):
        plan = MonteCarloPlan(task=_draw, units=tuple(range(7)), seed=0)
        shards = plan.shards(3)
        assert [shard.units for shard in shards] == [(0, 1), (2, 3),
                                                     (4, 5, 6)]
        assert [shard.start for shard in shards] == [0, 2, 4]

    def test_shard_count_clamped_to_units(self):
        plan = MonteCarloPlan(task=_draw, units=(0, 1), seed=0)
        assert len(plan.shards(8)) == 2
        with pytest.raises(ValueError):
            plan.shards(0)

    def test_sharding_is_a_pure_throughput_knob(self):
        """Per-unit streams are identical for every shard layout."""
        plan = MonteCarloPlan(task=_draw, units=tuple(range(10)), seed=5)
        layouts = []
        for num_shards in (1, 2, 3, 10):
            results = []
            for shard in plan.shards(num_shards):
                results.extend(shard.run().results)
            layouts.append(results)
        for layout in layouts[1:]:
            assert layout == layouts[0]

    def test_context_reaches_the_task(self):
        plan = MonteCarloPlan(task=_draw, units=(0,), seed=0,
                              context={"offset": 10.0})
        assert plan.shards(1)[0].run().results[0] > 10.0
