"""Unit tests for the channel adapters, tiling, resolution and the LRU cache."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.baselines.models import GaussianChannelModel
from repro.channel import (
    BaselineChannel,
    ConditionCache,
    GenerativeChannel,
    SimulatorChannel,
    resolve_channel,
)
from repro.channel.adapters import _tile_arrays, _untile_arrays
from repro.core import ModelConfig, build_model
from repro.data import generate_paired_dataset
from repro.flash import BlockGeometry, FlashChannel


class TestConditionCache:
    def test_hit_miss_accounting(self):
        cache = ConditionCache(maxsize=4)
        calls = []
        for _ in range(3):
            cache.get_or_compute("key", lambda: calls.append(1) or len(calls))
        assert calls == [1]
        assert cache.stats() == {"hits": 2, "misses": 1, "size": 1}

    def test_lru_eviction(self):
        cache = ConditionCache(maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)   # refresh "a"
        cache.get_or_compute("c", lambda: 3)   # evicts "b"
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_zero_size_disables_caching(self):
        cache = ConditionCache(maxsize=0)
        values = [cache.get_or_compute("k", lambda: object())
                  for _ in range(2)]
        assert values[0] is not values[1]
        assert len(cache) == 0

    def test_clear(self):
        cache = ConditionCache()
        cache.get_or_compute("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0 and cache.stats()["hits"] == 0

    def test_membership_leaves_counters_recency_and_in_flight_keys_alone(
            self):
        cache = ConditionCache(maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        assert "a" in cache                    # no hit and no refresh ...
        cache.get_or_compute("c", lambda: 3)   # ... so "a" is evicted
        assert "a" not in cache and "b" in cache
        seen = []
        cache.get_or_compute("d", lambda: seen.append("d" in cache) or 4)
        assert seen == [False] and "d" in cache
        assert cache.stats() == {"hits": 0, "misses": 4, "size": 2}

    def test_pickled_copy_keeps_its_entries_apart_from_the_original(self):
        """A worker's unpickled copy serves the parent's entries, and what
        it computes stays in the copy."""
        cache = ConditionCache(maxsize=4)
        cache.get_or_compute("shared", lambda: "parent")
        copy = pickle.loads(pickle.dumps(cache))
        assert copy.get_or_compute("shared", lambda: "worker") == "parent"
        copy.get_or_compute("fresh", lambda: 3)
        assert "fresh" in copy and "fresh" not in cache
        assert cache.stats() == {"hits": 0, "misses": 1, "size": 1}
        assert copy.stats() == {"hits": 1, "misses": 2, "size": 2}

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            ConditionCache(maxsize=-1)

    def test_failed_compute_does_not_poison_the_key(self):
        cache = ConditionCache(maxsize=4)
        with pytest.raises(RuntimeError, match="boom"):
            cache.get_or_compute("k", lambda: (_ for _ in ()).throw(
                RuntimeError("boom")))
        assert "k" not in cache and len(cache) == 0
        assert cache.get_or_compute("k", lambda: 7) == 7
        assert cache.stats()["misses"] == 2

    def test_reentrant_compute_fails_fast(self):
        cache = ConditionCache(maxsize=4)
        with pytest.raises(RuntimeError, match="reentrant"):
            cache.get_or_compute(
                "k", lambda: cache.get_or_compute("k", lambda: 1))
        # The failed reservation is cleaned up; the key stays computable.
        assert cache.get_or_compute("k", lambda: 2) == 2

    def test_concurrent_same_key_computes_do_not_raise(self):
        """Another thread computing the same key is concurrency, not
        reentrancy: both must compute successfully (duplicate work is fine,
        a crash is not)."""
        import threading

        cache = ConditionCache(maxsize=4)
        started = threading.Event()
        release = threading.Event()

        def slow_compute():
            started.set()
            release.wait(timeout=5)
            return "slow"

        errors = []

        def racer():
            started.wait(timeout=5)
            try:
                cache.get_or_compute("k", lambda: "fast")
            except BaseException as error:  # pragma: no cover - fail path
                errors.append(error)
            finally:
                release.set()

        thread = threading.Thread(target=racer)
        thread.start()
        value = cache.get_or_compute("k", slow_compute)
        thread.join(timeout=5)
        assert not errors
        assert value == "slow"


class TestTiling:
    def test_roundtrip_preserves_layout(self):
        rng = np.random.default_rng(0)
        arrays = rng.integers(0, 8, size=(3, 24, 16))
        tiles, layout = _tile_arrays(arrays, 8)
        assert tiles.shape == (3 * 3 * 2, 8, 8)
        np.testing.assert_array_equal(_untile_arrays(tiles, layout, 8),
                                      arrays)

    def test_tile_contents_are_crops(self):
        arrays = np.arange(16 * 16).reshape(1, 16, 16)
        tiles, _ = _tile_arrays(arrays, 8)
        np.testing.assert_array_equal(tiles[0], arrays[0, :8, :8])
        np.testing.assert_array_equal(tiles[1], arrays[0, :8, 8:])
        np.testing.assert_array_equal(tiles[2], arrays[0, 8:, :8])

    def test_single_array_squeeze(self):
        array = np.zeros((8, 8), dtype=int)
        tiles, layout = _tile_arrays(array, 8)
        assert tiles.shape == (1, 8, 8)
        assert _untile_arrays(tiles, layout, 8).shape == (8, 8)

    def test_rejects_non_tileable(self):
        with pytest.raises(ValueError, match="not tileable"):
            _tile_arrays(np.zeros((12, 12), dtype=int), 8)


@pytest.fixture(scope="module")
def tiny_generative():
    model = build_model("cvae_gan", ModelConfig.tiny(),
                        rng=np.random.default_rng(1))
    return GenerativeChannel(model, rng=np.random.default_rng(2),
                             chunk_size=4)


class TestGenerativeChannel:
    def test_reads_full_blocks_through_tiling(self, tiny_generative):
        levels = np.random.default_rng(3).integers(0, 8, size=(2, 32, 32))
        voltages = tiny_generative.read_voltages(levels, 7000)
        assert voltages.shape == levels.shape

    def test_pads_non_tileable_shapes(self, tiny_generative):
        levels = np.random.default_rng(8).integers(0, 8, size=(2, 12, 20))
        voltages = tiny_generative.read_voltages(levels, 7000)
        assert voltages.shape == levels.shape
        repeated = tiny_generative.read_repeated(levels, 7000, num_samples=2)
        assert repeated.shape == (2, 2, 12, 20)

    def test_read_repeated_shape(self, tiny_generative):
        levels = np.random.default_rng(4).integers(0, 8, size=(2, 16, 16))
        repeated = tiny_generative.read_repeated(levels, 7000, num_samples=3)
        assert repeated.shape == (3, 2, 16, 16)

    def test_read_repeated_samples_differ(self, tiny_generative):
        levels = np.random.default_rng(5).integers(0, 8, size=(8, 8))
        repeated = tiny_generative.read_repeated(levels, 7000, num_samples=2)
        assert not np.array_equal(repeated[0], repeated[1])

    def test_rejects_bad_chunk_size(self, tiny_generative):
        with pytest.raises(ValueError):
            GenerativeChannel(tiny_generative.model, chunk_size=0)

    def test_rejects_non_model(self):
        with pytest.raises(TypeError):
            GenerativeChannel(object())

    def test_reads_do_not_pollute_condition_cache(self, tiny_generative):
        """Plain reads must not fill (and evict from) the condition cache.

        The cache is reserved for expensive per-condition artifacts such as
        density tables; a P/E sweep of reads previously evicted them.
        """
        tiny_generative.cache.clear()
        table = tiny_generative.density_table(7000, num_bins=16, num_blocks=1)
        levels = np.zeros((8, 8), dtype=int)
        for pe in range(1000, 50000, 1000):
            tiny_generative.read_voltages(levels, pe)
        assert tiny_generative.density_table(7000, num_bins=16,
                                             num_blocks=1) is table


class TestResolveChannel:
    def test_passthrough(self, tiny_generative):
        assert resolve_channel(tiny_generative) is tiny_generative

    def test_wraps_flash_channel(self):
        simulator = FlashChannel(rng=np.random.default_rng(0))
        wrapped = resolve_channel(simulator)
        assert isinstance(wrapped, SimulatorChannel)
        assert wrapped.simulator is simulator
        assert wrapped.rng is simulator.rng

    def test_wraps_generative_model(self):
        model = build_model("cvae_gan", ModelConfig.tiny(),
                            rng=np.random.default_rng(1))
        wrapped = resolve_channel(model)
        assert isinstance(wrapped, GenerativeChannel)
        assert wrapped.model is model

    def test_wraps_fitted_baseline(self):
        simulator = FlashChannel(geometry=BlockGeometry(32, 32),
                                 rng=np.random.default_rng(3))
        dataset = generate_paired_dataset(simulator, pe_cycles=(7000,),
                                          arrays_per_pe=8, array_size=16)
        fitted = GaussianChannelModel().fit(dataset, max_iterations=40)
        wrapped = resolve_channel(fitted)
        assert isinstance(wrapped, BaselineChannel)

    def test_builds_by_name(self):
        assert isinstance(resolve_channel("simulator"), SimulatorChannel)

    def test_rejects_unknown_objects(self):
        with pytest.raises(TypeError, match="cannot interpret"):
            resolve_channel(42)


class TestBaselineChannel:
    @pytest.fixture(scope="class")
    def baseline(self):
        simulator = FlashChannel(geometry=BlockGeometry(32, 32),
                                 rng=np.random.default_rng(4))
        dataset = generate_paired_dataset(simulator,
                                          pe_cycles=(4000, 10000),
                                          arrays_per_pe=8, array_size=16)
        return BaselineChannel(GaussianChannelModel, dataset=dataset,
                               rng=np.random.default_rng(5),
                               fit_iterations=40)

    def test_snaps_to_nearest_fitted_pe(self, baseline):
        levels = np.random.default_rng(6).integers(0, 8, size=(16, 16))
        voltages = baseline.read_voltages(levels, 4500)
        assert voltages.shape == levels.shape

    def test_strict_pe_raises(self, baseline):
        baseline.strict_pe = True
        try:
            with pytest.raises(ValueError, match="not fitted at"):
                baseline.read_voltages(np.zeros((4, 4), dtype=int), 5000)
        finally:
            baseline.strict_pe = False

    def test_rejects_non_baseline_model(self):
        with pytest.raises(TypeError):
            BaselineChannel(object())
