"""Registry-conformance suite: every backend honours the channel protocol.

Each entry of :data:`repro.channel.CHANNEL_REGISTRY` is built with a small
test configuration and run through the same contract: output shapes and
dtype, the physical voltage window, the temporal operating-condition axes,
capability flags, the condition cache (through the LDPC campaign's seeded
density table), and — for backends that promise it — a monotone error rate
versus P/E cycling.  The block consumers outside
:mod:`repro.channel` run over the simulator and a fitted baseline alike.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.channel import (
    CHANNEL_REGISTRY,
    ChannelCapabilities,
    ChannelModel,
    GenerativeChannel,
    SimulatorChannel,
    build_channel,
)
from repro.coding import constrained_coding_gain
from repro.core import ModelConfig
from repro.data import generate_paired_dataset
from repro.ecc import LDPCCode, evaluate_ldpc_over_channel
from repro.flash import (
    BlockGeometry,
    EnduranceSweep,
    FlashParameters,
    PECyclingExperiment,
    level_error_rate,
)
from repro.flash.cell import ERASED_LEVEL, NUM_LEVELS

BACKEND_NAMES = sorted(CHANNEL_REGISTRY)

#: P/E read points the test dataset covers (baselines only exist at these).
FITTED_PE = (4000.0, 10000.0)


@pytest.fixture(scope="module")
def params():
    return FlashParameters()


@pytest.fixture(scope="module")
def tiny_dataset(params):
    channel = SimulatorChannel(params, geometry=BlockGeometry(32, 32),
                               rng=np.random.default_rng(100))
    return generate_paired_dataset(channel, pe_cycles=FITTED_PE,
                                   arrays_per_pe=24, array_size=16)


@pytest.fixture(scope="module")
def backends(params, tiny_dataset):
    """One instance of every registered backend, built by name."""
    built = {}
    for index, name in enumerate(BACKEND_NAMES):
        rng = np.random.default_rng(1000 + index)
        kwargs = {"params": params, "rng": rng,
                  "geometry": BlockGeometry(16, 16)}
        if name in ("gaussian", "normal_laplace", "students_t"):
            kwargs.update(dataset=tiny_dataset, fit_iterations=60)
        elif name != "simulator":
            kwargs.update(config=ModelConfig.tiny())
        built[name] = build_channel(name, **kwargs)
    return built


@pytest.fixture(scope="module")
def small_ldpc():
    return LDPCCode.regular(n=24, rng=np.random.default_rng(9))


@pytest.fixture(scope="module")
def levels():
    return np.random.default_rng(7).integers(0, NUM_LEVELS, size=(3, 16, 16))


@pytest.mark.parametrize("name", BACKEND_NAMES)
class TestProtocolContract:
    def test_is_channel_model(self, backends, name):
        assert isinstance(backends[name], ChannelModel)

    def test_capabilities(self, backends, name):
        capabilities = backends[name].supports()
        assert isinstance(capabilities, ChannelCapabilities)
        assert capabilities.name

    def test_read_voltages_shape_and_dtype(self, backends, name, levels):
        voltages = backends[name].read_voltages(levels, FITTED_PE[0])
        assert voltages.shape == levels.shape
        assert voltages.dtype == np.float64

    def test_single_array_shape(self, backends, name, levels):
        voltages = backends[name].read_voltages(levels[0], FITTED_PE[0])
        assert voltages.shape == levels[0].shape

    @pytest.mark.parametrize("shape", [(0, 8), (0, 8, 8)])
    def test_empty_read(self, backends, name, shape):
        """An empty level array reads back an empty float64 array of its
        shape; a generative backend's ``read_repeated`` gives ``(S, 0, ...)``."""
        channel = backends[name]
        program = np.zeros(shape, dtype=np.int64)
        voltages = channel.read_voltages(program, FITTED_PE[0])
        assert voltages.shape == shape
        assert voltages.dtype == np.float64
        if isinstance(channel, GenerativeChannel):
            repeated = channel.read_repeated(program, FITTED_PE[0],
                                             num_samples=3)
            assert repeated.shape == (3, *shape)
            assert repeated.dtype == np.float64

    def test_voltages_within_physical_window(self, backends, name, levels,
                                             params):
        voltages = backends[name].read_voltages(levels, FITTED_PE[1])
        assert voltages.min() >= params.voltage_min
        assert voltages.max() <= params.voltage_max

    def test_rejects_invalid_inputs(self, backends, name, levels):
        channel = backends[name]
        with pytest.raises(ValueError):
            channel.read_voltages(np.zeros(16, dtype=int), FITTED_PE[0])
        with pytest.raises(ValueError):
            channel.read_voltages(levels, -1.0)
        with pytest.raises(ValueError):
            channel.read_voltages(levels, FITTED_PE[0], retention_hours=-1.0)
        with pytest.raises(ValueError):
            channel.read_voltages(np.full((4, 4), NUM_LEVELS), FITTED_PE[0])

    @pytest.mark.parametrize("program", [
        np.zeros((4, 4)), np.full((4, 4), 2.5), np.ones((4, 4), dtype=bool)],
        ids=["float_zeros", "float_2.5", "bool"])
    def test_rejects_non_integer_levels(self, backends, name, program):
        """Float or bool levels are one TypeError on every backend, never
        an IndexError, a silent read or a level-not-fitted error."""
        with pytest.raises(TypeError, match="program levels must be integers"):
            backends[name].read_voltages(program, FITTED_PE[0])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("condition",
                             ["pe_cycles", "retention_hours", "read_disturbs"])
    def test_rejects_non_finite_conditions(self, backends, name, levels,
                                           condition, value):
        """A NaN or infinite operating condition is an error, never a NaN
        read or a silently skipped distortion."""
        conditions = {"pe_cycles": FITTED_PE[0], "retention_hours": 0.0,
                      "read_disturbs": 0}
        conditions[condition] = value
        with pytest.raises(ValueError, match="finite"):
            backends[name].read_voltages(levels, **conditions)

    def test_program_random_block(self, backends, name):
        block = backends[name].program_random_block()
        assert block.shape == (16, 16)
        assert block.min() >= 0 and block.max() < NUM_LEVELS

    def test_paired_blocks(self, backends, name):
        program, voltages = backends[name].paired_blocks(2, FITTED_PE[0])
        assert program.shape == (2, 16, 16)
        assert voltages.shape == (2, 16, 16)

    def test_per_call_rng_leaves_backend_stream_untouched(self, backends,
                                                         name, levels):
        """A read handed its own generator draws nothing from the
        backend's, so threads sharing a backend never share a stream."""
        channel = backends[name]
        before = channel.rng.bit_generator.state
        channel.read_voltages(levels, FITTED_PE[0],
                              rng=np.random.default_rng(8))
        channel.paired_blocks(2, FITTED_PE[1], rng=np.random.default_rng(9))
        assert channel.rng.bit_generator.state == before

    def test_same_generator_same_read(self, backends, name, levels):
        """A read is a function of its arguments: reads in between, with
        or without program errors, leave nothing behind that changes it."""
        channel = backends[name]
        first = channel.read_voltages(levels, FITTED_PE[0],
                                      rng=np.random.default_rng(10))
        channel.paired_blocks(2, FITTED_PE[1], apply_program_errors=True)
        channel.read_voltages(levels, FITTED_PE[1])
        second = channel.read_voltages(levels, FITTED_PE[0],
                                       rng=np.random.default_rng(10))
        np.testing.assert_array_equal(second, first)

    def test_paired_blocks_read_through_read_voltages(self, backends, name):
        """Without program errors a paired draw is the program followed by
        a plain read, both from the one generator passed in."""
        channel = backends[name]
        program, voltages = channel.paired_blocks(
            2, FITTED_PE[0], apply_program_errors=False,
            rng=np.random.default_rng(11))
        generator = np.random.default_rng(11)
        expected = np.stack([channel.program_random_block(rng=generator)
                             for _ in range(2)])
        np.testing.assert_array_equal(program, expected)
        np.testing.assert_array_equal(
            voltages, channel.read_voltages(expected, FITTED_PE[0],
                                            rng=generator))

    def test_retention_shifts_programmed_levels_down(self, backends, name):
        channel = backends[name]
        levels = np.full((64, 64), NUM_LEVELS - 1)
        rng = np.random.default_rng(5)
        fresh = channel.read_voltages(levels, FITTED_PE[0], rng=rng)
        aged = channel.read_voltages(levels, FITTED_PE[0],
                                     retention_hours=2000.0,
                                     rng=np.random.default_rng(5))
        assert aged.mean() < fresh.mean()

    def test_read_disturb_shifts_erased_cells_up(self, backends, name):
        channel = backends[name]
        levels = np.full((64, 64), ERASED_LEVEL)
        fresh = channel.read_voltages(levels, FITTED_PE[0],
                                      rng=np.random.default_rng(6))
        disturbed = channel.read_voltages(levels, FITTED_PE[0],
                                          read_disturbs=500000,
                                          rng=np.random.default_rng(6))
        assert disturbed.mean() > fresh.mean()

    def test_density_table_cached(self, backends, name, small_ldpc):
        """Two same-seed LDPC campaigns share one cached density table (one
        miss, then one hit); a campaign with another seed or at another
        P/E count misses."""
        channel = backends[name]
        channel.cache.clear()

        def campaign(seed, pe_cycles=FITTED_PE[0]):
            return evaluate_ldpc_over_channel(small_ldpc, channel, pe_cycles,
                                              num_codewords=2, seed=seed)

        first = campaign(5)
        assert channel.cache.stats() == {"hits": 0, "misses": 1, "size": 1}
        second = campaign(5)
        assert channel.cache.stats() == {"hits": 1, "misses": 1, "size": 1}
        np.testing.assert_array_equal(first.frame_records,
                                      second.frame_records)
        campaign(6)
        assert channel.cache.stats() == {"hits": 1, "misses": 2, "size": 2}
        campaign(5, FITTED_PE[1])
        assert channel.cache.stats() == {"hits": 1, "misses": 3, "size": 3}

    def test_wear_monotone_error_rate(self, backends, name):
        """Backends that promise wear monotonicity must deliver it."""
        channel = backends[name]
        if not channel.supports().wear_monotone:
            pytest.skip(f"{name} does not promise wear monotonicity")
        young, old = (
            level_error_rate(*channel.paired_blocks(
                12, pe, rng=np.random.default_rng(8)),
                params=channel.params)
            for pe in FITTED_PE)
        assert old > young


@pytest.mark.parametrize("name", BACKEND_NAMES)
class TestConcurrentReads:
    """``ChannelModel``'s thread contract: threads sharing one backend, each
    with its own seeded generator, read exactly what serial reads with those
    seeds return (a generative backend built over a fresh, train-mode
    model included)."""

    THREADS = 8

    @staticmethod
    def _reads(channel, seed, program, barrier=None):
        rng = np.random.default_rng(seed)
        if barrier is not None:
            barrier.wait()
        out = [channel.read_voltages(program, 7000, rng=rng)]
        for program_errors in (True, False, True):
            out.extend(channel.paired_blocks(
                2, 10000, apply_program_errors=program_errors, rng=rng))
        out.append(channel.read_voltages(program, 4000, rng=rng))
        return out

    def test_threads_match_serial_reads(self, backends, name):
        channel = backends[name]
        program = np.random.default_rng(0).integers(0, NUM_LEVELS,
                                                    size=(8, 32, 32))
        seeds = [100 + index for index in range(self.THREADS)]
        serial = [self._reads(channel, seed, program) for seed in seeds]
        barrier = threading.Barrier(self.THREADS, timeout=60)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
                futures = [pool.submit(self._reads, channel, seed, program,
                                       barrier) for seed in seeds]
                threaded = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(serial, threaded):
            assert len(want) == len(got)
            for want_array, got_array in zip(want, got):
                np.testing.assert_array_equal(got_array, want_array)


@pytest.mark.parametrize("pe_cycles", [np.nan, np.inf, -1.0])
def test_read_repeated_rejects_bad_pe(backends, levels, pe_cycles):
    with pytest.raises(ValueError, match="finite"):
        backends["cvae_gan"].read_repeated(levels[0], pe_cycles,
                                           num_samples=2)


@pytest.mark.parametrize("name", ["simulator", "gaussian"])
class TestBlockConsumers:
    """Every block consumer takes a protocol backend: the simulator for the
    paper's measured data, a fitted model in its place."""

    def test_generate_paired_dataset(self, backends, name):
        dataset = generate_paired_dataset(backends[name], pe_cycles=FITTED_PE,
                                          arrays_per_pe=3, array_size=8)
        assert len(dataset) == 6
        assert dataset.array_shape == (8, 8)

    def test_pe_cycling_experiment(self, backends, name):
        records = PECyclingExperiment(backends[name], read_points=FITTED_PE,
                                      blocks_per_read_point=2).run()
        assert [record.pe_cycles for record in records] == list(FITTED_PE)
        assert all(record.program_levels.shape == (2, 16, 16)
                   for record in records)

    def test_endurance_sweep(self, backends, name):
        points = EnduranceSweep(backends[name], pe_points=FITTED_PE,
                                blocks_per_point=2).run()
        assert [point.pe_cycles for point in points] == list(FITTED_PE)
        assert all(0.0 <= point.level_error_rate <= 1.0 for point in points)

    def test_constrained_coding_gain(self, backends, name):
        result = constrained_coding_gain(backends[name], FITTED_PE[1],
                                         num_blocks=2)
        assert result.pe_cycles == FITTED_PE[1]
        assert 0.0 <= result.coded_error_rate <= 1.0
        assert 0.0 <= result.uncoded_error_rate <= 1.0


class TestRegistry:
    def test_expected_backends_registered(self):
        assert {"simulator", "generative", "cvae_gan", "cgan", "cvae",
                "bicycle_gan", "gaussian", "normal_laplace",
                "students_t"} <= set(CHANNEL_REGISTRY)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown channel backend"):
            build_channel("quantum")

    def test_duplicate_registration_rejected(self):
        from repro.channel import register_channel

        with pytest.raises(ValueError, match="already registered"):
            register_channel("simulator")(lambda **kwargs: None)

    def test_baseline_requires_fit_data(self, params):
        with pytest.raises(ValueError, match="not fitted"):
            build_channel("gaussian", params=params)
