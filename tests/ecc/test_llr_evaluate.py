"""Tests for LLR computation and end-to-end ECC evaluation over the channel."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.channel import SimulatorChannel
from repro.ecc import (
    BCHCode,
    LDPCCode,
    LevelDensityTable,
    densities_from_channel,
    densities_from_samples,
    evaluate_bch_over_channel,
    evaluate_ldpc_over_channel,
    page_llrs,
    required_bch_capability,
)
from repro.exec import stable_seed
from repro.flash import (
    BlockGeometry,
    FlashParameters,
    default_read_thresholds,
    hard_read,
)
from repro.flash.cell import GRAY_MAP, LOWER_PAGE, NUM_LEVELS, levels_to_pages


@pytest.fixture
def params() -> FlashParameters:
    return FlashParameters()


@pytest.fixture
def channel(params) -> SimulatorChannel:
    return SimulatorChannel(params, geometry=BlockGeometry(32, 32),
                            rng=np.random.default_rng(0))


@pytest.fixture
def density_table(channel) -> LevelDensityTable:
    return densities_from_channel(channel, 7000, num_blocks=3)


class TestLevelDensityTable:
    def test_from_samples_shapes(self, channel, params):
        program, voltages = channel.paired_blocks(2, 4000)
        table = densities_from_samples(program, voltages, params=params)
        assert table.grid.shape == (128,)
        assert table.densities.shape == (NUM_LEVELS, 128)

    def test_density_peaks_near_level_means(self, channel, params):
        program, voltages = channel.paired_blocks(4, 4000)
        table = densities_from_samples(program, voltages, params=params)
        # Erased cells receive the full ICI shift, so their peak sits well
        # above the nominal erased mean; check the programmed levels only.
        for level in range(1, NUM_LEVELS):
            peak = table.grid[np.argmax(table.densities[level])]
            assert abs(peak - params.level_means[level]) < 25.0

    def test_empty_densities_are_floored(self, density_table):
        """Where no level has density — far outside every level's support,
        or in an all-zero table — the floor keeps the LLRs finite."""
        assert np.isfinite(page_llrs(np.array([0.0, 1e6]), LOWER_PAGE,
                                     density_table)).all()
        empty = LevelDensityTable(grid=np.linspace(0.0, 1.0, 4),
                                  densities=np.zeros((NUM_LEVELS, 4)))
        np.testing.assert_array_equal(
            page_llrs(np.linspace(-1.0, 2.0, 7), LOWER_PAGE, empty), 0.0)

    def test_llrs_read_the_nearest_grid_point(self):
        """Ties between two grid points go to the right one; voltages off
        the grid read its end points."""
        densities = np.ones((NUM_LEVELS, 4))
        zero_levels = [level for level in range(NUM_LEVELS)
                       if GRAY_MAP[level][LOWER_PAGE] == 0]
        densities[zero_levels] = np.arange(1.0, 5.0)
        table = LevelDensityTable(grid=np.array([0.0, 10.0, 20.0, 30.0]),
                                  densities=densities)
        per_bin = page_llrs(table.grid, LOWER_PAGE, table)
        assert np.all(np.diff(per_bin) > 0)
        voltages = np.array([-5.0, 4.9, 5.0, 5.1, 14.0, 16.0, 29.0, 35.0])
        np.testing.assert_array_equal(page_llrs(voltages, LOWER_PAGE, table),
                                      per_bin[[0, 0, 1, 1, 1, 2, 3, 3]])

    def test_validation(self):
        grid = np.linspace(0, 1, 16)
        with pytest.raises(ValueError):
            LevelDensityTable(grid=grid[::-1], densities=np.zeros((8, 16)))
        with pytest.raises(ValueError):
            LevelDensityTable(grid=grid, densities=np.zeros((7, 16)))
        with pytest.raises(ValueError):
            LevelDensityTable(grid=grid, densities=-np.ones((8, 16)))

    def test_from_samples_validation(self, channel):
        program, voltages = channel.paired_blocks(1, 4000)
        with pytest.raises(ValueError):
            densities_from_samples(program[:, :8], voltages)


class TestDensitiesFromChannel:
    """The one density-table builder: the histogram of the channel's own
    paired blocks, over the voltage window of ``channel.params``."""

    @pytest.fixture
    def small_channel(self) -> SimulatorChannel:
        return SimulatorChannel(geometry=BlockGeometry(16, 16),
                                rng=np.random.default_rng(0))

    def test_is_the_histogram_of_the_channel_blocks(self, small_channel):
        table = densities_from_channel(small_channel, 7000, num_blocks=2,
                                       rng=np.random.default_rng(9))
        reference = densities_from_samples(
            *small_channel.paired_blocks(2, 7000,
                                         rng=np.random.default_rng(9)),
            params=small_channel.params)
        np.testing.assert_array_equal(table.grid, reference.grid)
        np.testing.assert_array_equal(table.densities, reference.densities)

    def test_given_rng_leaves_the_channel_generator_alone(self,
                                                          small_channel):
        state = small_channel.rng.bit_generator.state
        densities_from_channel(small_channel, 7000, num_blocks=2,
                               rng=np.random.default_rng(9))
        assert small_channel.rng.bit_generator.state == state

    def test_without_rng_draws_from_the_channel_generator(self,
                                                          small_channel):
        twin = SimulatorChannel(geometry=BlockGeometry(16, 16),
                                rng=np.random.default_rng(0))
        first = densities_from_channel(small_channel, 7000, num_blocks=1)
        np.testing.assert_array_equal(
            first.densities,
            densities_from_channel(twin, 7000, num_blocks=1).densities)
        second = densities_from_channel(small_channel, 7000, num_blocks=1)
        assert not np.array_equal(first.densities, second.densities)

    def test_level_densities_integrate_to_one(self, small_channel):
        table = densities_from_channel(small_channel, 10000, num_blocks=2,
                                       rng=np.random.default_rng(3))
        width = table.grid[1] - table.grid[0]
        np.testing.assert_allclose(table.densities.sum(axis=1) * width, 1.0)

    def test_rejects_no_blocks(self, small_channel):
        with pytest.raises(ValueError):
            densities_from_channel(small_channel, 7000, num_blocks=0)


class TestPageLLRs:
    def test_sign_matches_written_bit_for_clean_voltages(self, params,
                                                         density_table):
        """A cell read exactly at its level mean gets an LLR of the right sign."""
        levels = np.arange(NUM_LEVELS)
        voltages = params.means_array[levels]
        for page in (0, 1, 2):
            llrs = page_llrs(voltages, page, density_table)
            bits = levels_to_pages(levels)[..., page]
            correct = np.sign(llrs) == np.where(bits == 0, 1.0, -1.0)
            # The density table is a histogram estimate: allow one outlier.
            assert correct.sum() >= NUM_LEVELS - 1

    def test_llr_magnitude_clipped(self, density_table):
        voltages = np.linspace(0, 650, 100)
        llrs = page_llrs(voltages, LOWER_PAGE, density_table, clip=12.0)
        assert np.all(np.abs(llrs) <= 12.0)

    def test_priors_shift_the_llrs(self, density_table):
        voltages = np.array([300.0])
        balanced = page_llrs(voltages, LOWER_PAGE, density_table)
        zero_levels = [level for level in range(NUM_LEVELS)
                       if GRAY_MAP[level][LOWER_PAGE] == 0]
        priors = np.full(NUM_LEVELS, 0.01)
        priors[zero_levels] = 1.0
        priors /= priors.sum()
        skewed = page_llrs(voltages, LOWER_PAGE, density_table, priors=priors)
        assert skewed[0] > balanced[0]

    def test_validation(self, density_table):
        voltages = np.array([100.0])
        with pytest.raises(ValueError):
            page_llrs(voltages, 3, density_table)
        with pytest.raises(ValueError):
            page_llrs(voltages, 0, density_table, clip=0.0)
        with pytest.raises(ValueError):
            page_llrs(voltages, 0, density_table,
                      priors=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("page", [0, 1, 2])
    def test_per_bin_llrs_equal_the_per_cell_formula(self, density_table,
                                                     page):
        """Reading each cell's LLR from the table's per-bin vector is
        bit-identical to evaluating the formula per cell — each level's
        density read at the nearest grid point and floored — at grid
        points, at bin midpoints and off the grid too, and on a campaign
        group's ``(8, 252)`` shape."""
        grid = density_table.grid
        rng = np.random.default_rng(12)
        edge_cases = np.concatenate([
            (grid[:-1] + grid[1:]) / 2,
            grid,
            [grid[0] - 50.0, grid[0] - 1e-9, grid[-1] + 1e-9, grid[-1] + 50.0],
            rng.uniform(-100.0, 750.0, size=200),
        ]).reshape(3, -1)
        priors = np.random.default_rng(13).dirichlet(np.ones(NUM_LEVELS))
        for voltages, level_priors in itertools.product(
                (edge_cases, rng.uniform(-100.0, 750.0, size=(8, 252))),
                (None, priors)):
            weights = (np.full(NUM_LEVELS, 1.0 / NUM_LEVELS)
                       if level_priors is None else level_priors)
            numerator = np.zeros(voltages.shape)
            denominator = np.zeros(voltages.shape)
            nearest = density_table._nearest(voltages)
            for level in range(NUM_LEVELS):
                density = np.maximum(density_table.densities[level][nearest],
                                     1e-12)
                term = weights[level] * density
                if GRAY_MAP[level][page] == 0:
                    numerator += term
                else:
                    denominator += term
            expected = np.clip(np.log(np.maximum(numerator, 1e-12))
                               - np.log(np.maximum(denominator, 1e-12)),
                               -30.0, 30.0)
            np.testing.assert_array_equal(
                page_llrs(voltages, page, density_table,
                          priors=level_priors), expected)

    def test_bin_llrs_are_computed_once_per_page_priors_and_clip(
            self, density_table):
        priors = np.full(NUM_LEVELS, 1.0 / NUM_LEVELS)
        first = density_table.bin_llrs(LOWER_PAGE, priors, 30.0)
        assert first.shape == density_table.grid.shape
        assert not first.flags.writeable
        page_llrs(np.array([300.0]), LOWER_PAGE, density_table)
        assert density_table.bin_llrs(LOWER_PAGE, priors.copy(), 30.0) \
            is first
        skewed = priors.copy()
        skewed[0] *= 2.0
        for other in (density_table.bin_llrs(LOWER_PAGE, priors, 12.0),
                      density_table.bin_llrs(1, priors, 30.0),
                      density_table.bin_llrs(LOWER_PAGE, skewed, 30.0)):
            assert other is not first

    def test_hard_decisions_from_llrs_track_wear(self, channel, params,
                                                 density_table):
        """LLR hard decisions show more lower-page errors at higher wear."""
        rates = {}
        for pe_cycles in (4000, 10000):
            program, voltages = channel.paired_blocks(3, pe_cycles)
            llrs = page_llrs(voltages, LOWER_PAGE, density_table)
            bits = levels_to_pages(program)[..., LOWER_PAGE]
            rates[pe_cycles] = np.mean((llrs < 0) != bits)
        assert rates[10000] > rates[4000]


class TestEndToEndEvaluation:
    def test_bch_corrects_the_simulated_channel(self, channel):
        code = BCHCode(m=6, t=4)
        result = evaluate_bch_over_channel(code, channel, 7000,
                                           num_codewords=8,
                                           rng=np.random.default_rng(1))
        assert result.codewords == 8
        assert 0.0 <= result.raw_bit_error_rate <= 1.0
        assert result.post_correction_bit_error_rate <= result.raw_bit_error_rate
        assert result.frame_error_rate <= 0.5

    def test_bch_frame_errors_grow_with_wear(self, channel):
        code = BCHCode(m=6, t=1)
        young = evaluate_bch_over_channel(code, channel, 1000,
                                          num_codewords=12,
                                          rng=np.random.default_rng(2))
        old = evaluate_bch_over_channel(code, channel, 10000,
                                        num_codewords=12,
                                        rng=np.random.default_rng(2))
        assert old.raw_bit_error_rate >= young.raw_bit_error_rate

    def test_ldpc_soft_decoding_over_the_channel(self, channel,
                                                 density_table):
        code = LDPCCode.regular(n=96, column_weight=3, row_weight=6,
                                rng=np.random.default_rng(3))
        result = evaluate_ldpc_over_channel(code, channel, 7000,
                                            density_table, num_codewords=6,
                                            rng=np.random.default_rng(4))
        assert result.codewords == 6
        assert result.post_correction_bit_error_rate <= result.raw_bit_error_rate

    def test_num_codewords_validation(self, channel, density_table):
        """Bad sizes raise before the campaign draws its seed from the
        caller's or the channel's generator."""
        rng = np.random.default_rng(1)
        states = (rng.bit_generator.state, channel.rng.bit_generator.state)
        code = BCHCode(m=4, t=1)
        ldpc = LDPCCode.regular(n=24, rng=np.random.default_rng(0))
        for generator in (rng, None):
            with pytest.raises(ValueError):
                evaluate_bch_over_channel(code, channel, 4000,
                                          num_codewords=0, rng=generator)
            with pytest.raises(ValueError):
                evaluate_ldpc_over_channel(ldpc, channel, 4000,
                                           density_table, num_codewords=0,
                                           rng=generator)
            with pytest.raises(ValueError):
                evaluate_ldpc_over_channel(ldpc, channel, 4000,
                                           num_codewords=8, group_size=0,
                                           rng=generator)
        assert (rng.bit_generator.state,
                channel.rng.bit_generator.state) == states


class TestSeededDensityTable:
    """The LDPC campaign's default table: built by
    :func:`densities_from_channel` from the campaign seed and kept in the
    channel's condition cache under ``("density-seeded", pe, seed)``."""

    @pytest.fixture
    def code(self) -> LDPCCode:
        return LDPCCode.regular(n=24, rng=np.random.default_rng(0))

    @staticmethod
    def _channel(seed: int) -> SimulatorChannel:
        return SimulatorChannel(geometry=BlockGeometry(16, 16),
                                rng=np.random.default_rng(seed))

    def test_is_the_builder_table_at_the_campaign_seed(self, code):
        channel = self._channel(0)
        evaluate_ldpc_over_channel(code, channel, 7000, num_codewords=2,
                                   seed=5)
        cached = channel.cache.get_or_compute(
            ("density-seeded", 7000.0, 5),
            lambda: pytest.fail("the campaign left no table in the cache"))
        generator = np.random.default_rng(np.random.SeedSequence(
            stable_seed(5, 7000.0, "density")))
        np.testing.assert_array_equal(
            cached.densities,
            densities_from_channel(channel, 7000, rng=generator).densities)

    def test_same_seed_agrees_across_channel_generators(self, code):
        """Nothing in a seeded campaign draws from the channel's own
        generator, so channels built with different generators agree."""
        records = [evaluate_ldpc_over_channel(
            code, self._channel(seed), 7000, num_codewords=8,
            seed=5).frame_records for seed in (0, 1)]
        np.testing.assert_array_equal(*records)

    def test_explicit_table_bypasses_the_cache(self, code):
        channel = self._channel(0)
        table = densities_from_channel(channel, 7000,
                                       rng=np.random.default_rng(1))
        evaluate_ldpc_over_channel(code, channel, 7000, table,
                                   num_codewords=2, seed=5)
        assert channel.cache.stats() == {"hits": 0, "misses": 0, "size": 0}


class _RecordingSimulator(SimulatorChannel):
    """A simulator that keeps the levels and voltages of every
    ``read_voltages`` call (the campaigns' codeword reads)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reads = []

    def read_voltages(self, program_levels, pe_cycles, **kwargs):
        voltages = super().read_voltages(program_levels, pe_cycles, **kwargs)
        self.reads.append((np.asarray(program_levels), voltages))
        return voltages


class TestThresholdsFromTheChannel:
    """A channel with its own level means is hard-read at its own
    thresholds, not at the default ones."""

    @pytest.fixture
    def shifted(self) -> _RecordingSimulator:
        """Levels 1-7 sit 25 V above the default means."""
        means = np.array(FlashParameters().level_means)
        means[1:] += 25.0
        return _RecordingSimulator(FlashParameters(level_means=tuple(means)),
                                   rng=np.random.default_rng(0))

    @staticmethod
    def _lower_page_errors(reads, thresholds) -> int:
        return sum(int(np.count_nonzero(
            levels_to_pages(hard_read(voltages, thresholds))[..., LOWER_PAGE]
            != levels_to_pages(levels)[..., LOWER_PAGE]))
            for levels, voltages in reads)

    @pytest.mark.parametrize("campaign", ["bch", "ldpc"])
    def test_raw_errors_are_hard_reads_at_the_channel_thresholds(
            self, shifted, campaign):
        if campaign == "bch":
            result = evaluate_bch_over_channel(
                BCHCode(m=6, t=4), shifted, 4000, num_codewords=64, seed=3)
        else:
            result = evaluate_ldpc_over_channel(
                LDPCCode.regular(n=96, rng=np.random.default_rng(3)),
                shifted, 4000, num_codewords=64, seed=3)
        own = self._lower_page_errors(
            shifted.reads, default_read_thresholds(shifted.params))
        assert int(result.frame_records[:, 0].sum()) == own
        # The default thresholds sit 12.5-25 V below the channel's and
        # would count many times more raw errors.
        assert 10 * own < self._lower_page_errors(shifted.reads,
                                                  default_read_thresholds())

    def test_density_table_spans_the_channel_window(self):
        params = FlashParameters(voltage_min=-50.0, voltage_max=700.0)
        channel = SimulatorChannel(params, geometry=BlockGeometry(16, 16))
        tables = [densities_from_channel(channel, 7000, num_blocks=1,
                                         rng=np.random.default_rng(5))
                  for _ in range(2)]
        assert tables[0].grid.shape == (128,)
        assert tables[0].grid[0] == pytest.approx(-50.0 + 750.0 / 256)
        assert tables[0].grid[-1] == pytest.approx(700.0 - 750.0 / 256)
        np.testing.assert_array_equal(tables[0].densities,
                                      tables[1].densities)


class TestRequiredBCHCapability:
    def test_zero_error_rate_needs_no_correction(self):
        assert required_bch_capability(0.0, 1024) == 0

    def test_capability_grows_with_error_rate(self):
        low = required_bch_capability(1e-4, 1024)
        high = required_bch_capability(1e-2, 1024)
        assert high > low

    def test_capability_grows_with_codeword_length(self):
        short = required_bch_capability(1e-3, 512)
        long = required_bch_capability(1e-3, 4096)
        assert long > short

    def test_stricter_target_needs_more_correction(self):
        loose = required_bch_capability(1e-3, 1024, target_frame_error_rate=1e-2)
        strict = required_bch_capability(1e-3, 1024, target_frame_error_rate=1e-6)
        assert strict > loose

    def test_validation(self):
        with pytest.raises(ValueError):
            required_bch_capability(-0.1, 100)
        with pytest.raises(ValueError):
            required_bch_capability(0.01, 0)
        with pytest.raises(ValueError):
            required_bch_capability(0.01, 100, target_frame_error_rate=1.5)
        with pytest.raises(ValueError):
            required_bch_capability(0.4, 100, max_t=2)
