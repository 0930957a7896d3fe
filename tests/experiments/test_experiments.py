"""Tests for the experiment drivers (Figs. 2, 4, 5, 6 and Remark 3).

These tests use very small workloads and an *untrained* generative model —
they validate the plumbing of every driver (data flow, normalisation,
result/row/format contracts), while the benchmark harness produces the
full-quality numbers.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.channel import GenerativeChannel, SimulatorChannel
from repro.core import LEVEL_CHANNELS, ModelConfig, build_model
from repro.data import generate_paired_dataset
from repro.experiments import (
    ExperimentSetup,
    PAPER_PE_CYCLES,
    run_fig2,
    run_fig4,
    run_fig5,
    run_fig6,
    run_remark3,
)
from repro.flash import BlockGeometry, per_level_error_counts
from repro.flash.patterns import BITLINE, TOP_ERROR_PATTERNS, WORDLINE


@pytest.fixture(scope="module")
def channel():
    return SimulatorChannel(rng=np.random.default_rng(41))


@pytest.fixture(scope="module")
def untrained_model():
    config = ModelConfig.tiny()
    model = build_model("cvae_gan", config, rng=np.random.default_rng(42))
    return GenerativeChannel(model, rng=np.random.default_rng(43))


@pytest.fixture(scope="module")
def evaluation_arrays(channel):
    arrays = {}
    for pe in (4000, 7000):
        program, voltages = channel.paired_blocks(6, pe)
        # Crop to the tiny model's 8x8 array size.
        from repro.data import crop_blocks
        arrays[pe] = (crop_blocks(program, 8), crop_blocks(voltages, 8))
    return arrays


class TestExperimentSetup:
    def test_quick_scale_defaults(self):
        setup = ExperimentSetup(scale="quick", arrays_per_pe=4)
        assert setup.array_size == 16
        assert setup.model_config().array_size == 16

    def test_quick_recipe_as_the_readme_records_it(self):
        """The README's table of quick-scale departures, value by value."""
        setup = ExperimentSetup()
        config = setup.model_config()
        assert setup.array_size == 16
        assert config.down_channels == (8, 16, 32, 32)
        assert config.encoder_channels == 16
        assert config.discriminator_channels == (16, 32)
        assert config.batch_size == 16
        arrays = setup.arrays_per_pe * len(setup.pe_cycles)
        assert (setup.training_epochs, arrays) == (6, 450)
        assert setup.training_epochs \
            * math.ceil(arrays / config.batch_size) == 174
        assert config.learning_rate == 1e-3
        assert ModelConfig().learning_rate == 2e-4
        assert config.samples_per_array == 4
        assert LEVEL_CHANNELS == 1

    def test_paper_scale_config(self):
        setup = ExperimentSetup(scale="paper", arrays_per_pe=4)
        assert setup.array_size == 64
        assert setup.model_config() == ModelConfig.paper()

    def test_rejects_unknown_scale(self):
        with pytest.raises(ValueError):
            ExperimentSetup(scale="huge")

    def test_dataset_cached(self):
        setup = ExperimentSetup(arrays_per_pe=4, pe_cycles=(4000,))
        assert setup.dataset() is setup.dataset()

    def test_own_training_length_is_the_default_model(self):
        """Passing the setup's own length trains no second model; another
        length does."""
        setup = ExperimentSetup(arrays_per_pe=2, pe_cycles=(4000,),
                                training_epochs=1)
        default = setup.train_generative_model("cvae")
        assert setup.train_generative_model("cvae", epochs=1) is default
        assert setup.train_generative_model("cvae", epochs=2) is not default

    def test_paper_pe_cycles_constant(self):
        assert PAPER_PE_CYCLES == (4000, 7000, 10000)


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self, channel):
        return run_fig2(channel, blocks_per_pe=25)

    def test_covers_all_read_points(self, result):
        assert set(result.level_error_rates) == {4000, 7000, 10000}

    def test_error_rate_monotone(self, result):
        rates = result.level_error_rates
        assert rates[4000] < rates[10000]

    def test_reference_pattern_normalised_to_one(self, result):
        assert result.pattern_counts[("707", BITLINE)][4000] == pytest.approx(1.0)

    def test_pattern_counts_grow_with_wear(self, result):
        counts = result.pattern_counts[("707", BITLINE)]
        assert counts[10000] > counts[4000]

    def test_rows_and_format(self, result):
        rows = result.rows()
        assert len(rows) == 9
        text = result.format()
        assert "707" in text and "level_error_rate" in text

    def test_rejects_zero_blocks(self, channel):
        with pytest.raises(ValueError):
            run_fig2(channel, blocks_per_pe=0)

    def test_rng_alone_seeds_the_default_simulator_and_the_sweep(self):
        """Without a channel, ``rng`` becomes the default simulator's
        generator, and the sweep reads exactly as on a simulator built
        with it."""
        alone = run_fig2(pe_cycles=(4000, 10000), blocks_per_pe=6,
                         rng=np.random.default_rng(4))
        built = run_fig2(SimulatorChannel(rng=np.random.default_rng(4)),
                         pe_cycles=(4000, 10000), blocks_per_pe=6)
        assert alone.level_error_rates == built.level_error_rates
        assert alone.raw_pattern_counts == built.raw_pattern_counts

    def test_rng_decides_and_leaves_the_channel_generator_alone(self):
        """Given ``rng``, a built backend's own generator is not drawn
        from: ``rng`` alone seeds the sweep."""
        untouched = np.random.default_rng(3).bit_generator.state
        results = []
        for seed in (1, 2, 1):
            channel = SimulatorChannel(rng=np.random.default_rng(3))
            result = run_fig2(channel, pe_cycles=(4000, 10000),
                              blocks_per_pe=6, rng=np.random.default_rng(seed))
            assert channel.rng.bit_generator.state == untouched
            results.append((result.level_error_rates,
                            result.raw_pattern_counts))
        assert results[0] != results[1]
        assert results[0] == results[2]

    #: Level error rate band per read point at 300 blocks: 20 seeds read
    #: 0.00482-0.00506, 0.00830-0.00860 and 0.01269-0.01317; each band is
    #: their mean +- 5 standard deviations, rounded outward.
    RATE_BANDS = {4000: (0.0046, 0.0053), 7000: (0.0079, 0.0089),
                  10000: (0.0123, 0.0136)}

    @pytest.fixture(scope="class")
    def paper_sample(self):
        """Fig. 2 at 300 blocks per read point, enough to name the leader."""
        return run_fig2(SimulatorChannel(rng=np.random.default_rng(7)),
                            blocks_per_pe=300)

    @pytest.mark.parametrize("pe", PAPER_PE_CYCLES)
    def test_bitline_707_leads(self, paper_sample, pe):
        counts = {key: by_pe[pe]
                  for key, by_pe in paper_sample.raw_pattern_counts.items()}
        assert max(counts, key=counts.get) == ("707", BITLINE)

    @pytest.mark.parametrize("pe", PAPER_PE_CYCLES)
    def test_level_error_rate_in_band(self, paper_sample, pe):
        low, high = self.RATE_BANDS[pe]
        assert low < paper_sample.level_error_rates[pe] < high

    @pytest.mark.parametrize("pe", PAPER_PE_CYCLES)
    @pytest.mark.parametrize("pattern", ["707", "706", "607"])
    def test_bitline_outnumbers_wordline(self, paper_sample, pattern, pe):
        """The bit-line coupling dominates: over 20 seeds the bit-line
        count was at least 1.29x its word-line twin's."""
        counts = paper_sample.raw_pattern_counts
        assert counts[(pattern, BITLINE)][pe] > counts[(pattern, WORDLINE)][pe]

    @pytest.mark.parametrize("key", TOP_ERROR_PATTERNS,
                             ids=["-".join(key) for key in TOP_ERROR_PATTERNS])
    def test_every_pattern_count_grows_with_wear(self, paper_sample, key):
        """Fig. 2's trend: over 20 seeds every count grew at least 1.55x
        from the first read point to the last."""
        counts = paper_sample.raw_pattern_counts[key]
        assert counts[PAPER_PE_CYCLES[0]] < counts[PAPER_PE_CYCLES[-1]]


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self, evaluation_arrays, untrained_model):
        return run_fig4(evaluation_arrays, untrained_model, bins=80)

    def test_measured_and_modeled_pdfs_present(self, result):
        assert set(result.measured) == {4000, 7000}
        assert set(result.modeled) == {4000, 7000}
        assert set(result.measured[4000]) == set(range(1, 8))

    def test_summary_rows_cover_levels_and_pe(self, result):
        rows = result.rows()
        assert len(rows) == 2 * 7
        assert {"pe_cycles", "level", "measured_peak", "modeled_peak",
                "tv_distance"} <= set(rows[0])

    def test_measured_peak_drops_with_wear(self, result):
        peaks = {row["pe_cycles"]: row["measured_peak"]
                 for row in result.rows() if row["level"] == 4}
        assert peaks[7000] < peaks[4000]

    def test_tv_distances_bounded(self, result):
        assert all(0.0 <= row["tv_distance"] <= 1.0 for row in result.rows())

    def test_format_mentions_fig4(self, result):
        assert "Fig. 4" in result.format()


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self, channel, evaluation_arrays, untrained_model):
        dataset = generate_paired_dataset(channel, pe_cycles=(4000, 7000),
                                          arrays_per_pe=30, array_size=32)
        return run_fig5(dataset, evaluation_arrays,
                        generative_model=untrained_model,
                        baseline_iterations=120,
                        rng=np.random.default_rng(7))

    def test_all_models_present(self, result):
        for pe in (4000, 7000):
            assert set(result.counts[pe]) == {"M", "cV-G", "G", "NL", "S't"}

    def test_measured_reference_normalised(self, result):
        assert result.counts[4000]["M"].sum() == pytest.approx(1.0)

    def test_measured_errors_grow_with_wear(self, result):
        totals = result.totals()
        assert totals[7000]["M"] > totals[4000]["M"]

    def test_statistical_fits_track_measured_totals(self, result):
        """The NL fit must land within a factor ~2 of the measured total."""
        totals = result.totals()
        for pe in (4000, 7000):
            assert 0.4 * totals[pe]["M"] < totals[pe]["NL"] < 2.5 * totals[pe]["M"]

    def test_rows_have_per_level_stacks(self, result):
        rows = result.rows()
        assert all(f"level_{index}" in rows[0] for index in range(1, 8))

    def test_measured_stacks_are_the_level_error_counts(self, result,
                                                        evaluation_arrays):
        """The measured bars are ``per_level_error_counts`` of levels 1..7
        (level 0 left out, as in the paper), over the measured total at
        the first P/E count."""
        for pe in (4000, 7000):
            counts = per_level_error_counts(*evaluation_arrays[pe])[1:]
            np.testing.assert_array_equal(
                result.counts[pe]["M"], counts / result.normalization_total)
        assert result.normalization_total == \
            per_level_error_counts(*evaluation_arrays[4000])[1:].sum()

    def test_every_model_shares_the_measured_reference(self, result):
        """Each bar is an integer error count over the one measured total."""
        for by_model in result.counts.values():
            for stacks in by_model.values():
                counts = stacks * result.normalization_total
                np.testing.assert_allclose(counts, np.round(counts),
                                           rtol=0, atol=1e-9)

    def test_rows_total_is_the_sum_of_the_level_stacks(self, result):
        rows = result.rows()
        assert [(row["pe_cycles"], row["model"]) for row in rows] == \
            [(pe, label) for pe in (4000, 7000)
             for label in ("M", "cV-G", "G", "NL", "S't")]
        for row in rows:
            levels = [row[f"level_{index}"] for index in range(1, 8)]
            assert row["total"] == pytest.approx(sum(levels))
            np.testing.assert_array_equal(
                levels, result.counts[row["pe_cycles"]][row["model"]])

    def test_no_measured_errors_rejected(self):
        """Without a measured error at the first P/E count there is no
        reference to normalise by."""
        small = SimulatorChannel(geometry=BlockGeometry(8, 8),
                                 rng=np.random.default_rng(41))
        dataset = generate_paired_dataset(small, pe_cycles=(4000,),
                                          arrays_per_pe=4, array_size=8)
        program = np.tile(np.arange(8), (2, 8, 1))
        noiseless = {4000: (program, small.params.means_array[program])}
        with pytest.raises(RuntimeError, match="no measured errors"):
            run_fig5(dataset, noiseless, baseline_iterations=5,
                     rng=np.random.default_rng(7))

    def test_format_contains_reference_note(self, result):
        assert "4000" in result.format()


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self, untrained_model):
        # A dedicated channel: the measured pie must not depend on how much
        # of the module fixture's stream earlier test classes consumed.
        channel = SimulatorChannel(rng=np.random.default_rng(41))
        program, voltages = channel.paired_blocks(30, 7000)
        from repro.data import crop_blocks
        return run_fig6(crop_blocks(program, 8), crop_blocks(voltages, 8),
                        untrained_model, pe_cycles=7000)

    def test_profiles_for_both_directions(self, result):
        assert set(result.measured) == {WORDLINE, BITLINE}
        assert set(result.modeled) == {WORDLINE, BITLINE}

    def test_measured_bitline_dominated_by_707(self, result):
        frequencies = {key: value
                       for key, value in result.measured[BITLINE].items()
                       if not key.startswith("__")}
        assert max(frequencies, key=frequencies.get) == "707"

    def test_rank_agreement_bounded(self, result):
        for value in result.rank_agreement_top5.values():
            assert 0.0 <= value <= 1.0

    def test_rows_compare_measured_and_modeled(self, result):
        rows = result.rows()
        assert rows
        assert {"direction", "pattern", "measured_fraction",
                "modeled_fraction"} <= set(rows[0])

    def test_format_contains_pie_summaries(self, result):
        text = result.format()
        assert "measured (WL)" in text and "cVAE-GAN (BL)" in text


class TestRemark3:
    @pytest.fixture(scope="class")
    def result(self, channel):
        config = replace(ModelConfig.tiny(), epochs=1)
        dataset = generate_paired_dataset(channel, pe_cycles=(4000,),
                                          arrays_per_pe=16, array_size=8)
        from repro.data import crop_blocks
        program, voltages = channel.paired_blocks(4, 4000)
        evaluation = {4000: (crop_blocks(program, 8),
                             crop_blocks(voltages, 8))}
        return run_remark3(dataset, evaluation, config,
                           architectures=("cvae_gan", "cvae"), seed=3)

    def test_requested_architectures_present(self, result):
        assert set(result.tv_distances) == {"cvae_gan", "cvae"}

    def test_tv_values_bounded(self, result):
        for by_pe in result.tv_distances.values():
            for value in by_pe.values():
                assert 0.0 <= value <= 1.0

    def test_best_architecture_is_one_of_the_candidates(self, result):
        assert result.best_architecture() in {"cvae_gan", "cvae"}

    def test_rows_and_format(self, result):
        rows = result.rows()
        assert len(rows) == 2
        assert "tv_mean" in rows[0]
        assert "Remark 3" in result.format()


#: One empty-sweep call per figure, keyed by the argument it leaves
#: empty.
EMPTY_SWEEPS = {
    "pe_cycles": lambda model, arrays, dataset: run_fig2(pe_cycles=()),
    "measured_arrays": lambda model, arrays, dataset: run_fig4({}, model),
    "evaluation_arrays": lambda model, arrays, dataset: run_fig5(
        dataset, {}, generative_model=model, baseline_iterations=5),
    "architectures": lambda model, arrays, dataset: run_remark3(
        dataset, arrays, replace(ModelConfig.tiny(), epochs=1),
        architectures=()),
}


@pytest.mark.parametrize("argument", list(EMPTY_SWEEPS))
def test_empty_sweep_raises_naming_its_argument(argument, untrained_model,
                                                evaluation_arrays):
    small = SimulatorChannel(geometry=BlockGeometry(8, 8),
                             rng=np.random.default_rng(5))
    dataset = generate_paired_dataset(small, pe_cycles=(4000,),
                                      arrays_per_pe=4, array_size=8)
    with pytest.raises(ValueError, match=argument):
        EMPTY_SWEEPS[argument](untrained_model, evaluation_arrays, dataset)
