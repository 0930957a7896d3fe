"""Tests for pattern analysis, the flash channel and the cycling experiment."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.channel import SimulatorChannel
from repro.flash import (
    BITLINE,
    WORDLINE,
    BlockGeometry,
    FlashChannel,
    FlashParameters,
    PECyclingExperiment,
    TOP_ERROR_PATTERNS,
    count_error_patterns,
    pattern_label,
    pattern_relative_frequencies,
    top_error_pattern_counts,
)
from repro.flash.cell import NUM_LEVELS


class TestPatternExtraction:
    def test_pattern_label(self):
        assert pattern_label(7, 0, 7) == "707"
        assert pattern_label(6, 0, 7) == "607"

    def test_pattern_label_rejects_invalid(self):
        with pytest.raises(ValueError):
            pattern_label(8, 0, 0)

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(ValueError):
            count_error_patterns(np.arange(5), np.arange(5.0), WORDLINE)

    def test_top_error_patterns_all_have_victim_zero(self):
        assert all(pattern[1] == "0" for pattern, _ in TOP_ERROR_PATTERNS)
        assert ("707", BITLINE) in TOP_ERROR_PATTERNS


class TestErrorPatternCounting:
    def test_no_errors_gives_empty_counter(self, params):
        levels = np.zeros((8, 8), dtype=int)
        voltages = np.full((8, 8), params.means_array[0])
        counts = count_error_patterns(levels, voltages, BITLINE, params=params)
        assert sum(counts.values()) == 0

    def test_constructed_error_is_attributed_to_its_pattern(self, params):
        """An erased victim pushed above Vth(01) counts toward its pattern."""
        levels = np.zeros((3, 3), dtype=int)
        levels[0, 1], levels[2, 1] = 7, 6          # BL pattern 706
        voltages = params.means_array[levels].astype(float)
        voltages[1, 1] = 120.0                     # above Vth(01)
        counts = count_error_patterns(levels, voltages, BITLINE, params=params)
        assert counts == {"706": 1}

    def test_wordline_direction_uses_row_neighbours(self, params):
        levels = np.zeros((3, 3), dtype=int)
        levels[1, 0], levels[1, 2] = 5, 7          # WL pattern 507
        voltages = params.means_array[levels].astype(float)
        voltages[1, 1] = 120.0
        counts = count_error_patterns(levels, voltages, WORDLINE, params=params)
        assert counts == {"507": 1}

    def test_non_victim_errors_ignored(self, params):
        levels = np.full((3, 3), 3, dtype=int)
        voltages = params.means_array[levels].astype(float)
        voltages[1, 1] = 500.0                     # error at level 3, not level 0
        counts = count_error_patterns(levels, voltages, BITLINE,
                                      victim_level=0, params=params)
        assert sum(counts.values()) == 0

    def test_custom_victim_level(self, params):
        levels = np.full((3, 3), 3, dtype=int)
        voltages = params.means_array[levels].astype(float)
        voltages[1, 1] = 500.0
        counts = count_error_patterns(levels, voltages, BITLINE,
                                      victim_level=3, params=params)
        assert counts == {"333": 1}

    def test_victims_without_both_neighbours_are_not_counted(self, params):
        """Only cells with a neighbour on each side along ``direction``
        form a pattern: an error in the first column counts on the
        bitline, where it is interior, and not on the wordline."""
        levels = np.zeros((3, 3), dtype=int)
        voltages = params.means_array[levels].astype(float)
        voltages[1, 0] = 120.0                     # above Vth(01)
        assert count_error_patterns(levels, voltages, BITLINE,
                                    params=params) == {"000": 1}
        assert count_error_patterns(levels, voltages, WORDLINE,
                                    params=params) == {}

    def test_stacked_arrays_count_as_the_sum_of_each(self, channel):
        """A stack of arrays counts each array's patterns; no pattern
        spans two arrays of the stack."""
        program, voltages = channel.paired_blocks(4, 10000)
        for direction in (BITLINE, WORDLINE):
            stacked = count_error_patterns(program, voltages, direction)
            assert sum(stacked.values()) > 0
            separate = sum((count_error_patterns(levels, volts, direction)
                            for levels, volts in zip(program, voltages)),
                           Counter())
            assert stacked == separate

    def test_invalid_direction_rejected(self, params):
        with pytest.raises(ValueError):
            count_error_patterns(np.zeros((3, 3), dtype=int),
                                 np.zeros((3, 3)), "diagonal", params=params)

    def test_shape_mismatch_rejected(self, params):
        with pytest.raises(ValueError):
            count_error_patterns(np.zeros((3, 3), dtype=int),
                                 np.zeros((4, 4)), BITLINE, params=params)

    def test_relative_frequencies_sum_to_one(self, channel):
        program, voltages = channel.paired_blocks(20, 10000)
        counts = count_error_patterns(program, voltages, BITLINE)
        frequencies = pattern_relative_frequencies(counts)
        if frequencies:
            assert sum(frequencies.values()) == pytest.approx(1.0)

    def test_relative_frequencies_empty_counter(self):
        assert pattern_relative_frequencies({}) == {}

    def test_top_error_pattern_counts_keys(self, channel):
        program, voltages = channel.paired_blocks(5, 7000)
        counts = top_error_pattern_counts(program, voltages)
        assert set(counts) == set(TOP_ERROR_PATTERNS)


class TestFlashChannel:
    def test_read_shape_matches_input(self, small_channel, rng):
        levels = small_channel.program_random_block()
        assert FlashChannel().read(levels, 4000, rng=rng).shape == levels.shape

    def test_read_rejects_invalid_levels(self, rng):
        with pytest.raises(ValueError):
            FlashChannel().read(np.full((4, 4), 9), 4000, rng=rng)

    @pytest.mark.parametrize("pe_cycles", [-1, np.nan, np.inf])
    def test_read_rejects_negative_or_non_finite_pe(self, rng, pe_cycles):
        with pytest.raises(ValueError, match="finite and non-negative"):
            FlashChannel().read(np.zeros((4, 4), dtype=int), pe_cycles,
                                rng=rng)

    def test_read_rejects_one_dimensional(self, rng):
        with pytest.raises(ValueError):
            FlashChannel().read(np.zeros(4, dtype=int), 4000, rng=rng)

    def test_program_random_block_levels_valid(self, channel):
        block = channel.program_random_block()
        assert block.shape == channel.geometry.shape
        assert block.min() >= 0 and block.max() < NUM_LEVELS

    def test_program_random_block_covers_all_levels(self, channel):
        block = channel.program_random_block()
        assert len(np.unique(block)) == NUM_LEVELS

    def test_apply_program_errors_rate(self):
        params = FlashParameters(program_error_rate=0.05)
        levels = np.full((200, 200), 4)
        programmed = FlashChannel(params).apply_program_errors(
            levels, np.random.default_rng(1))
        rate = np.mean(programmed != levels)
        assert 0.03 < rate < 0.07

    def test_apply_program_errors_adjacent_only(self):
        params = FlashParameters(program_error_rate=0.5)
        levels = np.full((50, 50), 4)
        programmed = FlashChannel(params).apply_program_errors(
            levels, np.random.default_rng(2))
        assert set(np.unique(programmed)).issubset({3, 4, 5})

    def test_apply_program_errors_zero_rate_is_identity(self):
        params = FlashParameters(program_error_rate=0.0)
        levels = np.full((10, 10), 2)
        np.testing.assert_array_equal(
            FlashChannel(params).apply_program_errors(
                levels, np.random.default_rng(3)),
            levels)

    @pytest.mark.parametrize("apply_ici", [True, False])
    @pytest.mark.parametrize("apply_program_errors", [False, True])
    def test_read_rng_argument_matches_own_generator(self, apply_ici,
                                                     apply_program_errors):
        """A simulator's paired draw is its program followed by the physics
        read, both from one generator: its own, or a per-call one of the
        same seed, which leaves its own generator where it was."""
        params = FlashParameters(program_error_rate=0.05)
        geometry = BlockGeometry(16, 16)
        generator = np.random.default_rng(21)
        program = generator.integers(0, NUM_LEVELS, size=(2, 16, 16))
        want = FlashChannel(params).read(
            program, 7000, rng=generator, apply_ici=apply_ici,
            apply_program_errors=apply_program_errors)
        own = SimulatorChannel(params, geometry, np.random.default_rng(21),
                               apply_ici=apply_ici)
        other = SimulatorChannel(params, geometry, np.random.default_rng(99),
                                 apply_ici=apply_ici)
        before = other.rng.bit_generator.state
        for channel, rng in ((own, None),
                             (other, np.random.default_rng(21))):
            got_program, got = channel.paired_blocks(
                2, 7000, apply_program_errors=apply_program_errors, rng=rng)
            np.testing.assert_array_equal(got_program, program)
            np.testing.assert_array_equal(got, want)
        assert other.rng.bit_generator.state == before

    def test_paired_blocks_shapes(self, small_channel):
        program, voltages = small_channel.paired_blocks(3, 7000)
        assert program.shape == (3, 16, 16)
        assert voltages.shape == (3, 16, 16)

    def test_paired_blocks_rejects_zero_blocks(self, small_channel):
        with pytest.raises(ValueError):
            small_channel.paired_blocks(0, 4000)

    def test_ici_increases_erased_cell_voltage(self, params):
        channel = FlashChannel(params)
        levels = np.zeros((32, 32), dtype=int)
        levels[::2, :] = 7   # alternate rows of level 7: strong BL aggressors
        with_ici = channel.read(levels, 4000, rng=np.random.default_rng(5),
                                apply_ici=True)
        without_ici = channel.read(levels, 4000,
                                   rng=np.random.default_rng(5),
                                   apply_ici=False)
        erased_mask = levels == 0
        assert with_ici[erased_mask].mean() > without_ici[erased_mask].mean() + 10

    def test_conditional_pdf_reference_integrates_to_one(self):
        grid = np.linspace(0, 650, 2001)
        pdf = FlashChannel().conditional_pdf_reference(3, 7000, grid)
        assert np.trapezoid(pdf, grid) == pytest.approx(1.0, abs=1e-3)

    def test_bitline_patterns_more_error_prone_than_wordline(self):
        """Paper: pattern 707 in the BL direction is the most severe."""
        channel = SimulatorChannel(rng=np.random.default_rng(123))
        program, voltages = channel.paired_blocks(60, 7000)
        wl_counts = count_error_patterns(program, voltages, WORDLINE)
        bl_counts = count_error_patterns(program, voltages, BITLINE)
        wl_frequencies = pattern_relative_frequencies(wl_counts)
        bl_frequencies = pattern_relative_frequencies(bl_counts)
        assert bl_frequencies.get("707", 0) > wl_frequencies.get("707", 0)
        # 707 must be the dominant BL pattern.
        assert max(bl_frequencies, key=bl_frequencies.get) == "707"

    def test_flash_imports_no_other_repro_package(self):
        """``repro.flash`` stands alone: the cycling experiment and the
        endurance sweep take protocol channels by duck typing, never by
        import."""
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src + (os.pathsep + path if path else "")}
        script = ("import sys, repro.flash; print(sorted({name.split('.')[1]"
                  " for name in sys.modules if name.startswith('repro.')}))")
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "['flash']"


class TestCyclingExperiment:
    def test_default_read_points(self, small_channel):
        experiment = PECyclingExperiment(small_channel,
                                         blocks_per_read_point=1)
        assert experiment.read_points == (4000, 7000, 10000)

    def test_run_returns_one_record_per_read_point(self, rng):
        channel = SimulatorChannel(geometry=BlockGeometry(16, 16), rng=rng)
        experiment = PECyclingExperiment(channel=channel,
                                         read_points=(1000, 2000),
                                         blocks_per_read_point=2)
        records = experiment.run()
        assert [record.pe_cycles for record in records] == [1000, 2000]
        assert all(record.num_blocks == 2 for record in records)

    def test_record_properties(self, rng):
        channel = SimulatorChannel(geometry=BlockGeometry(8, 8), rng=rng)
        experiment = PECyclingExperiment(channel=channel, read_points=(4000,),
                                         blocks_per_read_point=3)
        record = experiment.run()[0]
        assert record.num_cells == 3 * 64
        assert 0.0 <= record.level_error_rate() <= 1.0

    def test_rejects_empty_read_points(self, small_channel):
        with pytest.raises(ValueError):
            PECyclingExperiment(small_channel, read_points=())

    def test_rejects_non_positive_read_points(self, small_channel):
        with pytest.raises(ValueError):
            PECyclingExperiment(small_channel, read_points=(0,))

    def test_rejects_zero_blocks(self, small_channel):
        with pytest.raises(ValueError):
            PECyclingExperiment(small_channel, blocks_per_read_point=0)
