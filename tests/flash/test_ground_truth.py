"""The simulator's statistics, pinned: it is the reproduction's ground truth.

Every fidelity metric compares a channel model against the simulator
(:class:`repro.channel.SimulatorChannel` over the physics read of
:class:`repro.flash.FlashChannel`), the stand-in for the paper's measured
chip.  These tests hold its isolated-cell draws to the density it writes
down (:meth:`FlashChannel.conditional_pdf_reference`) at each paper read
point, bin by bin and tail by tail, and its wear trend level by level.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import SimulatorChannel
from repro.flash import (
    FlashChannel,
    default_read_thresholds,
    hard_read,
    per_level_error_rates,
)
from repro.flash.cell import NUM_LEVELS
from repro.flash.cycling import DEFAULT_READ_POINTS

#: Isolated-cell reads per (level, P/E) condition: 64 blocks of 64 x 64.
READ_SHAPE = (64, 64, 64)
#: Equal-width histogram bins over ``[voltage_min, voltage_max]``.
NUM_BINS = 200
#: Largest total variation distance between sampled and reference bins;
#: over 20 seeds x 24 conditions the worst seen was 0.0053.
MAX_TVD = 0.02
#: Read-error tails of isolated cells: every programmed level's lower tail
#: and, below the top level, its upper tail.  (An isolated erased cell never
#: reads in error; its errors come from ICI.)
TAILS = ([(level, "lower") for level in range(1, NUM_LEVELS)]
         + [(level, "upper") for level in range(1, NUM_LEVELS - 1)])
#: Allowed gap between a tail's sampled and reference error rates, in
#: binomial standard deviations; over 20 seeds x 39 tails the worst was 4.03.
MAX_Z = 5.0
#: Blocks read per P/E point for the per-level wear trend; over 20 seeds
#: every level rose at every step (each step by at least 1.23x).
WEAR_BLOCKS = 50


def _reference_bin_probabilities(channel: FlashChannel, level: int,
                                 pe_cycles: float,
                                 edges: np.ndarray) -> np.ndarray:
    """Bin masses of the reference density.

    The sampler clips to the voltage window, so the reference's mass below
    and above the window folds into the edge bins.
    """
    wear = channel.wear
    mean = wear.level_means(pe_cycles)[level]
    reach = 40 * max(wear.level_sigmas(pe_cycles)[level],
                     wear.tail_scales(pe_cycles)[level])
    grid = np.linspace(min(edges[0], mean - reach),
                       max(edges[-1], mean + reach), 200_001)
    pdf = channel.conditional_pdf_reference(level, pe_cycles, grid)
    cdf = np.concatenate(
        [[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(grid))])
    at_edges = np.interp(edges, grid, cdf)
    at_edges[0], at_edges[-1] = 0.0, cdf[-1]
    return np.diff(at_edges)


def _isolated_reads(level: int, pe_cycles: float):
    """A seeded channel and its isolated-cell reads (no ICI, no program
    errors) of ``READ_SHAPE`` cells programmed to ``level``."""
    channel = FlashChannel()
    voltages = channel.read(np.full(READ_SHAPE, level), pe_cycles,
                            rng=np.random.default_rng(0), apply_ici=False)
    return channel, voltages


@pytest.mark.parametrize("pe_cycles", DEFAULT_READ_POINTS)
@pytest.mark.parametrize("level", range(NUM_LEVELS))
def test_isolated_reads_match_reference_density(level, pe_cycles):
    channel, voltages = _isolated_reads(level, pe_cycles)
    params = channel.params
    edges = np.linspace(params.voltage_min, params.voltage_max, NUM_BINS + 1)
    sampled = np.histogram(voltages, bins=edges)[0] / voltages.size
    reference = _reference_bin_probabilities(channel, level, pe_cycles,
                                             edges)
    assert 0.5 * np.abs(sampled - reference).sum() < MAX_TVD


@pytest.mark.parametrize("pe_cycles", DEFAULT_READ_POINTS)
@pytest.mark.parametrize("level,tail", TAILS)
def test_isolated_read_errors_match_reference_tail(level, tail, pe_cycles):
    """The share of reads past one of the level's read thresholds is the
    reference's mass there: the tails the level error counts come from."""
    channel, voltages = _isolated_reads(level, pe_cycles)
    params = channel.params
    thresholds = default_read_thresholds(params)
    edges = np.concatenate([[params.voltage_min], thresholds,
                            [params.voltage_max]])
    per_read_level = _reference_bin_probabilities(channel, level, pe_cycles,
                                                  edges)
    hard = hard_read(voltages, thresholds)
    if tail == "lower":
        expected = per_read_level[:level].sum()
        observed = np.mean(hard < level)
    else:
        expected = per_read_level[level + 1:].sum()
        observed = np.mean(hard > level)
    sigma = np.sqrt(expected * (1 - expected) / voltages.size)
    assert abs(observed - expected) < MAX_Z * sigma


@pytest.fixture(scope="module")
def per_level_rates() -> np.ndarray:
    """``(read point, level)`` error rates of paired blocks (ICI and
    program errors on), one row per paper read point."""
    channel = SimulatorChannel(rng=np.random.default_rng(0))
    rows = []
    for pe_cycles in DEFAULT_READ_POINTS:
        program, voltages = channel.paired_blocks(WEAR_BLOCKS, pe_cycles)
        rows.append(per_level_error_rates(program, voltages,
                                          params=channel.params))
    return np.array(rows)


@pytest.mark.parametrize("level", range(NUM_LEVELS))
def test_each_level_error_rate_grows_with_wear(per_level_rates, level):
    young, middle, old = per_level_rates[:, level]
    assert young < middle < old
