"""Benchmark regenerating Fig. 2: error-prone pattern counts vs P/E cycles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import SimulatorChannel
from repro.experiments import run_fig2

from benchmarks.conftest import write_result


@pytest.mark.benchmark(group="fig2")
def test_fig2_pattern_counts_and_error_rate(benchmark, results_dir):
    """Fig. 2: counts of the 9 worst patterns and the level error rate.

    300 blocks per read point: at 30, bit-line 707 (the paper's leader)
    lost the lead in 5 of 60 cases (20 seeds x 3 read points).
    """
    blocks = 300

    def regenerate():
        channel = SimulatorChannel(rng=np.random.default_rng(7))
        return run_fig2(channel, blocks_per_pe=blocks)

    result = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    write_result(results_dir, "fig2.txt", result.format())

    # Shape checks mirroring the paper's observations.
    assert result.level_error_rates[4000] < result.level_error_rates[10000]
    assert result.pattern_counts[("707", "bl")][4000] == pytest.approx(1.0)
    counts_7000 = {key: value[7000]
                   for key, value in result.pattern_counts.items()}
    assert max(counts_7000, key=counts_7000.get)[0] == "707"
