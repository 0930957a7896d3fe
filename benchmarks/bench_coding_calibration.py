"""Benchmarks of the constrained-coding and threshold-calibration consumers.

Neither is a figure of the paper, but both are the "design tool" uses the
paper motivates: time-aware constrained codes (Section II-B) and read-retry
threshold tuning against the wear the model predicts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding import (
    TimeAwareCodeSelector,
    constraint_tradeoff_curve,
    ici_constraint_capacity,
    rate_penalty,
)
from repro.eval import format_table
from repro.flash import calibrate_thresholds

from benchmarks.conftest import write_result


@pytest.mark.benchmark(group="coding")
def test_time_aware_constraint_schedule(benchmark, results_dir, setup):
    """Constraint capacity, erased-victim coding gain and the schedule."""
    channel = setup.channel
    blocks = 6

    def evaluate():
        rows = []
        for pe_cycles in setup.pe_cycles:
            points = constraint_tradeoff_curve(channel, pe_cycles,
                                               high_levels=(6,),
                                               num_blocks=blocks,
                                               metric="erased")
            unconstrained, constrained = points
            rows.append({
                "pe_cycles": pe_cycles,
                "uncoded_erased_error_rate": unconstrained.error_rate,
                "coded_erased_error_rate": constrained.error_rate,
                "relative_gain": 1.0 - constrained.error_rate
                / max(unconstrained.error_rate, 1e-12)})
        selector = TimeAwareCodeSelector(channel, error_rate_target=1.3e-2,
                                         high_levels=(7, 6, 5),
                                         num_blocks=blocks,
                                         metric="erased")
        schedule = selector.schedule(setup.pe_cycles)
        return rows, schedule

    rows, schedule = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    capacity_rows = [{"high_level": high,
                      "capacity_bits_per_cell": ici_constraint_capacity(high),
                      "rate_penalty": rate_penalty(high)}
                     for high in (7, 6, 5)]
    schedule_rows = [{"pe_cycles": point.pe_cycles,
                      "selected_high_level": point.high_level
                      if point.high_level is not None else "none",
                      "erased_error_rate": point.error_rate,
                      "rate_penalty": point.rate_penalty}
                     for point in schedule]
    text = "\n\n".join([
        "erased-victim coding gain (forbid a-0-b, neighbours >= 6):\n"
        + format_table(rows, float_format="{:.4g}"),
        "constraint capacities:\n"
        + format_table(capacity_rows, float_format="{:.5g}"),
        "time-aware schedule (erased-victim error budget 1.3e-2):\n"
        + format_table(schedule_rows, float_format="{:.4g}"),
    ])
    write_result(results_dir, "coding_time_aware.txt", text)

    # The constrained code removes victim errors at every read point, and the
    # capacities say the constraint is cheap.
    assert all(row["coded_erased_error_rate"]
               <= row["uncoded_erased_error_rate"] for row in rows)
    assert all(row["rate_penalty"] < 0.02 for row in capacity_rows)


@pytest.mark.benchmark(group="calibration")
def test_read_threshold_calibration_gain(benchmark, results_dir, setup):
    """Error-rate reduction of sample-based read-retry calibration vs. P/E."""
    channel = setup.channel
    blocks = 6

    def evaluate():
        rows = []
        for pe_cycles in setup.pe_cycles:
            program, voltages = channel.paired_blocks(blocks, pe_cycles)
            result = calibrate_thresholds(program, voltages,
                                          params=setup.params)
            rows.append({"pe_cycles": pe_cycles,
                         "default_error_rate": result.default_error_rate,
                         "calibrated_error_rate": result.error_rate,
                         "improvement": result.improvement})
        return rows

    rows = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    write_result(results_dir, "threshold_calibration.txt",
                 format_table(rows, float_format="{:.4g}"))
    assert all(row["calibrated_error_rate"] <= row["default_error_rate"]
               for row in rows)
    # Calibration matters more as the device wears (stale defaults).
    assert rows[-1]["improvement"] > 0.0
