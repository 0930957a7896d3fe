"""Benchmark regenerating Fig. 6: ICI error-pattern pies, measured vs model."""

from __future__ import annotations

import pytest

from repro.experiments import run_fig6
from repro.flash.patterns import BITLINE, WORDLINE

from benchmarks.conftest import write_result


@pytest.mark.benchmark(group="fig6")
def test_fig6_ici_error_profiles(benchmark, results_dir, setup,
                                 trained_cvae_gan, evaluation_arrays):
    """Fig. 6: pattern-dependent error probabilities at 7000 P/E cycles."""
    program, voltages = evaluation_arrays[7000]
    # The measured pie needs far more errors than the cropped evaluation
    # arrays contain for the 707/706/607 ordering to be statistically stable
    # (the paper's pie aggregates ~10^5 errors); a larger measured-only sample
    # straight from the simulated channel is cheap to draw.
    measured_program, measured_voltages = setup.channel.paired_blocks(
        120, 7000)

    def regenerate():
        return run_fig6(program, voltages, trained_cvae_gan, pe_cycles=7000,
                        params=setup.params,
                        measured_program=measured_program,
                        measured_voltages=measured_voltages)

    result = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    write_result(results_dir, "fig6.txt", result.format())

    # Measured data: 707 dominates the BL direction and BL is worse than WL.
    measured_bl = {key: value for key, value in result.measured[BITLINE].items()
                   if not key.startswith("__")}
    measured_wl = {key: value for key, value in result.measured[WORDLINE].items()
                   if not key.startswith("__")}
    assert max(measured_bl, key=measured_bl.get) == "707"
    assert measured_bl["707"] > measured_wl.get("707", 0.0)
    # Both profiles report the raw error totals shown under the paper's pies.
    assert result.measured[BITLINE]["__total_errors__"] > 0
    assert result.modeled[BITLINE]["__total_errors__"] > 0
