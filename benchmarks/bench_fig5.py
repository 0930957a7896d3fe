"""Benchmark regenerating Fig. 5: stacked error counts of the five models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import run_fig5

from benchmarks.conftest import write_result


@pytest.mark.benchmark(group="fig5")
def test_fig5_error_counts(benchmark, results_dir, setup, trained_cvae_gan,
                           evaluation_arrays):
    """Fig. 5: normalised error counts of M / cV-G / G / NL / S't."""
    iterations = 200

    def regenerate():
        return run_fig5(setup.dataset(), evaluation_arrays,
                        generative_model=trained_cvae_gan,
                        params=setup.params,
                        baseline_iterations=iterations,
                        rng=np.random.default_rng(5))

    result = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    write_result(results_dir, "fig5.txt", result.format())

    totals = result.totals()
    # Paper: measured errors grow with P/E, roughly 2.5x from 4000 to 10000.
    assert totals[4000]["M"] == pytest.approx(1.0)
    assert 1.6 < totals[10000]["M"] < 3.6
    # Paper: the Gaussian fit under-estimates the worn-device error counts
    # relative to the Normal-Laplace fit (missing tails).
    assert totals[10000]["G"] < totals[10000]["NL"]
    # The statistical fits must track the measured totals within a factor ~2.
    for pe in totals:
        assert 0.3 * totals[pe]["M"] < totals[pe]["NL"] < 2.5 * totals[pe]["M"]
    # The generative model's error counts must grow with P/E cycling.
    assert totals[10000]["cV-G"] > totals[4000]["cV-G"]
