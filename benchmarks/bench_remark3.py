"""Benchmark regenerating Remark 3: architecture comparison by dTV."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import run_remark3

from benchmarks.conftest import write_result


@pytest.mark.benchmark(group="remark3")
def test_remark3_architecture_comparison(benchmark, results_dir, setup,
                                         evaluation_arrays):
    """Remark 3: dTV of cGAN / cVAE / BicycleGAN / cVAE-GAN to measured data."""
    config = replace(setup.model_config(), epochs=2)
    # Restrict to one evaluation read point to keep the comparison affordable.
    evaluation = {7000: evaluation_arrays[7000]}

    def regenerate():
        return run_remark3(setup.dataset(), evaluation, config,
                           params=setup.params, seed=17)

    result = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    write_result(results_dir, "remark3.txt", result.format())

    means = result.mean_tv()
    assert set(means) == {"cvae_gan", "cgan", "cvae", "bicycle_gan"}
    # All architectures must produce overlapping (non-degenerate) distributions.
    # (Whether cVAE-GAN wins, as the paper reports, depends on the training
    # budget.)
    assert all(value < 0.98 for value in means.values())
