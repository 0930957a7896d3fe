"""Ablation benchmark: the value of the spatio-temporal P/E conditioning.

Not a figure of the paper, but an ablation of its central design choice
(Section III-B): training the same cVAE-GAN with and without the P/E feature
injection and measuring how well each tracks the wear-dependent error growth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import distribution_distance

from benchmarks.conftest import write_result


@pytest.mark.benchmark(group="ablation")
def test_pe_conditioning_ablation(benchmark, results_dir, setup,
                                  trained_cvae_gan, evaluation_arrays):
    """Compare dTV across P/E counts with and without P/E conditioning."""
    epochs = 2
    unconditioned = setup.train_generative_model("cvae_gan", epochs=epochs,
                                                 condition_on_pe=False)

    def evaluate():
        rows = []
        for pe, (program, voltages) in sorted(evaluation_arrays.items()):
            conditioned_tv = distribution_distance(
                voltages, trained_cvae_gan.read_voltages(program, pe))
            unconditioned_tv = distribution_distance(
                voltages, unconditioned.read_voltages(program, pe))
            rows.append({"pe_cycles": pe,
                         "tv_with_pe_conditioning": conditioned_tv,
                         "tv_without_pe_conditioning": unconditioned_tv})
        return rows

    rows = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    from repro.eval import format_table
    write_result(results_dir, "ablation_pe_conditioning.txt",
                 format_table(rows, float_format="{:.4f}"))

    assert len(rows) == len(evaluation_arrays)
    assert all(0.0 <= row["tv_with_pe_conditioning"] <= 1.0 for row in rows)
