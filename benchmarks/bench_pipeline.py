"""End-to-end channel-pipeline throughput per backend (voltages/second).

This benchmark exercises the unified channel protocol the way downstream
studies do — request read voltages for a stack of program-level arrays — and
reports the throughput of every backend family:

* the physical simulator,
* the generative model through the batched chunked adapter
  (:class:`repro.channel.GenerativeChannel`),
* a fitted statistical baseline.

It also measures the per-condition LRU cache on repeated density-table
queries.  Results are written to ``benchmarks/results/pipeline.json`` so CI
can track the throughput trajectory across PRs: the per-backend keys hold
the latest run and ``pipeline_series`` accumulates one entry per run, with
cross-PR regression alerting against the tracked history (same-sized hosts
only; see :func:`results_io.check_series_regression`).

Run standalone (``PYTHONPATH=src python benchmarks/bench_pipeline.py``) or
through pytest.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from results_io import (
    check_series_regression,
    load_results,
    merge_results,
    series_entry,
)

#: Workload of the generative backend: ``ARRAYS`` model-size arrays read
#: ``SAMPLES`` times each (the paper's repeated-latent evaluation protocol).
ARRAYS = 4
SAMPLES = 25


def _timed(function, repeats: int = 3) -> float:
    """Median wall-clock seconds of ``function()`` over ``repeats`` runs."""
    durations = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        durations.append(time.perf_counter() - start)
    return float(np.median(durations))


def run_pipeline_benchmark(repeats: int = 3) -> dict:
    """Measure voltages/second for every backend family."""
    from repro.channel import GenerativeChannel, build_channel
    from repro.core import ModelConfig, build_model
    from repro.data import generate_paired_dataset
    from repro.flash import BlockGeometry, FlashChannel

    results: dict[str, dict] = {}

    # ------------------------------------------------------------------ #
    # Simulator: full 64x64 blocks.
    # ------------------------------------------------------------------ #
    simulator = build_channel("simulator", rng=np.random.default_rng(0))
    blocks = np.stack([simulator.program_random_block() for _ in range(8)])
    seconds = _timed(lambda: simulator.read_voltages(blocks, 7000), repeats)
    results["simulator"] = {
        "cells": int(blocks.size),
        "seconds": seconds,
        "voltages_per_second": blocks.size / seconds,
    }

    # ------------------------------------------------------------------ #
    # Generative: the batched chunked adapter.  The model is untrained
    # (throughput does not depend on the weights' values) with the small
    # 16x16 benchmark architecture.
    # ------------------------------------------------------------------ #
    config = ModelConfig.small(16, epochs=1, batch_size=16)
    model = build_model("cvae_gan", config, rng=np.random.default_rng(1))
    arrays = np.random.default_rng(2).integers(
        0, 8, size=(ARRAYS, config.array_size, config.array_size))
    workload_cells = int(arrays.size * SAMPLES)

    batched = GenerativeChannel(model, rng=np.random.default_rng(3))
    batched_seconds = _timed(
        lambda: batched.read_repeated(arrays, 7000, num_samples=SAMPLES),
        repeats)

    results["generative_batched"] = {
        "cells": workload_cells,
        "seconds": batched_seconds,
        "voltages_per_second": workload_cells / batched_seconds,
    }

    # ------------------------------------------------------------------ #
    # Fitted baseline.
    # ------------------------------------------------------------------ #
    data_channel = FlashChannel(geometry=BlockGeometry(32, 32),
                                rng=np.random.default_rng(4))
    dataset = generate_paired_dataset(data_channel, pe_cycles=(7000,),
                                      arrays_per_pe=16, array_size=16)
    baseline = build_channel("gaussian", dataset=dataset,
                             rng=np.random.default_rng(5), fit_iterations=80)
    seconds = _timed(lambda: baseline.read_voltages(blocks, 7000), repeats)
    results["baseline_gaussian"] = {
        "cells": int(blocks.size),
        "seconds": seconds,
        "voltages_per_second": blocks.size / seconds,
    }

    # ------------------------------------------------------------------ #
    # Condition cache: repeated (model, P/E) density queries.
    # ------------------------------------------------------------------ #
    simulator.cache.clear()
    cold = _timed(lambda: simulator.density_table(7000, num_blocks=2),
                  repeats=1)
    warm = _timed(lambda: simulator.density_table(7000, num_blocks=2),
                  repeats=1)
    results["condition_cache"] = {
        "cold_seconds": cold,
        "warm_seconds": warm,
        "speedup": cold / max(warm, 1e-9),
        **simulator.cache.stats(),
    }

    return results


def write_results(results: dict) -> Path:
    """Merge this run's entries into the tracked throughput file.

    The file is shared with other benchmarks (``bench_exec.py`` and
    ``bench_training.py`` keep their series there), so existing keys this
    benchmark does not produce are preserved.  Alongside the latest-run
    keys, one ``pipeline_series`` entry per run accumulates the per-backend
    throughput for cross-PR tracking.
    """
    series = load_results().get("pipeline_series", [])
    series.append(series_entry(os.cpu_count() or 1, {
        "simulator_vps": results["simulator"]["voltages_per_second"],
        "generative_batched_vps":
            results["generative_batched"]["voltages_per_second"],
        "baseline_gaussian_vps":
            results["baseline_gaussian"]["voltages_per_second"],
    }))
    return merge_results({**results, "pipeline_series": series})


def check_pipeline_series() -> list[str]:
    """Cross-PR regression alerts for the tracked per-backend series."""
    return check_series_regression(
        load_results().get("pipeline_series", []))


def test_pipeline_throughput():
    """Quick-profile smoke run of every backend and the condition cache."""
    results = run_pipeline_benchmark()
    path = write_results(results)
    print(f"\n--- {path} ---\n{json.dumps(results, indent=2)}\n")
    for alert in check_pipeline_series():
        print(f"WARNING pipeline series regression: {alert}")
    assert results["generative_batched"]["voltages_per_second"] > 0
    assert results["condition_cache"]["hits"] >= 1


def main() -> None:
    results = run_pipeline_benchmark()
    path = write_results(results)
    print(json.dumps(results, indent=2))
    print(f"written to {path}")
    alerts = check_pipeline_series()
    if (os.cpu_count() or 1) < 2:
        # Single-core runners are typically oversubscribed CI shares whose
        # timings are too noisy to gate on: record and warn only.
        for alert in alerts:
            print(f"WARNING pipeline series regression: {alert}")
    elif alerts:
        raise SystemExit("pipeline series regression: " + "; ".join(alerts))


if __name__ == "__main__":
    main()
