"""Model-zoo cold-start: loading a checkpoint vs retraining the backend.

The on-disk model zoo (:mod:`repro.artifacts`) exists so consumers — sweep
drivers, CI jobs, ``repro.exec`` worker fleets — cold-start a trained
generative backend from disk instead of retraining it.  This benchmark
quantifies that trade on the tiny reference config:

* ``train_seconds`` — a short reference training run (the cost every
  consumer would pay without the zoo),
* ``save_seconds`` / ``load_seconds`` — checkpoint write and verified
  cold-start (manifest + hash check + weight load),
* ``cold_start_speedup`` — train/load ratio, gated at >= 5x (a median of
  11.9x over 10 runs on 2 vCPUs, 9.1–16.2x: about 0.13 s of training
  against a 10 ms load),

and asserts the restored backend samples bit-identically to the trained
one.  Why not e2ebench: no e2e metric bounds one checkpoint load.

Run standalone (``PYTHONPATH=src python benchmarks/bench_checkpoint.py``)
or through pytest.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
import time
from pathlib import Path

import numpy as np

#: The cold-start gate: restoring from disk must beat this multiple of the
#: (deliberately short) reference training run.
MIN_COLD_START_SPEEDUP = 5.0


def run_checkpoint_benchmark() -> dict:
    from repro.artifacts import load_channel, save_channel
    from repro.channel import GenerativeChannel, SimulatorChannel
    from repro.core import ModelConfig, Trainer, build_model
    from repro.data import generate_paired_dataset
    from repro.flash import BlockGeometry, FlashParameters

    params = FlashParameters()
    simulator = SimulatorChannel(params, geometry=BlockGeometry(16, 16),
                                 rng=np.random.default_rng(0))
    dataset = generate_paired_dataset(simulator, pe_cycles=(4000.0, 10000.0),
                                      arrays_per_pe=16, array_size=8)
    config = dataclasses.replace(ModelConfig.tiny(), epochs=2)

    start = time.perf_counter()
    model = build_model("cvae_gan", config, rng=np.random.default_rng(1))
    Trainer(model, dataset, params=params,
            rng=np.random.default_rng(2)).train()
    train_seconds = time.perf_counter() - start
    channel = GenerativeChannel(model, params=params,
                                rng=np.random.default_rng(3))

    with tempfile.TemporaryDirectory() as workdir:
        checkpoint = Path(workdir) / "reference"
        start = time.perf_counter()
        manifest = save_channel(channel, checkpoint)
        save_seconds = time.perf_counter() - start

        start = time.perf_counter()
        restored = load_channel(checkpoint, run_probe=False)
        load_seconds = time.perf_counter() - start

        # The whole point of the zoo: the cold-started backend behaves
        # bit-identically to the trained one.
        levels = np.random.default_rng(4).integers(0, 8, size=(2, 16, 16))
        reference = channel.read_voltages(levels, 7000.0,
                                          rng=np.random.default_rng(5))
        reloaded = restored.read_voltages(levels, 7000.0,
                                          rng=np.random.default_rng(5))
        if not np.array_equal(reference, reloaded):
            raise AssertionError("restored backend is not bit-identical to "
                                 "the trained one")
        weight_bytes = manifest.files["weights.npz"]["size"]

    return {
        "train_seconds": train_seconds,
        "save_seconds": save_seconds,
        "load_seconds": load_seconds,
        "cold_start_speedup": train_seconds / max(load_seconds, 1e-9),
        "weight_bytes": int(weight_bytes),
        "parameters": int(model.num_parameters()),
    }


def test_checkpoint_cold_start():
    """Cold-start must beat retraining by a wide, stable margin."""
    results = run_checkpoint_benchmark()
    print(json.dumps(results, indent=2))
    assert results["cold_start_speedup"] >= MIN_COLD_START_SPEEDUP, (
        f"cold start only {results['cold_start_speedup']:.1f}x faster than "
        f"training (gate: {MIN_COLD_START_SPEEDUP}x)")


if __name__ == "__main__":
    test_checkpoint_cold_start()
