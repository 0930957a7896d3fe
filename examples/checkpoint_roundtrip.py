#!/usr/bin/env python3
"""Model zoo round-trip: train a small model, save it, reload it, compare FER.

The point of the on-disk model zoo (:mod:`repro.artifacts`): a generative
channel backend is trained **once**, checkpointed, and then cold-started by
any consumer — here an ECC campaign — with *bit-identical* behaviour:

1. train a small cVAE-GAN on paired data from the simulated chip,
2. checkpoint it with ``save_channel`` (manifest + hashed weight archive),
3. restore it with ``build_channel("cvae_gan", checkpoint=...)`` — no
   retraining, and
4. run the same seeded BCH frame-error campaign over both backends; the
   frame error rates must agree exactly.

Run with ``python examples/checkpoint_roundtrip.py`` (a couple of minutes
on CPU; pass ``--fast`` for a quick smoke run).
"""

from __future__ import annotations

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.artifacts import inspect_checkpoint
from repro.channel import (
    GenerativeChannel,
    SimulatorChannel,
    build_channel,
    save_channel,
)
from repro.core import ModelConfig, Trainer, build_model
from repro.data import generate_paired_dataset
from repro.ecc import BCHCode, evaluate_bch_over_channel
from repro.flash import BlockGeometry, FlashParameters


def main(fast: bool = False) -> None:
    params = FlashParameters()
    rng = np.random.default_rng(0)

    # 1. Train a small generative channel model on simulated paired data.
    simulator = SimulatorChannel(params, geometry=BlockGeometry(16, 16),
                                 rng=rng)
    if fast:
        config = replace(ModelConfig.tiny(), epochs=2)
        arrays_per_pe, max_steps = 12, 2
    else:
        config = replace(ModelConfig.small(16, epochs=3, batch_size=8),
                         learning_rate=1e-3)
        arrays_per_pe, max_steps = 60, None
    dataset = generate_paired_dataset(simulator,
                                      pe_cycles=(4000.0, 10000.0),
                                      arrays_per_pe=arrays_per_pe,
                                      array_size=config.array_size)
    model = build_model("cvae_gan", config, rng=np.random.default_rng(1))
    trainer = Trainer(model, dataset, params=params,
                      rng=np.random.default_rng(2),
                      max_steps_per_epoch=max_steps)
    print("== training ==")
    trainer.train(verbose=True)
    channel = GenerativeChannel(model, params=params,
                                rng=np.random.default_rng(3))

    with tempfile.TemporaryDirectory() as workdir:
        checkpoint = Path(workdir) / "cvae_gan-small"

        # 2. Checkpoint the trained backend.
        manifest = save_channel(channel, checkpoint,
                                training={"example": "checkpoint_roundtrip",
                                          "epochs": config.epochs})
        print(f"\n== saved checkpoint ({manifest.registry_name}) ==")
        report = inspect_checkpoint(checkpoint)
        for name, entry in report["files"].items():
            print(f"  {name}: {entry['size']} bytes, "
                  f"sha256 {entry['sha256'][:16]}...")

        # 3. Cold-start the backend from disk: no retraining.
        restored = build_channel("cvae_gan", checkpoint=checkpoint)
        print(f"  restored dtype: {restored.model.dtype}, "
              f"{restored.model.num_parameters()} parameters")

        # 4. The same seeded ECC campaign over both backends.
        code = BCHCode(m=6, t=4)
        print(f"\n== BCH(n={code.n}, k={code.k}) frame error rate at "
              "10000 P/E cycles ==")
        results = {}
        for label, backend in (("in-memory", channel), ("restored", restored)):
            result = evaluate_bch_over_channel(
                code, backend, 10000, num_codewords=8 if fast else 24,
                group_size=4, seed=99)
            results[label] = result
            print(f"  {label:>9}: FER = {result.frame_error_rate:.4f}, "
                  f"raw BER = {result.raw_bit_error_rate:.4e}")

        identical = np.array_equal(results["in-memory"].frame_records,
                                   results["restored"].frame_records)
        print(f"\nframe records bit-identical: {identical}")
        if not identical:
            raise SystemExit("restored backend diverged from the saved one")


if __name__ == "__main__":
    main(fast="--fast" in sys.argv[1:])
