#!/usr/bin/env python3
"""Quickstart: simulate the flash channel, train a small cVAE-GAN, sample it.

This walks through the full pipeline of the paper at a small scale:

1. simulate a TLC flash chip and collect paired (PL, VL, P/E) data,
2. train the conditional VAE-GAN channel model on that data,
3. regenerate voltages from program levels at a chosen P/E cycle count, and
4. compare the measured and regenerated distributions.

Run with ``python examples/quickstart.py`` (takes a couple of minutes on CPU).
"""

from dataclasses import replace

import numpy as np

from repro.channel import GenerativeChannel
from repro.core import ModelConfig, Trainer, build_model
from repro.data import crop_blocks, generate_paired_dataset
from repro.eval import distribution_distance, conditional_histogram
from repro.flash import BlockGeometry, FlashChannel, level_error_rate


def main() -> None:
    rng = np.random.default_rng(0)

    # 1. The simulated chip: program pseudo-random data, read it back.
    channel = FlashChannel(geometry=BlockGeometry(64, 64), rng=rng)
    print("== flash channel ==")
    for pe in (4000, 7000, 10000):
        program, voltages = channel.paired_blocks(5, pe)
        print(f"  P/E {pe}: level error rate = "
              f"{level_error_rate(program, voltages):.4f}")

    # 2. Paired training data (16x16 crops keep CPU training short).
    dataset = generate_paired_dataset(channel, pe_cycles=(4000, 7000, 10000),
                                      arrays_per_pe=120, array_size=16)
    print("\n== dataset ==")
    print(" ", dataset.summary())

    # 3. Train the conditional VAE-GAN.
    config = replace(ModelConfig.small(16, epochs=4, batch_size=16),
                     learning_rate=1e-3)
    model = build_model("cvae_gan", config, rng=np.random.default_rng(1))
    trainer = Trainer(model, dataset, rng=np.random.default_rng(2))
    print("\n== training ==")
    trainer.train(verbose=True)

    # 4. Use the learned model as a channel: program levels in, voltages out.
    learned_channel = GenerativeChannel(model, rng=np.random.default_rng(3))
    program, measured = channel.paired_blocks(10, 7000)
    program_crops = crop_blocks(program, 16)
    measured_crops = crop_blocks(measured, 16)
    generated = learned_channel.read_voltages(program_crops, 7000)

    print("\n== evaluation at 7000 P/E cycles ==")
    print(f"  total variation distance (measured vs generated): "
          f"{distribution_distance(measured_crops, generated):.4f}")
    for level in (1, 4, 7):
        _, measured_hist = conditional_histogram(program_crops, measured_crops,
                                                 level)
        _, generated_hist = conditional_histogram(program_crops, generated,
                                                  level)
        print(f"  level {level}: measured peak {measured_hist.max():.4f}, "
              f"generated peak {generated_hist.max():.4f}")


if __name__ == "__main__":
    main()
