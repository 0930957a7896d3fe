#!/usr/bin/env python3
"""Read-threshold calibration (read retry) driven by the channel model.

The paper evaluates error counts against seven *fixed* default read
thresholds; a real controller instead re-centres its thresholds as the device
wears.  This example shows how a channel model — here the simulator playing
the role of measured data, and optionally a trained generative model — drives
that calibration:

1. sweep one threshold around its default position and plot the error-rate
   bathtub curve at different P/E counts;
2. calibrate all seven thresholds from labelled (PL, VL) samples and compare
   the level error rate against the fixed defaults;
3. calibrate from per-level PDFs instead of raw samples (the form in which a
   generative model or a statistical fit delivers the channel).

Run with ``python examples/threshold_calibration.py`` (a few seconds).
"""

from __future__ import annotations

import numpy as np

from repro.channel import SimulatorChannel
from repro.eval import conditional_pdfs, histogram_bin_centers
from repro.flash import (
    BlockGeometry,
    calibrate_thresholds,
    default_read_thresholds,
    level_error_rate,
    optimal_thresholds_from_pdfs,
    threshold_sweep,
)

PE_READ_POINTS = (4000, 7000, 10000)


def main() -> None:
    channel = SimulatorChannel(geometry=BlockGeometry(64, 64),
                               rng=np.random.default_rng(0))
    params = channel.params

    # 1. Bathtub curve of the first threshold (level 0 / level 1 boundary).
    print("== error rate vs. offset of threshold Vth(01) ==")
    offsets = np.linspace(-20, 40, 13)
    header = "  offset: " + "  ".join(f"{offset:+6.1f}" for offset in offsets)
    print(header)
    for pe_cycles in PE_READ_POINTS:
        program, voltages = channel.paired_blocks(6, pe_cycles)
        rates = threshold_sweep(program, voltages, boundary=0, offsets=offsets,
                                params=params)
        row = "  ".join(f"{rate:6.4f}" for rate in rates)
        print(f"  P/E {pe_cycles}: {row}")
    print("  (the minimum moves to positive offsets as ICI and wear push the "
          "erased distribution upward)")

    # 2. Full 7-threshold calibration from labelled samples.
    print("\n== sample-based calibration ==")
    for pe_cycles in PE_READ_POINTS:
        program, voltages = channel.paired_blocks(8, pe_cycles)
        result = calibrate_thresholds(program, voltages, params=params)
        print(f"  P/E {pe_cycles}: default error rate = "
              f"{result.default_error_rate:.4f},  calibrated = "
              f"{result.error_rate:.4f}  "
              f"({100 * result.improvement:.1f}% fewer errors)")

    # 3. Calibration from estimated per-level PDFs (model-friendly form).
    print("\n== PDF-based calibration at 10000 P/E cycles ==")
    program, voltages = channel.paired_blocks(8, 10000)
    grid = histogram_bin_centers(bins=200, params=params)
    per_level = conditional_pdfs(program, voltages, levels=tuple(range(8)),
                                 bins=200, params=params)
    pdfs = np.stack([per_level[level][1] for level in range(8)])
    thresholds = optimal_thresholds_from_pdfs(pdfs, grid)
    defaults = default_read_thresholds(params)
    print("  boundary   default   calibrated   shift")
    for boundary, (old, new) in enumerate(zip(defaults, thresholds)):
        print(f"  Vth({boundary}{boundary + 1})    {old:7.1f}   {new:9.1f}"
              f"   {new - old:+6.1f}")
    fresh_program, fresh_voltages = channel.paired_blocks(8, 10000)
    default_rate = level_error_rate(fresh_program, fresh_voltages,
                                    params=params)
    calibrated_rate = level_error_rate(fresh_program, fresh_voltages,
                                       thresholds=thresholds, params=params)
    print(f"  held-out error rate: default = {default_rate:.4f},  "
          f"PDF-calibrated = {calibrated_rate:.4f}")


if __name__ == "__main__":
    main()
