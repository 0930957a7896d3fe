#!/usr/bin/env python3
"""Characterise the flash channel: Fig. 2-style spatio-temporal error analysis.

Reproduces the measurement campaign of Section II: P/E cycling, level error
rates over time, and the pattern-dependent ICI error analysis in the
word-line and bit-line directions.  No neural network is involved — this is
the "measured data" side of the paper.

Run with ``python examples/channel_characterization.py``.
"""

import numpy as np

from repro.channel import SimulatorChannel
from repro.eval import format_bar_chart, format_pie_summary, ici_error_profile
from repro.experiments import run_fig2
from repro.flash import PECyclingExperiment


def main() -> None:
    channel = SimulatorChannel(rng=np.random.default_rng(7))

    # Fig. 2: top error-prone patterns and level error rate vs P/E cycles.
    print(run_fig2(channel, blocks_per_pe=40).format())

    # The cycling experiment of Section II-A, summarised per read point.
    experiment = PECyclingExperiment(channel=channel, blocks_per_read_point=10)
    records = experiment.run()
    print("\n== level error rate vs P/E cycles ==")
    print(format_bar_chart({str(record.pe_cycles): record.level_error_rate()
                            for record in records}, float_format="{:.5f}"))

    # ICI error profile at 7000 P/E cycles (the measured half of Fig. 6).
    record = next(r for r in records if r.pe_cycles == 7000)
    profile = ici_error_profile(record.program_levels, record.voltages)
    print("\n== ICI error patterns at 7000 P/E cycles ==")
    print(format_pie_summary(profile["wl"], top_k=10, title="WL direction"))
    print(format_pie_summary(profile["bl"], top_k=10, title="BL direction"))


if __name__ == "__main__":
    main()
