#!/usr/bin/env python3
"""ICI-mitigating constrained coding evaluated on the simulated channel.

Section II-B of the paper motivates constrained codes that forbid the
ICI-prone high-low-high patterns.  This example encodes pseudo-random data
with a simple pattern-avoiding code and measures the level-error-rate
reduction at each P/E cycle count, together with the coding overhead.

Run with ``python examples/constrained_coding.py``.
"""

import numpy as np

from repro.channel import SimulatorChannel
from repro.coding import ICIConstrainedCode, constrained_coding_gain
from repro.eval import format_table


def main() -> None:
    channel = SimulatorChannel(rng=np.random.default_rng(21))
    code = ICIConstrainedCode(high_level=6, lift_to=1)

    rows = []
    for pe in (4000, 7000, 10000):
        result = constrained_coding_gain(channel, pe, num_blocks=15, code=code)
        rows.append({
            "pe_cycles": pe,
            "uncoded_error_rate": result.uncoded_error_rate,
            "coded_error_rate": result.coded_error_rate,
            "error_reduction": result.gain,
            "coding_overhead": result.overhead,
        })
    print("== high-low-high avoiding constrained code ==")
    print(format_table(rows, float_format="{:.5f}"))
    print("\nThe code removes the dominant 7-0-7 / 6-0-7 bit-line patterns, "
          "so the error-rate reduction grows with P/E cycling — exactly the "
          "time-aware trade-off the paper's channel model helps quantify.")


if __name__ == "__main__":
    main()
