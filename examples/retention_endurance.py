#!/usr/bin/env python3
"""Retention, read disturb and endurance: the full lifetime picture.

The paper's measurements are taken immediately after programming ("no wait
time between the erase-program-read operations"), so its figures isolate P/E
cycling wear and ICI.  A deployed SSD also ages between writes (retention
charge loss) and is read far more often than it is written (read disturb).
This example layers those mechanisms on top of the simulated channel and
answers three practical questions:

1. how does the level error rate grow with retention time, and how much
   faster on a heavily cycled block?
2. how many reads can a block absorb before read disturb becomes visible?
3. what endurance (P/E cycles) does the device reach for a given ECC budget,
   with and without a retention requirement?

Run with ``python examples/retention_endurance.py`` (a few seconds).
"""

from __future__ import annotations

import numpy as np

from repro.channel import SimulatorChannel
from repro.flash import (
    BlockGeometry,
    EnduranceSweep,
    ReadDisturbModel,
    RetentionModel,
    estimate_endurance_limit,
    level_error_rate,
)


def main() -> None:
    channel = SimulatorChannel(geometry=BlockGeometry(64, 64),
                               rng=np.random.default_rng(0))
    params = channel.params
    retention = RetentionModel(params)
    disturb = ReadDisturbModel(params)

    # 1. Retention loss, fresh block versus end-of-life block.
    print("== level error rate vs. retention time ==")
    retention_hours = (0, 100, 500, 1000, 5000)
    header = "   hours: " + "  ".join(f"{hours:>6d}" for hours in retention_hours)
    print(header)
    for pe_cycles in (1000, 10000):
        program, voltages = channel.paired_blocks(6, pe_cycles)
        rates = []
        for hours in retention_hours:
            aged = retention.apply(voltages, program, pe_cycles, hours,
                                   rng=np.random.default_rng(hours + 1))
            rates.append(level_error_rate(program, aged, params=params))
        row = "  ".join(f"{rate:.4f}" for rate in rates)
        print(f"  P/E {pe_cycles:>5d}: {row}")
    print("  (the same retention time costs far more on the cycled block)")

    # 2. Read disturb on an erased-heavy block.
    print("\n== level error rate vs. read count (at 7000 P/E cycles) ==")
    program, voltages = channel.paired_blocks(6, 7000)
    for read_count in (0, 10_000, 100_000, 1_000_000):
        read_back = disturb.apply(voltages, program, 7000, read_count,
                                  rng=np.random.default_rng(read_count + 1))
        rate = level_error_rate(program, read_back, params=params)
        print(f"  {read_count:>9,d} reads: {rate:.4f}")

    # 3. Endurance limit for a given ECC budget.
    print("\n== endurance limit vs. ECC budget ==")
    sweep = EnduranceSweep(channel=channel,
                           pe_points=(1000, 2500, 4000, 5500, 7000, 8500,
                                      10000, 12000, 15000),
                           blocks_per_point=4)
    points = sweep.run()
    print("  P/E      level error rate   worst-page RBER")
    for point in points:
        print(f"  {point.pe_cycles:>6.0f}   {point.level_error_rate:.5f}"
              f"            {point.worst_page_rber:.5f}")
    for target in (2e-3, 4e-3, 8e-3):
        limit = estimate_endurance_limit(points, rber_target=target)
        if limit is None:
            print(f"  RBER budget {target:.0e}: not reached within the sweep")
        else:
            print(f"  RBER budget {target:.0e}: endurance ~ {limit:,.0f} P/E "
                  f"cycles")


if __name__ == "__main__":
    main()
