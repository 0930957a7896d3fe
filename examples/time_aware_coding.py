#!/usr/bin/env python3
"""Time-aware constrained coding driven by the channel model.

Section II-B of the paper: "Accurate modeling of the dependence of WL and BL
pattern errors on the P/E cycle count can be a valuable tool to help
researchers design efficient, time-aware constrained codes."  This example is
that tool in action:

1. quantify the rate cost of forbidding the ICI-prone high-low-high patterns
   (Shannon capacity of the constrained system);
2. measure, with the channel model, how much each constraint strength lowers
   the level error rate at each P/E read point;
3. let a :class:`repro.coding.TimeAwareCodeSelector` choose the cheapest
   constraint meeting an error-rate budget at every read point — weak (or no)
   coding early in life, stronger coding near end of life.

Run with ``python examples/time_aware_coding.py`` (about a minute).
"""

from __future__ import annotations

import numpy as np

from repro.channel import SimulatorChannel
from repro.coding import (
    TimeAwareCodeSelector,
    constraint_tradeoff_curve,
    ici_constraint_capacity,
    rate_penalty,
)
from repro.flash import BlockGeometry

PE_READ_POINTS = (4000, 7000, 10000)


def main() -> None:
    channel = SimulatorChannel(geometry=BlockGeometry(64, 64),
                               rng=np.random.default_rng(0))

    # 1. What does each constraint cost in storage rate?
    print("== capacity of the ICI-avoiding constraints (bits per cell) ==")
    print("  unconstrained TLC: 3.000")
    for high_level in (7, 6, 5):
        capacity = ici_constraint_capacity(high_level)
        penalty = rate_penalty(high_level)
        print(f"  forbid a-0-b with a,b >= {high_level}: {capacity:.4f}  "
              f"(rate penalty {100 * penalty:.2f}%)")

    # 2. What does each constraint buy on the victim population it protects?
    # (Erased cells are the victims of the high-low-high patterns; the
    # constraint cannot influence errors of the programmed levels.)
    print("\n== erased-victim error rate vs. constraint strength ==")
    for pe_cycles in PE_READ_POINTS:
        points = constraint_tradeoff_curve(channel, pe_cycles,
                                           high_levels=(7, 6, 5),
                                           num_blocks=12,
                                           metric="erased")
        parts = []
        for point in points:
            label = "none" if point.is_unconstrained \
                else f">= {point.high_level}"
            parts.append(f"{label}: {point.error_rate:.4f}")
        print(f"  P/E {pe_cycles}: " + "   ".join(parts))

    # 3. Pick the cheapest constraint meeting a budget at each read point.
    print("\n== time-aware selection (erased-victim error budget) ==")
    for target in (1.3e-2, 9.0e-3):
        selector = TimeAwareCodeSelector(channel, error_rate_target=target,
                                         high_levels=(7, 6, 5), num_blocks=12,
                                         metric="erased")
        schedule = selector.schedule(PE_READ_POINTS)
        print(f"  error-rate budget {target:.1e}:")
        for point in schedule:
            constraint = "no constraint" if point.is_unconstrained \
                else f"forbid neighbours >= {point.high_level}"
            met = "meets budget" if point.error_rate <= target \
                else "budget not met even at strongest constraint"
            print(f"    P/E {point.pe_cycles:>6.0f}: {constraint:<30}"
                  f" error rate {point.error_rate:.4f}, rate penalty "
                  f"{100 * point.rate_penalty:.2f}%  ({met})")


if __name__ == "__main__":
    main()
