"""Endurance analysis: error rate versus P/E cycles and lifetime estimation.

The paper's Fig. 2 shows the level error rate at three read points; a
controller designer needs the full curve and, more importantly, the P/E count
at which the raw bit error rate crosses the correction capability of the ECC
— the *endurance limit* of the device.  This module sweeps the simulated (or
generatively modelled) channel over P/E cycles and estimates that limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.flash.channel import FlashChannel
from repro.flash.errors import level_error_rate
from repro.flash.pages import page_bit_error_rates
from repro.flash.params import FlashParameters

__all__ = ["EndurancePoint", "EnduranceSweep", "estimate_endurance_limit"]


@dataclass
class EndurancePoint:
    """Error statistics of the channel at one P/E cycle count."""

    pe_cycles: float
    level_error_rate: float
    page_rber: dict[str, float]

    @property
    def worst_page_rber(self) -> float:
        """RBER of the worst logical page (what the ECC must be sized for)."""
        if not self.page_rber:
            return 0.0
        return max(self.page_rber.values())


@dataclass
class EnduranceSweep:
    """Sweep the channel over a range of P/E cycle counts.

    Parameters
    ----------
    channel:
        Channel under test.  Anything exposing
        ``paired_blocks(num_blocks, pe_cycles)`` works, so any
        :class:`repro.channel.ChannelModel` backend can be swept exactly the
        same way.
    pe_points:
        P/E cycle counts at which to evaluate the channel.
    blocks_per_point:
        Number of simulated blocks per read point; more blocks give smoother
        curves at the cost of runtime.
    """

    channel: FlashChannel = field(default_factory=FlashChannel)
    pe_points: tuple[float, ...] = (1000, 2500, 4000, 5500, 7000, 8500, 10000)
    blocks_per_point: int = 4
    params: FlashParameters | None = None

    def __post_init__(self):
        if not self.pe_points:
            raise ValueError("pe_points must not be empty")
        if any(point < 0 for point in self.pe_points):
            raise ValueError("pe_points must be non-negative")
        if list(self.pe_points) != sorted(self.pe_points):
            raise ValueError("pe_points must be increasing")
        if self.blocks_per_point < 1:
            raise ValueError("blocks_per_point must be positive")

    def run(self) -> list[EndurancePoint]:
        """Evaluate error statistics at every requested P/E count."""
        points = []
        for pe_cycles in self.pe_points:
            program, voltages = self.channel.paired_blocks(
                self.blocks_per_point, pe_cycles)
            points.append(EndurancePoint(
                pe_cycles=float(pe_cycles),
                level_error_rate=level_error_rate(program, voltages,
                                                  params=self.params),
                page_rber=page_bit_error_rates(program, voltages,
                                               params=self.params)))
        return points


def estimate_endurance_limit(points: list[EndurancePoint],
                             rber_target: float,
                             use_worst_page: bool = True) -> float | None:
    """P/E count at which the RBER first exceeds ``rber_target``.

    The crossing is located by linear interpolation between the two bracketing
    sweep points.  Returns ``None`` if the target is never exceeded within the
    sweep, and ``0.0`` if even the first point already exceeds it.
    """
    if rber_target <= 0:
        raise ValueError("rber_target must be positive")
    if not points:
        raise ValueError("points must not be empty")

    def metric(point: EndurancePoint) -> float:
        return point.worst_page_rber if use_worst_page else point.level_error_rate

    previous = None
    for point in points:
        value = metric(point)
        if value >= rber_target:
            if previous is None:
                return 0.0
            previous_value = metric(previous)
            if value == previous_value:
                return float(point.pe_cycles)
            fraction = (rber_target - previous_value) / (value - previous_value)
            return float(previous.pe_cycles
                         + fraction * (point.pe_cycles - previous.pe_cycles))
        previous = point
    return None
