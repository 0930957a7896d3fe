"""The program/erase cycling experiment of Section II-A.

The paper's measurement campaign erases several blocks, programs them with
pseudo-random data, and reads them back at 4000, 7000 and 10000 P/E cycles,
recording the program level and measured voltage of every cell.
:class:`PECyclingExperiment` replays this procedure against a channel
backend (the simulator, for the paper's measured data) and returns the same
kind of paired records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.flash.errors import level_error_rate
from repro.flash.geometry import BlockGeometry
from repro.flash.params import FlashParameters

__all__ = ["CyclingRecord", "PECyclingExperiment"]

#: P/E cycle counts at which the paper performs read-back measurements.
DEFAULT_READ_POINTS: tuple[int, ...] = (4000, 7000, 10000)


@dataclass
class CyclingRecord:
    """Paired data collected at one P/E cycle read point.

    Attributes
    ----------
    pe_cycles:
        The P/E cycle count of the read operation.
    program_levels:
        Integer array of shape ``(num_blocks, H, W)``.
    voltages:
        Float array of the same shape with soft read voltages.
    """

    pe_cycles: int
    program_levels: np.ndarray
    voltages: np.ndarray

    @property
    def num_blocks(self) -> int:
        return self.program_levels.shape[0]

    @property
    def num_cells(self) -> int:
        return int(self.program_levels.size)

    def level_error_rate(self, params: FlashParameters | None = None) -> float:
        """Overall level error rate of this record."""
        return level_error_rate(self.program_levels, self.voltages,
                                params=params)


@dataclass
class PECyclingExperiment:
    """Erase / program / read cycling against a channel backend.

    Parameters
    ----------
    channel:
        The :class:`repro.channel.ChannelModel` under test; its
        ``paired_blocks`` draws the records.
    read_points:
        P/E cycle counts at which paired data is recorded (defaults to the
        paper's 4000 / 7000 / 10000).
    blocks_per_read_point:
        Number of blocks sampled at each read point.
    """

    channel: Any
    read_points: tuple[int, ...] = DEFAULT_READ_POINTS
    blocks_per_read_point: int = 4

    def __post_init__(self):
        if not self.read_points:
            raise ValueError("read_points must not be empty")
        if any(point <= 0 for point in self.read_points):
            raise ValueError("read points must be positive P/E cycle counts")
        if self.blocks_per_read_point < 1:
            raise ValueError("blocks_per_read_point must be positive")

    @property
    def geometry(self) -> BlockGeometry:
        return self.channel.geometry

    def run(self) -> list[CyclingRecord]:
        """Run the cycling experiment and return one record per read point."""
        records = []
        for pe_cycles in self.read_points:
            program, voltages = self.channel.paired_blocks(
                self.blocks_per_read_point, pe_cycles)
            records.append(CyclingRecord(pe_cycles=int(pe_cycles),
                                         program_levels=program,
                                         voltages=voltages))
        return records
