"""Measure the error-rate reduction bought by the ICI constrained code."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel import ChannelModel
from repro.coding.constrained import ICIConstrainedCode
from repro.flash.errors import level_error_rate

__all__ = ["constrained_coding_gain"]


@dataclass
class CodingGainResult:
    """Error rates with and without the constrained code at one P/E count."""

    pe_cycles: float
    uncoded_error_rate: float
    coded_error_rate: float
    overhead: float

    @property
    def gain(self) -> float:
        """Relative error-rate reduction (1 means all errors removed)."""
        if self.uncoded_error_rate == 0:
            return 0.0
        return 1.0 - self.coded_error_rate / self.uncoded_error_rate


def constrained_coding_gain(channel: ChannelModel, pe_cycles: float,
                            num_blocks: int = 10,
                            code: ICIConstrainedCode | None = None
                            ) -> CodingGainResult:
    """Compare level error rates with and without the constrained code.

    The uncoded pass programs pseudo-random data directly; the coded pass
    first removes the high-low-high patterns.  Both are read through the same
    channel backend at the same P/E cycle count.
    """
    if num_blocks < 1:
        raise ValueError("num_blocks must be positive")
    code = code if code is not None else ICIConstrainedCode()

    uncoded_rates = []
    coded_rates = []
    overheads = []
    for _ in range(num_blocks):
        levels = channel.program_random_block()
        voltages = channel.read_voltages(levels, pe_cycles)
        uncoded_rates.append(level_error_rate(levels, voltages,
                                              params=channel.params))

        constrained, lifted = code.encode(levels)
        coded_voltages = channel.read_voltages(constrained, pe_cycles)
        coded_rates.append(level_error_rate(constrained, coded_voltages,
                                            params=channel.params))
        overheads.append(code.overhead(lifted))

    return CodingGainResult(pe_cycles=float(pe_cycles),
                            uncoded_error_rate=float(np.mean(uncoded_rates)),
                            coded_error_rate=float(np.mean(coded_rates)),
                            overhead=float(np.mean(overheads)))
