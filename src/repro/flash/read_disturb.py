"""Read-disturb model.

Every read of a page applies a pass-through voltage to the *other* wordlines
of the block; this acts as a very weak programming pulse, so cells on heavily
read blocks slowly gain charge.  The effect is strongest for cells holding
little charge (the erased state and low program levels) and it accumulates
with the number of reads since the block was last programmed.

Like retention, read disturb does not appear in the paper's figures (each
block is read only three times) but it is one of the error sources its
introduction enumerates, and downstream consumers of the channel model (ECC
dimensioning, scrub scheduling) need it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flash.cell import NUM_LEVELS
from repro.flash.params import FlashParameters

__all__ = ["ReadDisturbParameters", "ReadDisturbModel"]


@dataclass(frozen=True)
class ReadDisturbParameters:
    """Tunable parameters of the read-disturb model.

    Attributes
    ----------
    reference_reads:
        Read count at which ``shift_scale`` applies; the shift grows
        logarithmically with the number of reads, saturating slowly.
    shift_scale:
        Upward mean shift (voltage units) of an erased cell after
        ``reference_reads`` reads on a fresh block.
    level_attenuation:
        How quickly the disturb shrinks with the stored level: level ``l``
        receives ``shift * level_attenuation ** l``.  Programmed cells sit at
        higher gate voltages, so the pass-voltage stress is smaller.
    wear_acceleration:
        Additional fractional shift per unit of normalised wear (a damaged
        oxide traps charge more readily).
    jitter_fraction:
        Cell-to-cell variation of the disturb shift, as a fraction of the
        deterministic shift.
    """

    reference_reads: float = 100000.0
    shift_scale: float = 10.0
    level_attenuation: float = 0.55
    wear_acceleration: float = 1.0
    jitter_fraction: float = 0.3

    def __post_init__(self):
        if self.reference_reads <= 0:
            raise ValueError("reference_reads must be positive")
        if self.shift_scale < 0:
            raise ValueError("shift_scale must be non-negative")
        if not 0 < self.level_attenuation <= 1:
            raise ValueError("level_attenuation must lie in (0, 1]")
        if self.wear_acceleration < 0:
            raise ValueError("wear_acceleration must be non-negative")
        if self.jitter_fraction < 0:
            raise ValueError("jitter_fraction must be non-negative")


class ReadDisturbModel:
    """Accumulated read-disturb shift as a function of the read count."""

    def __init__(self, params: FlashParameters | None = None,
                 disturb: ReadDisturbParameters | None = None):
        self.params = params if params is not None else FlashParameters()
        self.disturb = (disturb if disturb is not None
                        else ReadDisturbParameters())

    def read_factor(self, read_count: float) -> float:
        """Normalised disturb severity: 0 at zero reads, 1 at the reference."""
        if read_count < 0:
            raise ValueError("read_count must be non-negative")
        n0 = self.disturb.reference_reads
        return float(np.log1p(read_count / n0) / np.log1p(1.0))

    def wear_factor(self, pe_cycles: float) -> float:
        """Wear amplification of the disturb (1 for a fresh block)."""
        wear = float(self.params.normalized_wear(pe_cycles))
        return 1.0 + self.disturb.wear_acceleration * wear

    def mean_shift(self, program_levels: np.ndarray, pe_cycles: float,
                   read_count: float) -> np.ndarray:
        """Upward mean shift of every cell (non-negative values)."""
        levels = np.asarray(program_levels)
        severity = self.read_factor(read_count) * self.wear_factor(pe_cycles)
        per_level = self.disturb.shift_scale * severity \
            * self.disturb.level_attenuation ** np.arange(NUM_LEVELS, dtype=float)
        return per_level[levels]

    def apply(self, voltages: np.ndarray, program_levels: np.ndarray,
              pe_cycles: float, read_count: float,
              rng: np.random.Generator | None = None) -> np.ndarray:
        """Apply read disturb to already-sampled read voltages."""
        volts = np.asarray(voltages, dtype=float)
        levels = np.asarray(program_levels)
        if volts.shape != levels.shape:
            raise ValueError("voltages and program_levels must share a shape")
        if read_count == 0:
            return volts.copy()
        generator = rng if rng is not None else np.random.default_rng()

        shift = self.mean_shift(levels, pe_cycles, read_count)
        jitter = generator.normal(0.0, 1.0, size=volts.shape) \
            * self.disturb.jitter_fraction * shift
        disturbed = volts + shift + np.abs(jitter) * np.sign(shift)
        return np.clip(disturbed, self.params.voltage_min,
                       self.params.voltage_max)
