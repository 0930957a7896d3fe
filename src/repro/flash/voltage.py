"""Read-voltage noise sampling.

Each cell's read voltage is the wear-adjusted level mean, plus the ICI shift,
plus a noise term.  For programmed levels the noise is a two-component
mixture: a Gaussian core and, with a small P/E-dependent probability, a heavy
Laplace tail (this is what makes the Normal-Laplace statistical baseline fit
better than the pure Gaussian, as reported in the paper).  Erased cells use a
pure Gaussian: their upper tail is governed by ICI rather than intrinsic
noise, and their lower tail points away from the first read threshold.
"""

from __future__ import annotations

import numpy as np

from repro.flash.cell import ERASED_LEVEL
from repro.flash.params import FlashParameters
from repro.flash.wear import WearModel

__all__ = ["VoltageSampler"]


class VoltageSampler:
    """Sample per-cell noise and compose read voltages."""

    def __init__(self, params: FlashParameters | None = None):
        self.params = params if params is not None else FlashParameters()
        self.wear = WearModel(self.params)

    def noise(self, program_levels: np.ndarray, pe_cycles: float,
              rng: np.random.Generator) -> np.ndarray:
        """Draw the noise term for every cell of ``program_levels``."""
        levels = np.asarray(program_levels)
        sigmas = self.wear.level_sigmas(pe_cycles)[levels]
        tail_scales = self.wear.tail_scales(pe_cycles)[levels]
        tail_probability = self.wear.tail_probability(pe_cycles)

        gaussian = rng.normal(0.0, 1.0, size=levels.shape) * sigmas
        laplace = rng.laplace(0.0, 1.0, size=levels.shape) * tail_scales
        use_tail = rng.random(levels.shape) < tail_probability
        # Erased cells stay Gaussian: see the module docstring.
        use_tail &= levels != ERASED_LEVEL
        return np.where(use_tail, laplace, gaussian)

    def sample(self, program_levels: np.ndarray, pe_cycles: float,
               rng: np.random.Generator,
               ici_shifts: np.ndarray | None = None) -> np.ndarray:
        """Read voltages for an array of program levels at one P/E count.

        Parameters
        ----------
        program_levels:
            Integer array of program levels (any shape).
        pe_cycles:
            P/E cycle count of the read.
        rng:
            The generator the noise is drawn from.
        ici_shifts:
            Optional pre-computed interference shifts (same shape); when
            omitted no ICI is applied (isolated-cell behaviour).
        """
        levels = np.asarray(program_levels)
        means = self.wear.level_means(pe_cycles)[levels]
        voltages = means + self.noise(levels, pe_cycles, rng)
        if ici_shifts is not None:
            voltages = voltages + np.asarray(ici_shifts)
        return np.clip(voltages, self.params.voltage_min, self.params.voltage_max)
