"""The complete flash memory channel: program levels in, read voltages out.

:class:`FlashChannel` composes the wear model (temporal), the ICI model
(spatial) and the noise sampler into the conditional distribution
``P(VL | PL, P/E)`` the paper's generative model is trained to learn, with
rare program errors applied before the read on request.

It is the stateless physics read only: every draw comes from the generator
the caller passes, and it knows no block geometry.
:class:`repro.channel.SimulatorChannel` owns both and is the simulator every
consumer constructs.
"""

from __future__ import annotations

import numpy as np

from repro.flash.cell import ERASED_LEVEL, NUM_LEVELS
from repro.flash.ici import ICIModel
from repro.flash.params import FlashParameters
from repro.flash.voltage import VoltageSampler
from repro.flash.wear import WearModel

__all__ = ["FlashChannel"]


class FlashChannel:
    """Simulated TLC NAND flash channel with spatio-temporal distortions.

    Parameters
    ----------
    params:
        Physical parameters; defaults reproduce the qualitative behaviour the
        paper reports for its 1X-nm TLC chip.
    """

    def __init__(self, params: FlashParameters | None = None):
        self.params = params if params is not None else FlashParameters()
        self.wear = WearModel(self.params)
        self.ici = ICIModel(self.params)
        self.sampler = VoltageSampler(self.params)

    def apply_program_errors(self, program_levels: np.ndarray,
                             rng: np.random.Generator) -> np.ndarray:
        """Introduce rare mis-programming to an adjacent level."""
        levels = np.asarray(program_levels).copy()
        if self.params.program_error_rate <= 0:
            return levels
        error_mask = rng.random(levels.shape) < self.params.program_error_rate
        direction = rng.choice((-1, 1), size=levels.shape)
        shifted = np.clip(levels + direction, 0, NUM_LEVELS - 1)
        return np.where(error_mask, shifted, levels)

    def read(self, program_levels: np.ndarray, pe_cycles: float, *,
             rng: np.random.Generator, apply_ici: bool = True,
             apply_program_errors: bool = False) -> np.ndarray:
        """Soft read voltages for an array of program levels.

        Parameters
        ----------
        program_levels:
            Integer array with at least two dimensions ``(..., H, W)``; the
            last two dimensions are the wordline/bitline grid used for ICI.
        pe_cycles:
            P/E cycle count at which the block is read (finite, >= 0).
        rng:
            The generator every draw of this read comes from; the read keeps
            no state, so threads may share one channel as long as each
            passes its own generator.
        apply_ici:
            Disable to obtain isolated-cell behaviour (useful for fitting the
            statistical baselines, which model cells in isolation).
        apply_program_errors:
            Apply rare adjacent-level mis-programming before the read.
        """
        levels = np.asarray(program_levels)
        if levels.ndim < 2:
            raise ValueError("program_levels must have at least 2 dimensions")
        if levels.size and (levels.min() < 0 or levels.max() >= NUM_LEVELS):
            raise ValueError("program levels must lie in [0, 8)")
        if not np.isfinite(pe_cycles) or pe_cycles < 0:
            raise ValueError("pe_cycles must be finite and non-negative")
        if apply_program_errors:
            levels = self.apply_program_errors(levels, rng)
        shifts = self.ici.shifts(levels) if apply_ici else None
        return self.sampler.sample(levels, pe_cycles, rng, ici_shifts=shifts)

    def conditional_pdf_reference(self, level: int, pe_cycles: float,
                                  grid: np.ndarray) -> np.ndarray:
        """Analytic isolated-cell PDF of one level (no ICI).

        This is the mixture density the sampler draws from before
        interference and clipping to the voltage window; the tests hold
        isolated-cell reads to it.
        """
        means = self.wear.level_means(pe_cycles)
        sigmas = self.wear.level_sigmas(pe_cycles)
        tail_probability = self.wear.tail_probability(pe_cycles)
        tail_scales = self.wear.tail_scales(pe_cycles)
        mean, sigma = means[level], sigmas[level]
        tail_scale = tail_scales[level]
        grid = np.asarray(grid, dtype=float)
        gauss = np.exp(-0.5 * ((grid - mean) / sigma) ** 2) / (
            sigma * np.sqrt(2 * np.pi))
        laplace = np.exp(-np.abs(grid - mean) / tail_scale) / (2 * tail_scale)
        if level == ERASED_LEVEL:
            return gauss
        return (1 - tail_probability) * gauss + tail_probability * laplace
