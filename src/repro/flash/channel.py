"""The complete flash memory channel: program levels in, read voltages out.

:class:`FlashChannel` composes the wear model (temporal), the ICI model
(spatial) and the noise sampler into the conditional distribution
``P(VL | PL, P/E)`` the paper's generative model is trained to learn.  It also
provides the program operation (including rare program errors) so the P/E
cycling experiment of Section II-A can be replayed end to end.
"""

from __future__ import annotations

import numpy as np

from repro.flash.cell import ERASED_LEVEL, NUM_LEVELS
from repro.flash.geometry import BlockGeometry
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
    geometry:
        Block geometry used by :meth:`program_random_block`.
    rng:
        Random generator (seeded for reproducible experiments).
    """

    def __init__(self, params: FlashParameters | None = None,
                 geometry: BlockGeometry | None = None,
                 rng: np.random.Generator | None = None):
        self.params = params if params is not None else FlashParameters()
        self.geometry = geometry if geometry is not None else BlockGeometry()
        self.rng = rng if rng is not None else np.random.default_rng()
        self.wear = WearModel(self.params)
        self.ici = ICIModel(self.params)
        self.sampler = VoltageSampler(self.params, self.rng)

    # ------------------------------------------------------------------ #
    # Program operation
    # ------------------------------------------------------------------ #
    def program_random_block(self, rng: np.random.Generator | None = None
                             ) -> np.ndarray:
        """Pseudo-random program levels for one block (uniform over levels)."""
        generator = rng if rng is not None else self.rng
        return generator.integers(0, NUM_LEVELS, size=self.geometry.shape)

    def apply_program_errors(self, program_levels: np.ndarray,
                             rng: np.random.Generator | None = None
                             ) -> np.ndarray:
        """Introduce rare mis-programming to an adjacent level."""
        generator = rng if rng is not None else self.rng
        levels = np.asarray(program_levels).copy()
        if self.params.program_error_rate <= 0:
            return levels
        error_mask = generator.random(levels.shape) < self.params.program_error_rate
        direction = generator.choice((-1, 1), size=levels.shape)
        shifted = np.clip(levels + direction, 0, NUM_LEVELS - 1)
        return np.where(error_mask, shifted, levels)

    # ------------------------------------------------------------------ #
    # Read operation
    # ------------------------------------------------------------------ #
    def read(self, program_levels: np.ndarray, pe_cycles: float,
             apply_ici: bool = True,
             apply_program_errors: bool = False,
             rng: np.random.Generator | None = None) -> np.ndarray:
        """Soft read voltages for an array of program levels.

        Parameters
        ----------
        program_levels:
            Integer array with at least two dimensions ``(..., H, W)``; the
            last two dimensions are the wordline/bitline grid used for ICI.
        pe_cycles:
            P/E cycle count at which the block is read.
        apply_ici:
            Disable to obtain isolated-cell behaviour (useful for fitting the
            statistical baselines, which model cells in isolation).
        apply_program_errors:
            Apply rare adjacent-level mis-programming before the read.
        rng:
            Optional generator overriding the channel's own for this call;
            the read keeps no state, so threads may share one channel as
            long as each passes its own generator.
        """
        levels = np.asarray(program_levels)
        if levels.ndim < 2:
            raise ValueError("program_levels must have at least 2 dimensions")
        if levels.size and (levels.min() < 0 or levels.max() >= NUM_LEVELS):
            raise ValueError("program levels must lie in [0, 8)")
        if pe_cycles < 0:
            raise ValueError("pe_cycles must be non-negative")
        if apply_program_errors:
            levels = self.apply_program_errors(levels, rng=rng)
        shifts = self.ici.shifts(levels) if apply_ici else None
        return self.sampler.sample(levels, pe_cycles, ici_shifts=shifts,
                                   rng=rng)

    # ------------------------------------------------------------------ #
    # Dataset-style helpers
    # ------------------------------------------------------------------ #
    def paired_blocks(self, num_blocks: int, pe_cycles: float,
                      apply_program_errors: bool = True
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Generate ``num_blocks`` paired (PL, VL) blocks at one P/E count.

        Returns arrays of shape ``(num_blocks, H, W)``.  The returned program
        levels are the *intended* levels (what the host wrote); program errors
        and ICI act inside the channel, exactly as in the measurement
        campaign the paper describes.
        """
        if num_blocks < 1:
            raise ValueError("num_blocks must be positive")
        program = np.stack([self.program_random_block()
                            for _ in range(num_blocks)])
        voltages = self.read(program, pe_cycles,
                             apply_program_errors=apply_program_errors)
        return program, voltages

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
