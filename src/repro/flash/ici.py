"""Spatial inter-cell interference (ICI) model.

Programming a cell to a high level couples capacitively onto its direct
neighbours and raises their read voltages.  The shift received by a victim
cell is a weighted sum of the voltage swings of its word-line (left/right)
and bit-line (up/down) neighbours, with the bit-line coupling dominating —
the paper observes that 707/706/607 patterns in the BL direction are the most
error prone.

Program-verify largely compensates the interference received by programmed
cells (they are verified against their target after neighbours are written in
a real device's programming sequence), so programmed victims only retain a
fraction of the shift; erased cells receive it in full.
"""

from __future__ import annotations

import numpy as np

from repro.flash.cell import ERASED_LEVEL
from repro.flash.params import FlashParameters

__all__ = ["ICIModel"]


class ICIModel:
    """Compute ICI voltage shifts for a block of program levels."""

    def __init__(self, params: FlashParameters | None = None):
        self.params = params if params is not None else FlashParameters()

    def neighbour_swing(self, program_levels: np.ndarray) -> np.ndarray:
        """Voltage swing each cell imposes on its neighbours when programmed.

        The swing is the nominal voltage difference between the programmed
        level and the erased state; erased cells impose no swing.
        """
        params = self.params
        levels = np.asarray(program_levels)
        swings = params.means_array[levels] - params.means_array[ERASED_LEVEL]
        return swings

    def shifts(self, program_levels: np.ndarray) -> np.ndarray:
        """ICI voltage shift received by every cell of a block.

        Parameters
        ----------
        program_levels:
            Integer array of shape ``(..., H, W)``; rows are wordlines and
            columns are bitlines.

        Returns
        -------
        numpy.ndarray
            Float array of the same shape with the interference shift each
            cell receives from its four direct neighbours.  Cells on the block
            boundary simply have fewer aggressors.
        """
        params = self.params
        levels = np.asarray(program_levels)
        if levels.ndim < 2:
            raise ValueError("program_levels must have at least 2 dimensions")
        swings = self.neighbour_swing(levels)

        shifts = np.zeros(levels.shape, dtype=float)
        # Word-line neighbours: same row, adjacent columns (left and right).
        shifts[..., :, 1:] += params.wl_coupling * swings[..., :, :-1]
        shifts[..., :, :-1] += params.wl_coupling * swings[..., :, 1:]
        # Bit-line neighbours: same column, adjacent rows (up and down).
        shifts[..., 1:, :] += params.bl_coupling * swings[..., :-1, :]
        shifts[..., :-1, :] += params.bl_coupling * swings[..., 1:, :]

        # Program-verify compensates most interference on programmed victims.
        attenuation = np.where(levels == ERASED_LEVEL, 1.0,
                               params.ici_program_attenuation)
        return shifts * attenuation
