"""The paired flash-channel dataset container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FlashChannelDataset"]


@dataclass
class FlashChannelDataset:
    """Paired channel instances ``{(PL, VL, P/E)}``.

    Attributes
    ----------
    program_levels:
        Integer array of shape ``(N, H, W)``.
    voltages:
        Float array of shape ``(N, H, W)``.
    pe_cycles:
        Float array of shape ``(N,)`` — the P/E cycle count of each array.
    """

    program_levels: np.ndarray
    voltages: np.ndarray
    pe_cycles: np.ndarray

    def __post_init__(self):
        self.program_levels = np.asarray(self.program_levels)
        self.voltages = np.asarray(self.voltages, dtype=float)
        self.pe_cycles = np.asarray(self.pe_cycles, dtype=float)
        if self.program_levels.ndim != 3:
            raise ValueError("program_levels must have shape (N, H, W)")
        if self.program_levels.shape != self.voltages.shape:
            raise ValueError("program_levels and voltages shapes differ")
        if self.pe_cycles.shape != (self.program_levels.shape[0],):
            raise ValueError("pe_cycles must have one entry per array")

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.program_levels.shape[0]

    def __getitem__(self, index) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.program_levels[index], self.voltages[index],
                self.pe_cycles[index])

    @property
    def array_shape(self) -> tuple[int, int]:
        """Spatial shape ``(H, W)`` of every paired array."""
        return self.program_levels.shape[1:]

    @property
    def unique_pe_cycles(self) -> np.ndarray:
        """Sorted distinct P/E cycle counts present in the dataset."""
        return np.unique(self.pe_cycles)

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #
    def select(self, indices: np.ndarray) -> "FlashChannelDataset":
        """Sub-dataset at the given array indices."""
        indices = np.asarray(indices)
        return FlashChannelDataset(self.program_levels[indices],
                                   self.voltages[indices],
                                   self.pe_cycles[indices])

    def filter_pe(self, pe_cycles: float) -> "FlashChannelDataset":
        """Sub-dataset containing only arrays read at ``pe_cycles``."""
        mask = self.pe_cycles == pe_cycles
        if not mask.any():
            raise ValueError(f"no arrays at P/E cycle count {pe_cycles}")
        return self.select(np.nonzero(mask)[0])

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, object]:
        """Human-readable dataset summary."""
        return {
            "num_arrays": len(self),
            "array_shape": self.array_shape,
            "pe_cycles": [int(pe) for pe in self.unique_pe_cycles],
            "arrays_per_pe": {int(pe): int(np.sum(self.pe_cycles == pe))
                              for pe in self.unique_pe_cycles},
            "voltage_range": (float(self.voltages.min()),
                              float(self.voltages.max())),
        }
