"""Mini-batch iteration over the paired dataset."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.data.dataset import FlashChannelDataset

__all__ = ["BatchIterator"]


class BatchIterator:
    """Shuffled mini-batch iterator over a :class:`FlashChannelDataset`.

    Each iteration is one pass over the dataset in a fresh order, drawn from
    ``rng`` when the pass starts.  Each batch is a tuple
    ``(program_levels, voltages, pe_cycles)`` with leading dimension
    ``batch_size`` (the final batch of a pass may be smaller).
    """

    def __init__(self, dataset: FlashChannelDataset, batch_size: int = 2,
                 rng: np.random.Generator | None = None):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if len(dataset) == 0:
            raise ValueError("dataset is empty")
        self.dataset = dataset
        self.batch_size = batch_size
        self.rng = rng if rng is not None else np.random.default_rng()

    def __len__(self) -> int:
        """Number of batches per pass."""
        return -(-len(self.dataset) // self.batch_size)

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        indices = np.arange(len(self.dataset))
        self.rng.shuffle(indices)
        for start in range(0, len(indices), self.batch_size):
            batch_indices = indices[start:start + self.batch_size]
            yield (self.dataset.program_levels[batch_indices],
                   self.dataset.voltages[batch_indices],
                   self.dataset.pe_cycles[batch_indices])
