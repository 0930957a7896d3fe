"""Dataset pipeline: paired (PL, VL, P/E) arrays for training and evaluation.

The paper crops measured blocks into non-overlapping 64x64 arrays and pairs
each program-level array with the corresponding read-voltage array and the
P/E cycle count of the read.  This package generates the same kind of paired
dataset from the simulated channel, normalises the voltages for the neural
networks, and provides shuffled mini-batch iteration.
"""

from repro.data.generation import generate_paired_dataset, crop_blocks
from repro.data.dataset import FlashChannelDataset
from repro.data.normalize import VoltageNormalizer
from repro.data.loaders import BatchIterator

__all__ = [
    "generate_paired_dataset",
    "crop_blocks",
    "FlashChannelDataset",
    "VoltageNormalizer",
    "BatchIterator",
]
