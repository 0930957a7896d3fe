"""Generation of paired channel instances from the simulated flash chip.

Section III-A of the paper: "we collect the paired channel instances at
specific P/E cycles, where the channel instances are denoted as
{(PL, VL, P/E)}" and Section III-C: "We crop the blocks into non-overlapping
64x64 2-D arrays to formulate our paired data."
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import FlashChannelDataset

__all__ = ["crop_blocks", "generate_paired_dataset"]


def crop_blocks(blocks: np.ndarray, crop_size: int) -> np.ndarray:
    """Crop full blocks into non-overlapping ``crop_size`` x ``crop_size`` tiles.

    Parameters
    ----------
    blocks:
        Array of shape ``(num_blocks, H, W)``.
    crop_size:
        Side length of the square crops.  Rows/columns that do not fill a
        complete crop are discarded (the paper uses non-overlapping crops).

    Returns
    -------
    numpy.ndarray
        Array of shape ``(num_crops, crop_size, crop_size)``.
    """
    blocks = np.asarray(blocks)
    if blocks.ndim != 3:
        raise ValueError("blocks must have shape (num_blocks, H, W)")
    num_blocks, height, width = blocks.shape
    if crop_size < 1:
        raise ValueError("crop_size must be positive")
    rows = height // crop_size
    cols = width // crop_size
    if rows == 0 or cols == 0:
        raise ValueError("crop_size larger than the block dimensions")
    trimmed = blocks[:, :rows * crop_size, :cols * crop_size]
    tiles = trimmed.reshape(num_blocks, rows, crop_size, cols, crop_size)
    tiles = tiles.transpose(0, 1, 3, 2, 4)
    return tiles.reshape(num_blocks * rows * cols, crop_size, crop_size)


def generate_paired_dataset(channel,
                            pe_cycles: tuple[int, ...] = (4000, 7000, 10000),
                            arrays_per_pe: int = 64,
                            array_size: int = 64,
                            apply_program_errors: bool = True
                            ) -> FlashChannelDataset:
    """Generate a paired (PL, VL, P/E) dataset from the simulated channel.

    Parameters
    ----------
    channel:
        The :class:`repro.channel.ChannelModel` to sample from — the
        simulator, for the paper's measured data.
    pe_cycles:
        P/E cycle counts at which paired data is collected.
    arrays_per_pe:
        Number of ``array_size`` x ``array_size`` arrays per P/E cycle count.
    array_size:
        Side length of the cropped arrays (64 in the paper).
    apply_program_errors:
        Include rare mis-programming events in the channel reads.

    Returns
    -------
    FlashChannelDataset
        Dataset with ``len(pe_cycles) * arrays_per_pe`` paired arrays.
    """
    if arrays_per_pe < 1:
        raise ValueError("arrays_per_pe must be positive")
    if not pe_cycles:
        raise ValueError("pe_cycles must not be empty")

    block_height, block_width = channel.geometry.shape
    crops_per_block = max((block_height // array_size)
                          * (block_width // array_size), 0)
    if crops_per_block == 0:
        raise ValueError(
            f"array_size {array_size} does not fit into the channel's "
            f"{block_height}x{block_width} blocks")

    program_arrays: list[np.ndarray] = []
    voltage_arrays: list[np.ndarray] = []
    pe_values: list[np.ndarray] = []
    for pe in pe_cycles:
        blocks_needed = int(np.ceil(arrays_per_pe / crops_per_block))
        program, voltages = channel.paired_blocks(
            blocks_needed, pe, apply_program_errors=apply_program_errors)
        program_crops = crop_blocks(program, array_size)[:arrays_per_pe]
        voltage_crops = crop_blocks(voltages, array_size)[:arrays_per_pe]
        program_arrays.append(program_crops)
        voltage_arrays.append(voltage_crops)
        pe_values.append(np.full(len(program_crops), pe, dtype=float))

    return FlashChannelDataset(
        program_levels=np.concatenate(program_arrays),
        voltages=np.concatenate(voltage_arrays),
        pe_cycles=np.concatenate(pe_values))
