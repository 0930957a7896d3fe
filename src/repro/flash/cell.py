"""TLC cell fundamentals: program levels, Gray mapping and logical pages.

A triple-level cell (TLC) stores three bits, giving eight program levels.  The
mapping between levels and bit triples follows Fig. 1 of the paper: level 7
(lowest threshold voltage after erase is level 0, the *erased* state) down to
level 0 map onto a Gray code so adjacent levels differ in exactly one bit,
which confines a single-level read error to a single page.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NUM_LEVELS",
    "ERASED_LEVEL",
    "BITS_PER_CELL",
    "LOWER_PAGE",
    "MIDDLE_PAGE",
    "UPPER_PAGE",
    "GRAY_MAP",
    "levels_to_pages",
    "pages_to_levels",
]

#: Number of program levels in a TLC device (2 ** BITS_PER_CELL).
NUM_LEVELS = 8

#: The erased state: the lowest-voltage level, written by a block erase.
ERASED_LEVEL = 0

#: Bits stored per TLC cell.
BITS_PER_CELL = 3

#: Page indices within a wordline (order of the bit triple).
LOWER_PAGE = 0
MIDDLE_PAGE = 1
UPPER_PAGE = 2

#: Gray mapping of Fig. 1 (left): program level -> (lower, middle, upper) bits.
#: Level 7 is the highest-voltage state, level 0 the erased state.
GRAY_MAP: dict[int, tuple[int, int, int]] = {
    7: (0, 1, 1),
    6: (0, 1, 0),
    5: (0, 0, 0),
    4: (0, 0, 1),
    3: (1, 0, 1),
    2: (1, 0, 0),
    1: (1, 1, 0),
    0: (1, 1, 1),
}

# Lookup tables used by the conversions.
_LEVEL_TO_BITS = np.array([GRAY_MAP[level] for level in range(NUM_LEVELS)],
                          dtype=np.int64)
_BITS_TO_LEVEL = np.full((2, 2, 2), -1, dtype=np.int64)
for _level, _bits in GRAY_MAP.items():
    _BITS_TO_LEVEL[_bits] = _level


def levels_to_pages(levels: np.ndarray) -> np.ndarray:
    """Convert an array of program levels into page bits.

    Parameters
    ----------
    levels:
        Integer array of program levels with arbitrary shape ``S``.

    Returns
    -------
    numpy.ndarray
        Integer array of shape ``S + (3,)`` holding the lower, middle and
        upper page bits of every cell.
    """
    levels = np.asarray(levels)
    if levels.size and (levels.min() < 0 or levels.max() >= NUM_LEVELS):
        raise ValueError("program levels must lie in [0, 8)")
    return _LEVEL_TO_BITS[levels]


def pages_to_levels(pages: np.ndarray) -> np.ndarray:
    """Convert page bits (shape ``S + (3,)``) back into program levels."""
    pages = np.asarray(pages)
    if pages.shape[-1] != BITS_PER_CELL:
        raise ValueError("last dimension must hold the three page bits")
    if pages.size and not np.isin(pages, (0, 1)).all():
        raise ValueError("page bits must be 0 or 1")
    return _BITS_TO_LEVEL[pages[..., 0], pages[..., 1], pages[..., 2]]
