"""Page-level view of the channel: page programming and bit error rates.

The basic unit of host I/O is the *page* — one logical bit position of every
cell of a wordline (Fig. 1).  The level error rate the paper reports is a
cell-level quantity; controllers and ECC designers care about the *raw bit
error rate* (RBER) of each page, which follows from the level errors through
the Gray mapping: because adjacent levels differ in exactly one bit, a
single-step level error corrupts exactly one of the three pages.

This module converts between page data and program levels and extracts
per-page bit error statistics from (program level, soft voltage) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flash.cell import BITS_PER_CELL, levels_to_pages, pages_to_levels
from repro.flash.params import FlashParameters
from repro.flash.thresholds import default_read_thresholds, hard_read

__all__ = [
    "PAGE_NAMES",
    "program_pages",
    "page_bit_errors",
    "page_bit_error_rates",
    "PageErrorReport",
]

#: Human-readable page names indexed by page position.
PAGE_NAMES: tuple[str, str, str] = ("lower", "middle", "upper")


def program_pages(lower: np.ndarray, middle: np.ndarray,
                  upper: np.ndarray) -> np.ndarray:
    """Program levels storing the given per-page bit arrays.

    All three arrays must share a shape; the result has the same shape and
    holds the TLC level encoding each cell's (lower, middle, upper) bits.
    """
    lower = np.asarray(lower)
    middle = np.asarray(middle)
    upper = np.asarray(upper)
    if not (lower.shape == middle.shape == upper.shape):
        raise ValueError("page arrays must share a shape")
    pages = np.stack([lower, middle, upper], axis=-1)
    return pages_to_levels(pages)


@dataclass
class PageErrorReport:
    """Per-page bit error statistics for one read."""

    bit_errors: dict[str, int]
    bits_per_page: int

    @property
    def total_bit_errors(self) -> int:
        return sum(self.bit_errors.values())

    @property
    def total_bits(self) -> int:
        return self.bits_per_page * BITS_PER_CELL

    def rber(self, page: str | None = None) -> float:
        """Raw bit error rate of one page (or of all pages combined)."""
        if self.bits_per_page == 0:
            return 0.0
        if page is None:
            return self.total_bit_errors / self.total_bits
        if page not in self.bit_errors:
            raise KeyError(f"unknown page {page!r}")
        return self.bit_errors[page] / self.bits_per_page


def page_bit_errors(program_levels: np.ndarray, voltages: np.ndarray,
                    thresholds: np.ndarray | None = None,
                    params: FlashParameters | None = None) -> PageErrorReport:
    """Count bit errors of each logical page.

    Parameters
    ----------
    program_levels:
        The levels the host intended to program.
    voltages:
        Soft read voltages of the same cells (measured or model-generated).
    """
    levels = np.asarray(program_levels)
    volts = np.asarray(voltages)
    if levels.shape != volts.shape:
        raise ValueError("program_levels and voltages must share a shape")
    if thresholds is None:
        thresholds = default_read_thresholds(params)

    written = levels_to_pages(levels)
    read = levels_to_pages(hard_read(volts, thresholds))
    errors = {}
    for page_index, name in enumerate(PAGE_NAMES):
        errors[name] = int(np.count_nonzero(
            written[..., page_index] != read[..., page_index]))
    return PageErrorReport(bit_errors=errors, bits_per_page=int(levels.size))


def page_bit_error_rates(program_levels: np.ndarray, voltages: np.ndarray,
                         thresholds: np.ndarray | None = None,
                         params: FlashParameters | None = None
                         ) -> dict[str, float]:
    """Raw bit error rate of each page (convenience wrapper)."""
    report = page_bit_errors(program_levels, voltages, thresholds, params)
    return {name: report.rber(name) for name in PAGE_NAMES}
