"""Default read thresholds and hard-read decisions.

The paper evaluates level error counts against "7 default read thresholds"
(the dash-dotted vertical lines of Fig. 4).  Here the default thresholds are
placed at the beginning-of-life midpoints between adjacent level means and
kept fixed across P/E cycles — exactly the setting in which wear-induced
drift and widening create read errors.
"""

from __future__ import annotations

import numpy as np

from repro.flash.cell import NUM_LEVELS
from repro.flash.params import FlashParameters

__all__ = ["default_read_thresholds", "hard_read"]


def default_read_thresholds(params: FlashParameters | None = None) -> np.ndarray:
    """The seven fixed read thresholds separating the eight levels."""
    params = params if params is not None else FlashParameters()
    means = params.means_array
    return (means[:-1] + means[1:]) / 2.0


def hard_read(voltages: np.ndarray,
              thresholds: np.ndarray | None = None,
              params: FlashParameters | None = None) -> np.ndarray:
    """Quantise soft read voltages into hard program levels.

    A voltage below the first threshold reads as level 0; a voltage above the
    last threshold reads as level 7.
    """
    if thresholds is None:
        thresholds = default_read_thresholds(params)
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.shape != (NUM_LEVELS - 1,):
        raise ValueError(f"expected {NUM_LEVELS - 1} thresholds, "
                         f"got shape {thresholds.shape}")
    if np.any(np.diff(thresholds) <= 0):
        raise ValueError("thresholds must be strictly increasing")
    return np.searchsorted(thresholds, np.asarray(voltages), side="left")
