"""Three-cell program-level patterns and pattern-dependent error analysis.

Following Section II-A of the paper, the *pattern* of a cell is the triple of
program levels of the cell and its two direct neighbours, either along the
wordline (WL) direction — ``PL[i, j-1] PL[i, j] PL[i, j+1]`` — or along the
bitline (BL) direction — ``PL[i-1, j] PL[i, j] PL[i+1, j]``.  The high-low-
high patterns (707, 706, 607, ...) are the ones most affected by ICI.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.flash.cell import NUM_LEVELS
from repro.flash.params import FlashParameters
from repro.flash.thresholds import default_read_thresholds, hard_read

__all__ = [
    "WORDLINE",
    "BITLINE",
    "TOP_ERROR_PATTERNS",
    "pattern_label",
    "count_error_patterns",
    "pattern_relative_frequencies",
    "top_error_pattern_counts",
]

#: Direction identifiers.  The paper labels the bitline direction "bit" and
#: the wordline direction "word" in Fig. 2.
WORDLINE = "wl"
BITLINE = "bl"

#: The nine most error-prone (pattern, direction) pairs tracked in Fig. 2.
TOP_ERROR_PATTERNS: tuple[tuple[str, str], ...] = (
    ("707", BITLINE),
    ("707", WORDLINE),
    ("706", BITLINE),
    ("705", BITLINE),
    ("706", WORDLINE),
    ("607", BITLINE),
    ("607", WORDLINE),
    ("606", WORDLINE),
    ("606", BITLINE),
)


def pattern_label(previous: int, center: int, following: int) -> str:
    """String label of a 3-cell pattern, e.g. ``pattern_label(7, 0, 7) == "707"``."""
    for value in (previous, center, following):
        if not 0 <= int(value) < NUM_LEVELS:
            raise ValueError("pattern levels must lie in [0, 8)")
    return f"{int(previous)}{int(center)}{int(following)}"


def _neighbour_triples(levels: np.ndarray, direction: str
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Previous / centre / following level arrays for interior cells."""
    levels = np.asarray(levels)
    if levels.ndim < 2:
        raise ValueError("level array must have at least 2 dimensions")
    if direction == WORDLINE:
        previous = levels[..., :, :-2]
        center = levels[..., :, 1:-1]
        following = levels[..., :, 2:]
    elif direction == BITLINE:
        previous = levels[..., :-2, :]
        center = levels[..., 1:-1, :]
        following = levels[..., 2:, :]
    else:
        raise ValueError(f"direction must be '{WORDLINE}' or '{BITLINE}'")
    return previous, center, following


def count_error_patterns(program_levels: np.ndarray, voltages: np.ndarray,
                         direction: str, victim_level: int = 0,
                         thresholds: np.ndarray | None = None,
                         params: FlashParameters | None = None
                         ) -> Counter:
    """Count neighbour patterns of erroneous victim cells.

    A victim cell is a cell programmed to ``victim_level`` whose hard read
    (against the default thresholds) differs from its program level.  The
    returned counter maps the 3-cell pattern label (neighbours taken along
    ``direction``) to the number of such errors — the quantity visualised in
    the pie charts of Fig. 6 and the bars of Fig. 2.
    """
    if thresholds is None:
        thresholds = default_read_thresholds(params)
    levels = np.asarray(program_levels)
    volts = np.asarray(voltages)
    if levels.shape != volts.shape:
        raise ValueError("program_levels and voltages must share a shape")

    previous, center, following = _neighbour_triples(levels, direction)
    _, center_volts, _ = _neighbour_triples(volts, direction)
    hard = hard_read(center_volts, thresholds)
    mask = (center == victim_level) & (hard != victim_level)

    counts: Counter = Counter()
    if not mask.any():
        return counts
    erroneous_previous = previous[mask]
    erroneous_following = following[mask]
    for prev, follow in zip(erroneous_previous.ravel(),
                            erroneous_following.ravel()):
        counts[pattern_label(prev, victim_level, follow)] += 1
    return counts


def pattern_relative_frequencies(counts: Counter) -> dict[str, float]:
    """Normalise pattern error counts to relative frequencies (sum to 1)."""
    total = sum(counts.values())
    if total == 0:
        return {}
    return {pattern: count / total for pattern, count in counts.items()}


def top_error_pattern_counts(program_levels: np.ndarray, voltages: np.ndarray,
                             victim_level: int = 0,
                             thresholds: np.ndarray | None = None,
                             params: FlashParameters | None = None
                             ) -> dict[tuple[str, str], int]:
    """Error counts of the nine Fig. 2 patterns in both directions."""
    by_direction = {
        WORDLINE: count_error_patterns(program_levels, voltages, WORDLINE,
                                       victim_level, thresholds, params),
        BITLINE: count_error_patterns(program_levels, voltages, BITLINE,
                                      victim_level, thresholds, params),
    }
    return {(pattern, direction): by_direction[direction].get(pattern, 0)
            for pattern, direction in TOP_ERROR_PATTERNS}
