"""Spatial ICI evaluation: pattern-dependent error probabilities (Fig. 6).

For erased (level-0) victim cells that read back in error, the relative
frequency of each word-line and bit-line neighbour pattern is computed; the
paper visualises these as pie charts and checks that the generative model
reproduces both the dominant patterns and their rank ordering.
"""

from __future__ import annotations

import numpy as np

from repro.flash.params import FlashParameters
from repro.flash.patterns import (
    BITLINE,
    WORDLINE,
    count_error_patterns,
    pattern_relative_frequencies,
)

__all__ = [
    "ici_error_profile",
    "top_pattern_frequencies",
    "pattern_rank_order",
    "rank_agreement",
]


def ici_error_profile(program_levels: np.ndarray, voltages: np.ndarray,
                      victim_level: int = 0,
                      thresholds: np.ndarray | None = None,
                      params: FlashParameters | None = None
                      ) -> dict[str, dict[str, float]]:
    """Pattern-dependent error frequencies in both directions.

    Returns ``{"wl": {...}, "bl": {...}}`` where each inner dict maps a 3-cell
    pattern label to its relative frequency among erroneous victim cells, plus
    the key ``"__total_errors__"`` holding the raw error count (the number the
    paper quotes under each pie chart).
    """
    profile: dict[str, dict[str, float]] = {}
    for direction in (WORDLINE, BITLINE):
        counts = count_error_patterns(program_levels, voltages, direction,
                                      victim_level=victim_level,
                                      thresholds=thresholds, params=params)
        frequencies = pattern_relative_frequencies(counts)
        frequencies["__total_errors__"] = float(sum(counts.values()))
        profile[direction] = frequencies
    return profile


def top_pattern_frequencies(frequencies: dict[str, float], top_k: int = 23
                            ) -> dict[str, float]:
    """The ``top_k`` most frequent patterns plus an aggregated ``others`` share.

    Fig. 6 shows the 23 most frequent patterns individually and combines the
    remaining 41 into a sector labelled "others".
    """
    real = {pattern: value for pattern, value in frequencies.items()
            if not pattern.startswith("__")}
    ordered = sorted(real.items(), key=lambda item: item[1], reverse=True)
    top = dict(ordered[:top_k])
    others = sum(value for _, value in ordered[top_k:])
    if others > 0 or len(ordered) > top_k:
        top["others"] = others
    return top


def pattern_rank_order(frequencies: dict[str, float],
                       top_k: int | None = None) -> list[str]:
    """Patterns sorted by decreasing error frequency (ties broken by label)."""
    real = [(pattern, value) for pattern, value in frequencies.items()
            if not pattern.startswith("__")]
    ordered = sorted(real, key=lambda item: (-item[1], item[0]))
    labels = [pattern for pattern, _ in ordered]
    return labels[:top_k] if top_k is not None else labels


def rank_agreement(reference: dict[str, float], candidate: dict[str, float],
                   top_k: int = 5) -> float:
    """Fraction of the reference's top-``k`` patterns found in the candidate's.

    A value of 1.0 means the candidate reproduces the reference's ``top_k``
    most error-prone patterns (in any order); the paper reports that the
    cVAE-GAN "generates the same rank ordering of pattern fractions as the
    measured data in both directions".
    """
    if top_k < 1:
        raise ValueError("top_k must be positive")
    reference_top = set(pattern_rank_order(reference, top_k))
    candidate_top = set(pattern_rank_order(candidate, top_k))
    if not reference_top:
        return 0.0
    return len(reference_top & candidate_top) / len(reference_top)
