"""Information-theoretic evaluation of the flash channel.

Beyond the paper's two metric families (conditional PDFs and ICI pattern
statistics), the quantity a coding theorist ultimately wants from a channel
model is its *information content*: how many bits per cell the channel can
carry, how much of that survives hard quantisation, and how much soft
multi-read sensing buys back.  These metrics also give a compact scalar
summary for comparing a generative model's output against measured data.

All estimators work on discrete (histogram-quantised) representations of the
joint distribution ``P(PL, VL)`` built from paired samples, so they apply
uniformly to simulator data and to model-regenerated data.
"""

from __future__ import annotations

import numpy as np

from repro.flash.cell import NUM_LEVELS
from repro.flash.params import FlashParameters
from repro.flash.thresholds import default_read_thresholds, hard_read

__all__ = [
    "joint_level_voltage_histogram",
    "mutual_information",
    "hard_decision_mutual_information",
    "soft_read_mutual_information",
    "channel_capacity_estimate",
    "multi_read_thresholds",
]

_EPS = 1e-15


def joint_level_voltage_histogram(program_levels: np.ndarray,
                                  voltages: np.ndarray, num_bins: int = 64,
                                  params: FlashParameters | None = None
                                  ) -> np.ndarray:
    """Joint probability table ``P(PL = l, VL in bin b)`` from paired samples.

    Returns an array of shape ``(NUM_LEVELS, num_bins)`` summing to one.
    """
    levels = np.asarray(program_levels).ravel()
    volts = np.asarray(voltages, dtype=float).ravel()
    if levels.shape != volts.shape:
        raise ValueError("program_levels and voltages must share a shape")
    if levels.size == 0:
        raise ValueError("empty input")
    if num_bins < 2:
        raise ValueError("num_bins must be at least 2")
    parameters = params if params is not None else FlashParameters()
    edges = np.linspace(parameters.voltage_min, parameters.voltage_max,
                        num_bins + 1)
    joint = np.zeros((NUM_LEVELS, num_bins))
    for level in range(NUM_LEVELS):
        selected = volts[levels == level]
        if selected.size:
            joint[level], _ = np.histogram(selected, bins=edges)
    total = joint.sum()
    if total == 0:
        raise ValueError("all voltages fall outside the histogram range")
    return joint / total


def mutual_information(joint: np.ndarray) -> float:
    """Mutual information (bits) of a discrete joint probability table."""
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise ValueError("joint must be a 2-D probability table")
    if np.any(joint < 0):
        raise ValueError("joint probabilities must be non-negative")
    total = joint.sum()
    if total <= 0:
        raise ValueError("joint table must have positive mass")
    joint = joint / total
    row_marginal = joint.sum(axis=1, keepdims=True)
    column_marginal = joint.sum(axis=0, keepdims=True)
    independent = row_marginal @ column_marginal
    mask = joint > 0
    return float(np.sum(joint[mask]
                        * np.log2(joint[mask]
                                  / np.maximum(independent[mask], _EPS))))


def hard_decision_mutual_information(program_levels: np.ndarray,
                                     voltages: np.ndarray,
                                     thresholds: np.ndarray | None = None,
                                     params: FlashParameters | None = None
                                     ) -> float:
    """Mutual information (bits/cell) after hard-read quantisation.

    This is the information the standard 7-threshold read preserves; it upper
    bounds the rate of any hard-decision-decoded code on this channel.
    """
    levels = np.asarray(program_levels).ravel()
    volts = np.asarray(voltages, dtype=float).ravel()
    if levels.shape != volts.shape:
        raise ValueError("program_levels and voltages must share a shape")
    if levels.size == 0:
        raise ValueError("empty input")
    if thresholds is None:
        thresholds = default_read_thresholds(params)
    hard = hard_read(volts, thresholds)
    joint = np.zeros((NUM_LEVELS, NUM_LEVELS))
    for level in range(NUM_LEVELS):
        mask = levels == level
        if mask.any():
            joint[level] = np.bincount(hard[mask], minlength=NUM_LEVELS)
    return mutual_information(joint)


def multi_read_thresholds(num_reads_per_boundary: int = 3,
                          spread: float = 10.0,
                          params: FlashParameters | None = None) -> np.ndarray:
    """Sensing levels of a multi-read (soft) sensing scheme.

    Real controllers approximate soft information by re-reading a page with
    the thresholds shifted by small offsets; ``num_reads_per_boundary`` reads
    spaced ``spread`` voltage units apart are placed around every default
    threshold.  Returns the sorted array of all sensing levels.
    """
    if num_reads_per_boundary < 1:
        raise ValueError("num_reads_per_boundary must be positive")
    if spread <= 0:
        raise ValueError("spread must be positive")
    defaults = default_read_thresholds(params)
    offsets = (np.arange(num_reads_per_boundary)
               - (num_reads_per_boundary - 1) / 2.0) * spread
    sensing = (defaults[:, None] + offsets[None, :]).ravel()
    return np.sort(sensing)


def soft_read_mutual_information(program_levels: np.ndarray,
                                 voltages: np.ndarray,
                                 num_reads_per_boundary: int = 3,
                                 spread: float = 10.0,
                                 params: FlashParameters | None = None
                                 ) -> float:
    """Mutual information after quantising with a multi-read sensing scheme.

    Lies between the hard-decision value (1 read per boundary) and the
    full-resolution estimate of :func:`channel_capacity_estimate`; the gap to
    the hard value is the gain soft-decision LDPC decoding can exploit.
    """
    levels = np.asarray(program_levels).ravel()
    volts = np.asarray(voltages, dtype=float).ravel()
    if levels.shape != volts.shape:
        raise ValueError("program_levels and voltages must share a shape")
    if levels.size == 0:
        raise ValueError("empty input")
    sensing = multi_read_thresholds(num_reads_per_boundary, spread, params)
    regions = np.searchsorted(sensing, volts, side="left")
    num_regions = sensing.size + 1
    joint = np.zeros((NUM_LEVELS, num_regions))
    for level in range(NUM_LEVELS):
        mask = levels == level
        if mask.any():
            joint[level] = np.bincount(regions[mask], minlength=num_regions)
    return mutual_information(joint)


def channel_capacity_estimate(program_levels: np.ndarray,
                              voltages: np.ndarray, num_bins: int = 128,
                              params: FlashParameters | None = None) -> float:
    """Histogram estimate of ``I(PL; VL)`` with uniform level usage (bits/cell).

    With scrambled (uniform) program levels this approximates the symmetric
    information rate of the channel — the practically relevant capacity for a
    controller that does not shape its input distribution.
    """
    joint = joint_level_voltage_histogram(program_levels, voltages,
                                          num_bins=num_bins, params=params)
    return mutual_information(joint)
