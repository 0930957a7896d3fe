"""Distribution distances: the total variation distance of Remark 3.

Remark 3 of the paper selects the cVAE-GAN architecture because it achieves
the smallest total variation distance ``d_TV(P_real, P_fake)`` with respect to
the measured voltage distribution.
"""

from __future__ import annotations

import numpy as np

__all__ = ["total_variation_distance", "distribution_distance"]

_EPS = 1e-12


def _as_probability_vector(values: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"{name} must be a 1-D probability vector")
    if np.any(values < 0):
        raise ValueError(f"{name} must be non-negative")
    total = values.sum()
    if total <= 0:
        raise ValueError(f"{name} must have positive mass")
    return values / total


def total_variation_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two discrete distributions.

    ``d_TV(P, Q) = 0.5 * sum_i |P_i - Q_i|`` — the metric of Remark 3.
    """
    p = _as_probability_vector(p, "p")
    q = _as_probability_vector(q, "q")
    if p.shape != q.shape:
        raise ValueError("p and q must have the same length")
    return float(0.5 * np.abs(p - q).sum())


def distribution_distance(real_voltages: np.ndarray, fake_voltages: np.ndarray,
                          bins: int = 200,
                          voltage_range: tuple[float, float] = (0.0, 650.0)
                          ) -> float:
    """Total variation distance between two voltage samples, histogrammed
    on a common grid.

    Parameters
    ----------
    real_voltages, fake_voltages:
        Samples of read voltages (arbitrary shapes; flattened internally).
    bins, voltage_range:
        Shared histogram grid.
    """
    edges = np.linspace(voltage_range[0], voltage_range[1], bins + 1)
    real_counts, _ = np.histogram(np.asarray(real_voltages).ravel(), bins=edges)
    fake_counts, _ = np.histogram(np.asarray(fake_voltages).ravel(), bins=edges)
    if real_counts.sum() == 0 or fake_counts.sum() == 0:
        raise ValueError("both samples must have mass inside the voltage range")
    real_probabilities = real_counts / real_counts.sum()
    # The TVD needs no smoothing (a KL metric once did), but dropping this
    # line moves the TVD's last bits, and with them e2ebench's voltage_tvd,
    # Remark 3 and the ablation figures (ROADMAP item 7): it goes only with
    # a benchmark re-baseline.
    fake_probabilities = (fake_counts + _EPS) / (fake_counts.sum() + _EPS * bins)
    return total_variation_distance(real_probabilities, fake_probabilities)
