"""Normalisation of read voltages.

The generator's final Tanh keeps network outputs in ``[-1, 1]``, so voltages
are mapped into that range.  The models encode integer program levels
themselves (:func:`repro.core.pe_encoding.encode_levels`), and P/E cycle
counts are normalised by :meth:`FlashParameters.normalized_wear
<repro.flash.params.FlashParameters.normalized_wear>`.
"""

from __future__ import annotations

import numpy as np

from repro.flash.params import FlashParameters

__all__ = ["VoltageNormalizer"]


class VoltageNormalizer:
    """Affine map between physical voltages and the network range [-1, 1]."""

    def __init__(self, params: FlashParameters | None = None):
        params = params if params is not None else FlashParameters()
        self.minimum = params.voltage_min
        self.maximum = params.voltage_max
        self._half_range = (self.maximum - self.minimum) / 2.0
        self._center = (self.maximum + self.minimum) / 2.0

    def normalize(self, voltages: np.ndarray) -> np.ndarray:
        """Physical voltages -> [-1, 1]."""
        return (np.asarray(voltages, dtype=float) - self._center) / self._half_range

    def denormalize(self, normalized: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
        """[-1, 1] -> physical voltages, in float64.

        ``out``, a float64 array of the input's shape (``normalized``
        itself included), receives the result in place.
        """
        result = np.multiply(np.asarray(normalized, dtype=float),
                             self._half_range, out=out)
        return np.add(result, self._center, out=result)
