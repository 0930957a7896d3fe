"""Statistical channel models with a sample/pdf API matching the generative model.

Each model stores fitted per-(P/E, level) parameters.  Level 0 is excluded
from fitting, exactly as in the paper ("We obtain the best-fit parameters for
all program levels, except PL = 0"): the erased level's distribution is
dominated by ICI, which no per-cell statistical model captures.  When asked to
sample level-0 cells the models fall back to the empirical level-0 histogram.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.distributions import (
    gaussian_pdf,
    normal_laplace_pdf,
    sample_gaussian,
    sample_normal_laplace,
    sample_students_t,
    students_t_pdf,
)
from repro.baselines.fitting import fit_level_distribution
from repro.data.dataset import FlashChannelDataset
from repro.flash.cell import ERASED_LEVEL, NUM_LEVELS
from repro.flash.params import FlashParameters

__all__ = [
    "StatisticalChannelModel",
    "GaussianChannelModel",
    "NormalLaplaceChannelModel",
    "StudentsTChannelModel",
    "BASELINE_MODELS",
]


class StatisticalChannelModel:
    """Base class: per-(P/E, level) parametric voltage distributions.

    Sub-classes define the distribution ``family`` and how to evaluate/sample
    it from a fitted parameter dictionary.
    """

    #: Distribution family name understood by :func:`fit_level_distribution`.
    family: str = ""
    #: Human-readable name used in reports.
    display_name: str = ""
    #: Compact label used in the paper's Fig. 5 bars ('G', 'NL', "S't").
    short_label: str = ""

    def __init__(self, params: FlashParameters | None = None, bins: int = 200):
        self.params = params if params is not None else FlashParameters()
        self.bins = bins
        # pe -> level -> fitted parameter dict.
        self.fitted: dict[float, dict[int, dict[str, float]]] = {}
        # pe -> (bin_centers, probabilities) empirical level-0 histogram.
        self._erased_histograms: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(self, dataset: FlashChannelDataset,
            max_iterations: int = 400) -> "StatisticalChannelModel":
        """Fit the model to every (P/E, level) pair present in the dataset."""
        edges = np.linspace(self.params.voltage_min, self.params.voltage_max,
                            self.bins + 1)
        centers = (edges[:-1] + edges[1:]) / 2.0
        for pe in dataset.unique_pe_cycles:
            subset = dataset.filter_pe(pe)
            self.fitted[float(pe)] = {}
            for level in range(NUM_LEVELS):
                voltages = subset.voltages[subset.program_levels == level]
                if voltages.size == 0:
                    continue
                counts, _ = np.histogram(voltages, bins=edges)
                probabilities = counts / counts.sum()
                if level == ERASED_LEVEL:
                    self._erased_histograms[float(pe)] = (centers,
                                                          probabilities)
                    continue
                self.fitted[float(pe)][level] = fit_level_distribution(
                    centers, probabilities, self.family,
                    max_iterations=max_iterations)
        return self

    def _require_fit(self, pe_cycles: float) -> dict[int, dict[str, float]]:
        key = float(pe_cycles)
        if key not in self.fitted:
            raise RuntimeError(
                f"model has not been fitted at P/E cycle count {pe_cycles}; "
                f"available: {sorted(self.fitted)}")
        return self.fitted[key]

    # ------------------------------------------------------------------ #
    # Family-specific hooks
    # ------------------------------------------------------------------ #
    def _pdf_from_parameters(self, grid: np.ndarray,
                             parameters: dict[str, float]) -> np.ndarray:
        raise NotImplementedError

    def _sample_from_parameters(self, size, parameters: dict[str, float],
                                rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Inference API (mirrors the generative model)
    # ------------------------------------------------------------------ #
    def pdf(self, level: int, pe_cycles: float, grid: np.ndarray) -> np.ndarray:
        """Fitted density of one programmed level on a voltage grid."""
        if level == ERASED_LEVEL:
            raise ValueError("level 0 is not fitted (see the paper, Sec. IV-A)")
        fits = self._require_fit(pe_cycles)
        if level not in fits:
            raise ValueError(f"level {level} was not present in the data")
        return self._pdf_from_parameters(np.asarray(grid, dtype=float),
                                         fits[level])

    def sample(self, program_levels: np.ndarray, pe_cycles: float,
               rng: np.random.Generator | None = None) -> np.ndarray:
        """Sample voltages cell-by-cell from the fitted distributions.

        Statistical models are spatially independent: each cell is sampled
        from its level's fitted distribution, with no ICI coupling.  Erased
        cells are drawn from the empirical level-0 histogram.
        """
        generator = rng if rng is not None else np.random.default_rng()
        fits = self._require_fit(pe_cycles)
        levels = np.asarray(program_levels)
        voltages = np.zeros(levels.shape, dtype=float)
        for level in np.unique(levels):
            mask = levels == level
            count = int(mask.sum())
            if level == ERASED_LEVEL:
                voltages[mask] = self._sample_erased(count, pe_cycles, generator)
            else:
                if level not in fits:
                    raise ValueError(f"level {level} was not fitted")
                voltages[mask] = self._sample_from_parameters(
                    count, fits[int(level)], generator)
        return np.clip(voltages, self.params.voltage_min,
                       self.params.voltage_max)

    def _sample_erased(self, count: int, pe_cycles: float,
                       rng: np.random.Generator) -> np.ndarray:
        key = float(pe_cycles)
        if key not in self._erased_histograms:
            raise RuntimeError("erased-level histogram unavailable; call fit()")
        centers, probabilities = self._erased_histograms[key]
        return rng.choice(centers, size=count, p=probabilities)

    # ------------------------------------------------------------------ #
    # Fitted-state round-trip (the on-disk model zoo, repro.artifacts)
    # ------------------------------------------------------------------ #
    def fitted_state(self) -> tuple[dict, dict]:
        """Export the fitted state for checkpointing.

        Returns ``(fitted, erased)``: the per-(P/E, level) parameter dicts
        with ``repr``-encoded float keys (every finite float round-trips
        exactly through ``float(repr(x))``, so a restored model samples
        bit-identically), and the empirical erased-level histograms as
        ``{pe_key: (bin_centers, probabilities)}`` arrays.
        """
        fitted = {repr(float(pe)): {str(level): {name: float(value)
                                                 for name, value
                                                 in parameters.items()}
                                    for level, parameters in levels.items()}
                  for pe, levels in self.fitted.items()}
        erased = {repr(float(pe)): (np.array(centers), np.array(probabilities))
                  for pe, (centers, probabilities)
                  in self._erased_histograms.items()}
        return fitted, erased

    def load_fitted_state(self, fitted: dict,
                          erased: dict) -> "StatisticalChannelModel":
        """Restore the fitted state exported by :meth:`fitted_state`."""
        self.fitted = {float(pe): {int(level): {name: float(value)
                                                for name, value
                                                in parameters.items()}
                                   for level, parameters in levels.items()}
                       for pe, levels in fitted.items()}
        self._erased_histograms = {
            float(pe): (np.asarray(centers, dtype=float),
                        np.asarray(probabilities, dtype=float))
            for pe, (centers, probabilities) in erased.items()}
        return self


class GaussianChannelModel(StatisticalChannelModel):
    """Gaussian per-level model (Cai et al., DATE 2013)."""

    family = "gaussian"
    display_name = "Gaussian"
    short_label = "G"

    def _pdf_from_parameters(self, grid, parameters):
        return gaussian_pdf(grid, parameters["mu"], parameters["sigma"])

    def _sample_from_parameters(self, size, parameters, rng):
        return sample_gaussian(size, parameters["mu"], parameters["sigma"],
                               rng=rng)


class NormalLaplaceChannelModel(StatisticalChannelModel):
    """Normal-Laplace per-level model (Parnell et al., GLOBECOM 2014)."""

    family = "normal_laplace"
    display_name = "Normal-Laplace"
    short_label = "NL"

    def _pdf_from_parameters(self, grid, parameters):
        return normal_laplace_pdf(grid, parameters["mu"], parameters["sigma"],
                                  parameters["alpha"], parameters["beta"])

    def _sample_from_parameters(self, size, parameters, rng):
        return sample_normal_laplace(size, parameters["mu"],
                                     parameters["sigma"], parameters["alpha"],
                                     parameters["beta"], rng=rng)


class StudentsTChannelModel(StatisticalChannelModel):
    """Location-scale Student's t per-level model (Luo et al., JSAC 2016)."""

    family = "students_t"
    display_name = "Student's t"
    short_label = "S't"

    def _pdf_from_parameters(self, grid, parameters):
        return students_t_pdf(grid, parameters["mu"], parameters["scale"],
                              parameters["dof"])

    def _sample_from_parameters(self, size, parameters, rng):
        return sample_students_t(size, parameters["mu"], parameters["scale"],
                                 parameters["dof"], rng=rng)


#: The three baselines of Fig. 5, in the order the paper lists them.
BASELINE_MODELS: tuple[type[StatisticalChannelModel], ...] = (
    GaussianChannelModel,
    NormalLaplaceChannelModel,
    StudentsTChannelModel,
)
