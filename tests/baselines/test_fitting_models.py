"""Tests for KL fitting and the statistical channel models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    BASELINE_MODELS,
    GaussianChannelModel,
    NormalLaplaceChannelModel,
    StudentsTChannelModel,
    fit_level_distribution,
    gaussian_pdf,
    kl_divergence_to_histogram,
)
from repro.channel import SimulatorChannel
from repro.data import generate_paired_dataset
from repro.flash import BlockGeometry
from repro.flash.cell import ERASED_LEVEL


@pytest.fixture(scope="module")
def dataset():
    channel = SimulatorChannel(geometry=BlockGeometry(32, 32),
                               rng=np.random.default_rng(11))
    return generate_paired_dataset(channel, pe_cycles=(4000, 10000),
                                   arrays_per_pe=40, array_size=32)


def _histogram(samples, bins=150, low=-60, high=60):
    edges = np.linspace(low, high, bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    centers = (edges[:-1] + edges[1:]) / 2
    return centers, counts / counts.sum()


def _total_kl(model, pe_cycles):
    """The fitted KL divergences at one P/E count, summed over the levels."""
    return sum(fit["kl"] for fit in model.fitted[float(pe_cycles)].values())


class TestKLDivergence:
    def test_zero_for_matching_density(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(0.0, 5.0, size=400_000)
        centers, probabilities = _histogram(samples)
        kl = kl_divergence_to_histogram(centers, probabilities,
                                        lambda x: gaussian_pdf(x, 0.0, 5.0))
        assert kl < 5e-3

    def test_positive_for_mismatched_density(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(0.0, 5.0, size=100_000)
        centers, probabilities = _histogram(samples)
        kl = kl_divergence_to_histogram(centers, probabilities,
                                        lambda x: gaussian_pdf(x, 20.0, 5.0))
        assert kl > 1.0

    def test_infinite_for_zero_density(self):
        centers = np.array([0.0, 1.0])
        probabilities = np.array([0.5, 0.5])
        kl = kl_divergence_to_histogram(centers, probabilities,
                                        lambda x: np.zeros_like(x))
        assert kl == float("inf")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence_to_histogram(np.zeros(3), np.zeros(4), lambda x: x)

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            kl_divergence_to_histogram(np.zeros(3), np.zeros(3), lambda x: x)


class TestFitLevelDistribution:
    def test_gaussian_fit_recovers_parameters(self):
        rng = np.random.default_rng(1)
        centers, probabilities = _histogram(rng.normal(5.0, 4.0, size=300_000))
        fit = fit_level_distribution(centers, probabilities, "gaussian")
        assert fit["mu"] == pytest.approx(5.0, abs=0.2)
        assert fit["sigma"] == pytest.approx(4.0, abs=0.2)
        assert fit["kl"] < 0.01

    def test_normal_laplace_fits_heavy_tailed_data_better_than_gaussian(self):
        rng = np.random.default_rng(2)
        core = rng.normal(0.0, 4.0, size=250_000)
        tails = rng.laplace(0.0, 10.0, size=250_000)
        use_tail = rng.random(250_000) < 0.1
        samples = np.where(use_tail, tails, core)
        centers, probabilities = _histogram(samples)
        gaussian_fit = fit_level_distribution(centers, probabilities, "gaussian")
        nl_fit = fit_level_distribution(centers, probabilities, "normal_laplace")
        assert nl_fit["kl"] < gaussian_fit["kl"]

    def test_students_t_fit_returns_positive_dof(self):
        rng = np.random.default_rng(3)
        samples = 3.0 * rng.standard_t(5, size=200_000)
        centers, probabilities = _histogram(samples)
        fit = fit_level_distribution(centers, probabilities, "students_t")
        assert fit["dof"] > 0.5
        assert fit["kl"] < 0.02

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            fit_level_distribution(np.zeros(3), np.ones(3) / 3, "cauchy")


class TestStatisticalChannelModels:
    @pytest.fixture(scope="class")
    def fitted_models(self, dataset):
        models = {}
        for model_class in BASELINE_MODELS:
            models[model_class.__name__] = model_class(bins=120).fit(
                dataset, max_iterations=200)
        return models

    def test_all_baselines_fit_without_error(self, fitted_models):
        assert set(fitted_models) == {"GaussianChannelModel",
                                      "NormalLaplaceChannelModel",
                                      "StudentsTChannelModel"}

    def test_fitted_pe_points(self, fitted_models):
        for model in fitted_models.values():
            assert set(model.fitted) == {4000.0, 10000.0}

    def test_level_zero_not_fitted(self, fitted_models):
        model = fitted_models["GaussianChannelModel"]
        assert ERASED_LEVEL not in model.fitted[4000.0]
        with pytest.raises(ValueError):
            model.pdf(0, 4000, np.linspace(0, 650, 10))

    def test_pdf_normalised(self, fitted_models):
        grid = np.linspace(0, 650, 2601)
        for model in fitted_models.values():
            pdf = model.pdf(4, 4000, grid)
            assert np.trapezoid(pdf, grid) == pytest.approx(1.0, abs=0.05)

    def test_pdf_peaks_near_level_mean(self, fitted_models, dataset):
        grid = np.linspace(0, 650, 2601)
        subset = dataset.filter_pe(4000)
        empirical_mean = subset.voltages[subset.program_levels == 4].mean()
        for model in fitted_models.values():
            pdf = model.pdf(4, 4000, grid)
            assert abs(grid[np.argmax(pdf)] - empirical_mean) < 15

    def test_sample_shape_and_range(self, fitted_models, rng=None):
        generator = np.random.default_rng(5)
        model = fitted_models["NormalLaplaceChannelModel"]
        levels = generator.integers(0, 8, size=(4, 16, 16))
        voltages = model.sample(levels, 10000, rng=generator)
        assert voltages.shape == levels.shape
        assert voltages.min() >= 0.0 and voltages.max() <= 650.0

    def test_sample_means_track_levels(self, fitted_models):
        generator = np.random.default_rng(6)
        model = fitted_models["GaussianChannelModel"]
        levels = np.repeat(np.arange(1, 8), 4000).reshape(7, -1)
        voltages = model.sample(levels, 4000, rng=generator)
        means = [voltages[levels == level].mean() for level in range(1, 8)]
        assert np.all(np.diff(means) > 30)

    def test_sample_unfitted_pe_raises(self, fitted_models):
        model = fitted_models["GaussianChannelModel"]
        with pytest.raises(RuntimeError):
            model.sample(np.zeros((4, 4), dtype=int), 1234)

    def test_erased_cells_sampled_from_histogram(self, fitted_models, dataset):
        generator = np.random.default_rng(7)
        model = fitted_models["GaussianChannelModel"]
        levels = np.zeros((40, 40), dtype=int)
        voltages = model.sample(levels, 4000, rng=generator)
        subset = dataset.filter_pe(4000)
        measured = subset.voltages[subset.program_levels == 0]
        assert abs(voltages.mean() - measured.mean()) < 8.0

    def test_total_kl_positive(self, fitted_models):
        for model in fitted_models.values():
            assert _total_kl(model, 4000) > 0.0

    def test_normal_laplace_beats_gaussian_on_worn_device(self, fitted_models):
        """Fig. 5: the NL model captures the heavy tails the Gaussian misses."""
        gaussian_kl = _total_kl(fitted_models["GaussianChannelModel"], 10000)
        nl_kl = _total_kl(fitted_models["NormalLaplaceChannelModel"], 10000)
        assert nl_kl < gaussian_kl

    def test_display_names_match_paper_labels(self):
        assert GaussianChannelModel.display_name == "Gaussian"
        assert NormalLaplaceChannelModel.display_name == "Normal-Laplace"
        assert StudentsTChannelModel.display_name == "Student's t"
