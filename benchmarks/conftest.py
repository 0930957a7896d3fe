"""Shared fixtures for the benchmark harness.

Training the generative models is expensive in pure NumPy, so it happens once
per session here (untimed); the individual benchmarks time the evaluation
stages that regenerate each figure and write the reproduced rows/series to
``benchmarks/results/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import ExperimentSetup

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: Path, name: str, text: str) -> None:
    """Persist a reproduced figure to benchmarks/results/ and echo it."""
    path = results_dir / name
    path.write_text(text + "\n")
    print(f"\n--- {name} ---\n{text}\n")


@pytest.fixture(scope="session")
def setup() -> ExperimentSetup:
    """Channel + dataset shared by all figure benchmarks."""
    return ExperimentSetup(
        scale="quick",
        arrays_per_pe=150,
        training_epochs=10,
        seed=0)


@pytest.fixture(scope="session")
def trained_cvae_gan(setup):
    """The cVAE-GAN channel model used by Figs. 4, 5 and 6 (trained once)."""
    return setup.train_generative_model("cvae_gan")


@pytest.fixture(scope="session")
def evaluation_arrays(setup):
    """Measured evaluation arrays at every read point (cropped)."""
    return {pe: setup.evaluation_arrays(pe, num_blocks=8)
            for pe in setup.pe_cycles}
