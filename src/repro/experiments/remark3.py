"""Remark 3: total variation distance of the four generative architectures.

The paper compares the cVAE-GAN against a conditional GAN, a conditional VAE
and BicycleGAN, and selects the cVAE-GAN because it achieves the smallest
total variation distance to the measured voltage distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel import GenerativeChannel
from repro.core import ModelConfig, Trainer, build_model
from repro.data.dataset import FlashChannelDataset
from repro.eval.divergences import distribution_distance
from repro.eval.report import format_table
from repro.exec import HistogramReducer, stable_seed
from repro.experiments.common import sweep
from repro.flash.params import FlashParameters

__all__ = ["Remark3Result", "run_remark3"]

#: Architectures compared in Remark 3.
REMARK3_ARCHITECTURES = ("cvae_gan", "cgan", "cvae", "bicycle_gan")


@dataclass
class Remark3Result:
    """Total variation distance per architecture and P/E cycle count."""

    tv_distances: dict[str, dict[int, float]]

    def mean_tv(self) -> dict[str, float]:
        return {name: float(np.mean(list(by_pe.values())))
                for name, by_pe in self.tv_distances.items()}

    def best_architecture(self) -> str:
        means = self.mean_tv()
        return min(means, key=means.get)

    def rows(self) -> list[dict]:
        rows = []
        for name, by_pe in self.tv_distances.items():
            row: dict[str, object] = {"architecture": name}
            for pe, value in sorted(by_pe.items()):
                row[f"tv_pe_{pe}"] = value
            row["tv_mean"] = self.mean_tv()[name]
            rows.append(row)
        return rows

    def format(self) -> str:
        header = ("Remark 3 — total variation distance to the measured "
                  "distribution (smaller is better)")
        footer = f"best architecture: {self.best_architecture()}"
        return "\n".join([header, format_table(self.rows()), footer])


def _remark3_architecture_task(unit, rng, *, training_dataset,
                               evaluation_arrays, config, params):
    """Train one architecture and measure its dTV per P/E count — plan task.

    The unit generator is split into independent init/train/sample streams,
    mirroring how :class:`repro.experiments.ExperimentSetup` derives its
    component generators from one root seed.
    """
    name = unit
    init_rng, train_rng, sample_rng = (
        np.random.default_rng(int(rng.integers(0, 2 ** 63)))
        for _ in range(3))
    model = build_model(name, config, rng=init_rng)
    trainer = Trainer(model, training_dataset, params=params, rng=train_rng)
    trainer.train()
    backend = GenerativeChannel(model, params=params, rng=sample_rng)
    distances: dict[int, float] = {}
    for pe, (program, voltages) in sorted(evaluation_arrays.items()):
        generated = backend.read_voltages(program, pe)
        distances[int(pe)] = distribution_distance(
            voltages, generated,
            voltage_range=(params.voltage_min, params.voltage_max))
    return {name: distances}


def run_remark3(training_dataset: FlashChannelDataset,
                evaluation_arrays: dict[int, tuple[np.ndarray, np.ndarray]],
                config: ModelConfig,
                architectures: tuple[str, ...] = REMARK3_ARCHITECTURES,
                params: FlashParameters | None = None,
                seed: int = 0,
                executor=None, workers: int | None = None) -> Remark3Result:
    """Train every architecture on the same data and compare dTV.

    Each architecture is one unit of an engine plan, so a pool executor
    trains the comparison candidates concurrently — the heaviest
    embarrassingly-parallel sweep in the repository.

    Parameters
    ----------
    training_dataset:
        Paired training data shared by all architectures.
    evaluation_arrays:
        Mapping from P/E cycle count to measured ``(PL, VL)`` arrays.
    config:
        Model configuration, training length (``config.epochs``) included,
        shared by all architectures as in the paper.
    executor / workers:
        Execution backend for the per-architecture sweep
        (:func:`repro.exec.build_executor`).
    """
    params = params if params is not None else FlashParameters()
    distances: dict[str, dict[int, float]] = sweep(
        _remark3_architecture_task, architectures,
        seed=stable_seed("remark3", seed),
        context=dict(training_dataset=training_dataset,
                     evaluation_arrays=evaluation_arrays, config=config,
                     params=params),
        reducer=HistogramReducer(),
        executor=executor, workers=workers)
    return Remark3Result(tv_distances=distances)
