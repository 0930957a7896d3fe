"""Architecture-agnostic training loop (Remark 2 hyper-parameters).

The trainer iterates mini-batches of the paired dataset, normalises their
voltages and P/E cycle counts (the model encodes the integer program levels
itself), and for each batch performs one discriminator step (when the
architecture has a discriminator) followed by one generator/encoder step,
both with Adam at the configured learning rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.base import ConditionalGenerativeModel
from repro.data.dataset import FlashChannelDataset
from repro.data.loaders import BatchIterator
from repro.data.normalize import VoltageNormalizer
from repro.flash.params import FlashParameters
from repro.nn import Adam

__all__ = ["TrainingHistory", "Trainer"]


@dataclass
class TrainingHistory:
    """Per-step loss statistics collected during training."""

    generator: list[dict[str, float]] = field(default_factory=list)
    discriminator: list[dict[str, float]] = field(default_factory=list)

    def last(self, key: str) -> float:
        """Most recent value of a generator-loss statistic."""
        for record in reversed(self.generator):
            if key in record:
                return record[key]
        raise KeyError(key)

    def mean(self, key: str, last_n: int | None = None) -> float:
        """Mean of a generator-loss statistic over the last ``last_n`` steps."""
        values = [record[key] for record in self.generator if key in record]
        if not values:
            raise KeyError(key)
        if last_n is not None:
            values = values[-last_n:]
        return float(np.mean(values))


class Trainer:
    """Train a conditional generative model on a paired flash dataset."""

    def __init__(self, model: ConditionalGenerativeModel,
                 dataset: FlashChannelDataset,
                 params: FlashParameters | None = None,
                 rng: np.random.Generator | None = None,
                 max_steps_per_epoch: int | None = None):
        self.model = model
        self.dataset = dataset
        self.params = params if params is not None else FlashParameters()
        self.rng = rng if rng is not None else np.random.default_rng()
        self.max_steps_per_epoch = max_steps_per_epoch

        config = model.config
        self.voltage_normalizer = VoltageNormalizer(self.params)

        self.generator_optimizer = Adam(model.generator_parameters(),
                                        lr=config.learning_rate,
                                        betas=config.adam_betas)
        self.discriminator_optimizer = None
        if model.has_discriminator:
            self.discriminator_optimizer = Adam(model.discriminator_parameters(),
                                                lr=config.learning_rate,
                                                betas=config.adam_betas)
        self.history = TrainingHistory()

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def train_step(self, program_levels: np.ndarray, voltages: np.ndarray,
                   pe_cycles: np.ndarray) -> dict[str, float]:
        """One optimisation step on a single mini-batch, in train mode."""
        self.model.train()
        volts = self.voltage_normalizer.normalize(voltages)
        pe_normalized = self.params.normalized_wear(pe_cycles)
        stats: dict[str, float] = {}

        if self.discriminator_optimizer is not None:
            loss, d_stats = self.model.discriminator_loss(
                program_levels, volts, pe_normalized, self.rng)
            self.discriminator_optimizer.zero_grad()
            self.model.zero_grad()
            loss.backward()
            self.discriminator_optimizer.step()
            self.history.discriminator.append(d_stats)
            stats.update(d_stats)

        loss, g_stats = self.model.generator_loss(
            program_levels, volts, pe_normalized, self.rng)
        self.generator_optimizer.zero_grad()
        self.model.zero_grad()
        loss.backward()
        self.generator_optimizer.step()
        self.history.generator.append(g_stats)
        stats.update(g_stats)
        return stats

    def train_epoch(self) -> dict[str, float]:
        """One pass over the dataset; returns the mean generator stats."""
        iterator = BatchIterator(self.dataset,
                                 batch_size=self.model.config.batch_size,
                                 shuffle=True, rng=self.rng)
        epoch_stats: list[dict[str, float]] = []
        for step, (program_levels, voltages, pe_cycles) in enumerate(iterator):
            if (self.max_steps_per_epoch is not None
                    and step >= self.max_steps_per_epoch):
                break
            epoch_stats.append(self.train_step(program_levels, voltages,
                                               pe_cycles))
        if not epoch_stats:
            raise RuntimeError("epoch produced no training steps")
        keys = set().union(*(stat.keys() for stat in epoch_stats))
        return {key: float(np.mean([stat[key] for stat in epoch_stats
                                    if key in stat]))
                for key in keys}

    def train(self, epochs: int | None = None,
              verbose: bool = False) -> TrainingHistory:
        """Train for the configured number of epochs."""
        epochs = epochs if epochs is not None else self.model.config.epochs
        for epoch in range(1, epochs + 1):
            summary = self.train_epoch()
            if verbose:
                formatted = ", ".join(f"{key}={value:.4f}"
                                      for key, value in sorted(summary.items()))
                print(f"[epoch {epoch}/{epochs}] {formatted}")
        return self.history
