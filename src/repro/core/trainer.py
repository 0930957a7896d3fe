"""Architecture-agnostic training loop (Remark 2 hyper-parameters).

The trainer takes a budget of optimisation steps over shuffled passes of the
paired dataset.  Each step normalises a mini-batch's voltages and P/E cycle
counts (the model encodes the integer program levels itself) and performs
one discriminator step (when the architecture has a discriminator) followed
by one generator/encoder step, both with Adam at the configured learning
rate.  The two steps share one :class:`~repro.core.base.TrainingBatch`, so
the batch is encoded once, and the generator step runs with the
discriminator frozen.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from repro.core.base import ConditionalGenerativeModel
from repro.data.dataset import FlashChannelDataset
from repro.data.loaders import BatchIterator
from repro.data.normalize import VoltageNormalizer
from repro.flash.params import FlashParameters
from repro.nn import Adam, Tensor

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
        """Mean of a generator-loss statistic over the last ``last_n`` steps
        (every step by default)."""
        if last_n is not None and last_n < 1:
            raise ValueError(f"last_n must be positive, got {last_n}")
        values = [record[key] for record in self.generator if key in record]
        if not values:
            raise KeyError(key)
        if last_n is not None:
            values = values[-last_n:]
        return float(np.mean(values))


@contextlib.contextmanager
def _frozen(parameters: Sequence[Tensor]):
    """Turn ``requires_grad`` off on ``parameters`` for the block, and
    restore each flag on exit, also when the block raises."""
    flags = [parameter.requires_grad for parameter in parameters]
    for parameter in parameters:
        parameter.requires_grad = False
    try:
        yield
    finally:
        for parameter, flag in zip(parameters, flags):
            parameter.requires_grad = flag


class Trainer:
    """Train a conditional generative model on a paired flash dataset."""

    def __init__(self, model: ConditionalGenerativeModel,
                 dataset: FlashChannelDataset,
                 params: FlashParameters | None = None,
                 rng: np.random.Generator | None = None):
        self.model = model
        self.dataset = dataset
        self.params = params if params is not None else FlashParameters()
        self.rng = rng if rng is not None else np.random.default_rng()

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
        """One optimisation step on a single mini-batch, in train mode.

        The model turns the mini-batch into one
        :class:`~repro.core.base.TrainingBatch`, which both losses read: an
        encoder's posterior on the real voltages is computed once, by the
        discriminator step where there is one, and the generator step
        back-propagates through it.  The generator step runs with the
        discriminator's parameters frozen, so its backward reaches the
        discriminator's input but none of its weights, and their gradients
        stay the discriminator step's.  Each optimizer clears its own
        parameters' gradients before its backward.
        """
        self.model.train()
        batch = self.model.training_batch(
            program_levels, self.voltage_normalizer.normalize(voltages),
            self.params.normalized_wear(pe_cycles))
        stats: dict[str, float] = {}

        discriminator = self.discriminator_optimizer
        if discriminator is not None:
            loss, d_stats = self.model.discriminator_loss(batch, self.rng)
            discriminator.zero_grad()
            loss.backward()
            discriminator.step()
            self.history.discriminator.append(d_stats)
            stats.update(d_stats)

        with _frozen(() if discriminator is None
                     else discriminator.parameters):
            loss, g_stats = self.model.generator_loss(batch, self.rng)
            self.generator_optimizer.zero_grad()
            loss.backward()
        self.generator_optimizer.step()
        self.history.generator.append(g_stats)
        stats.update(g_stats)
        return stats

    def train(self, steps: int | None = None,
              verbose: bool = False) -> TrainingHistory:
        """Take ``steps`` optimisation steps, one :meth:`train_step` a batch.

        Batches come from successive passes over the dataset.  Each pass is
        a fresh shuffle drawn from the trainer's generator when the pass
        starts, so a budget that ends on a pass boundary draws no further
        shuffle.  The default, ``steps=None``, is ``model.config.epochs``
        full passes.  With ``verbose``, every pass prints the means of its
        step statistics.
        """
        batches = BatchIterator(self.dataset,
                                batch_size=self.model.config.batch_size,
                                rng=self.rng)
        per_pass = len(batches)
        if steps is None:
            steps = self.model.config.epochs * per_pass
        if steps < 1:
            raise ValueError(f"steps must be positive, got {steps}")
        passes = -(-steps // per_pass)
        for index in range(passes):
            budget = min(per_pass, steps - index * per_pass)
            pass_stats = [self.train_step(*batch)
                          for batch in islice(batches, budget)]
            if verbose:
                label = f"epoch {index + 1}/{passes}"
                if budget < per_pass:
                    label += f", {budget}/{per_pass} steps"
                means = ", ".join(
                    f"{key}={np.mean([step[key] for step in pass_stats]):.4f}"
                    for key in sorted(pass_stats[0]))
                print(f"[{label}] {means}")
        return self.history
