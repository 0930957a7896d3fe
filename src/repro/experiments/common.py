"""Shared setup for the experiment drivers.

:class:`ExperimentSetup` bundles everything the figure drivers need — the
simulated channel ("measured" data source), a paired dataset, and trained /
fitted channel backends behind the unified protocol — at one of two scales:

* ``"quick"`` (default): 16x16 arrays, narrow networks, a few minutes of
  CPU training.  Shapes and orderings are reproduced; absolute numbers are
  noisier than the paper's.
* ``"paper"``: the 64x64 / C64..C512 configuration of Remarks 1 and 2.  This
  is faithful to the paper but is not tractable on CPU within the benchmark
  harness; it exists so users with patience (or a port of ``repro.nn`` to an
  accelerated backend) can run the full-scale experiment.

All randomness derives from the single ``seed``: every component (channel,
model initialisation, training, sampling) receives a generator spawned from
one root :class:`numpy.random.SeedSequence`, so a setup is reproducible end
to end from that one integer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.channel import (
    ChannelModel,
    GenerativeChannel,
    SimulatorChannel,
    build_channel,
)
from repro.core import ModelConfig, Trainer, build_model
from repro.data import FlashChannelDataset, crop_blocks, generate_paired_dataset
from repro.exec import MonteCarloPlan, Reducer, run_plan, stable_seed
from repro.flash import BlockGeometry, FlashParameters

__all__ = ["PAPER_PE_CYCLES", "ExperimentSetup", "sweep"]

#: The read points of the paper's P/E cycling experiment.
PAPER_PE_CYCLES: tuple[int, ...] = (4000, 7000, 10000)


def sweep(task, units, *, seed, context=None, reducer: Reducer | None = None,
          executor=None, workers: int | None = None):
    """Run a figure driver's Monte-Carlo sweep on the sharded engine.

    This is the single execution path of every experiment driver (Figs. 2,
    4, 5, 6 and Remark 3): the driver describes its sweep as a picklable
    ``task`` over independent ``units`` plus a shared ``context``, and this
    helper builds the :class:`~repro.exec.MonteCarloPlan` and dispatches it
    through :func:`~repro.exec.run_plan`.  ``seed`` may be an int or a
    pre-mixed entropy tuple from :func:`~repro.exec.stable_seed`; results
    are bit-identical for any ``executor``/``workers`` choice.
    """
    entropy = seed if isinstance(seed, tuple) else stable_seed(seed)
    plan = MonteCarloPlan(task=task, units=tuple(units), seed=entropy,
                          context=dict(context or {}))
    return run_plan(plan, reducer=reducer, executor=executor, workers=workers)


@dataclass
class ExperimentSetup:
    """Channel, dataset and trained backends shared by the figure drivers."""

    scale: str = "quick"
    pe_cycles: tuple[int, ...] = PAPER_PE_CYCLES
    arrays_per_pe: int = 150
    training_epochs: int = 6
    seed: int = 0
    params: FlashParameters = field(default_factory=FlashParameters)

    def __post_init__(self):
        if self.scale not in ("quick", "paper"):
            raise ValueError("scale must be 'quick' or 'paper'")
        self.channel = SimulatorChannel(self.params,
                                        geometry=BlockGeometry(64, 64),
                                        rng=self.spawn_rng("channel"))
        self._dataset: FlashChannelDataset | None = None
        self._models: dict[str, GenerativeChannel] = {}
        self._baselines: dict[str, ChannelModel] = {}

    # ------------------------------------------------------------------ #
    # Randomness: one seed, deterministically spawned streams
    # ------------------------------------------------------------------ #
    def spawn_rng(self, label: str) -> np.random.Generator:
        """A generator derived from the setup seed and a stream label.

        Streams are independent of the order in which they are requested, so
        adding a new consumer never perturbs existing ones.
        """
        entropy = int.from_bytes(label.encode(), "big") % (2 ** 31)
        sequence = np.random.SeedSequence(self.seed, spawn_key=(entropy,))
        return np.random.default_rng(sequence)

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    @property
    def array_size(self) -> int:
        return 64 if self.scale == "paper" else 16

    def model_config(self) -> ModelConfig:
        if self.scale == "paper":
            return ModelConfig.paper()
        config = ModelConfig.small(self.array_size, epochs=self.training_epochs,
                                   batch_size=16)
        # A slightly higher learning rate compensates for the short schedule.
        return replace(config, learning_rate=1e-3)

    # ------------------------------------------------------------------ #
    # Data
    # ------------------------------------------------------------------ #
    def dataset(self) -> FlashChannelDataset:
        """Training dataset of paired (PL, VL, P/E) arrays."""
        if self._dataset is None:
            self._dataset = generate_paired_dataset(
                self.channel, pe_cycles=self.pe_cycles,
                arrays_per_pe=self.arrays_per_pe,
                array_size=self.array_size)
        return self._dataset

    def evaluation_arrays(self, pe_cycles: float, num_blocks: int = 10
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Fresh measured evaluation arrays (cropped to the model size)."""
        program, voltages = self.channel.paired_blocks(num_blocks, pe_cycles)
        return (crop_blocks(program, self.array_size),
                crop_blocks(voltages, self.array_size))

    # ------------------------------------------------------------------ #
    # Channel backends
    # ------------------------------------------------------------------ #
    def train_generative_model(self, architecture: str = "cvae_gan",
                               epochs: int | None = None,
                               **model_kwargs) -> GenerativeChannel:
        """Train (and cache) a generative channel backend.

        ``epochs`` overrides the setup's training length in passes.  Returns
        the protocol adapter; its batched chunked sampling path is what the
        figure drivers and benchmarks consume.
        """
        cache_key = architecture + repr(epochs) \
            + repr(sorted(model_kwargs.items()))
        if cache_key in self._models:
            return self._models[cache_key]
        config = self.model_config()
        if epochs is not None:
            config = replace(config, epochs=epochs)
        model = build_model(architecture, config,
                            rng=self.spawn_rng(f"init:{cache_key}"),
                            **model_kwargs)
        trainer = Trainer(model, self.dataset(), params=self.params,
                          rng=self.spawn_rng(f"train:{cache_key}"))
        trainer.train()
        wrapper = GenerativeChannel(
            model, params=self.params,
            rng=self.spawn_rng(f"sample:{cache_key}"))
        self._models[cache_key] = wrapper
        return wrapper

    def baseline_channel(self, name: str,
                         fit_iterations: int = 250) -> ChannelModel:
        """Fit (and cache) a statistical baseline backend by registry name."""
        if name not in self._baselines:
            self._baselines[name] = build_channel(
                name, dataset=self.dataset(), params=self.params,
                rng=self.spawn_rng(f"baseline:{name}"),
                fit_iterations=fit_iterations)
        return self._baselines[name]

    def channel_backend(self, name: str, **kwargs) -> ChannelModel:
        """Any registered backend, wired to this setup's data and seed.

        ``"simulator"`` returns the measured-data source; generative
        architecture names train (or reuse) a model on the setup dataset;
        baseline family names fit on the same dataset.  This is the single
        entry point that makes every downstream study backend-agnostic.
        """
        from repro.baselines.models import BASELINE_MODELS
        from repro.channel import CHANNEL_REGISTRY

        if name == "simulator":
            return self.channel
        if name in {model.family for model in BASELINE_MODELS}:
            return self.baseline_channel(name, **kwargs)
        if name in CHANNEL_REGISTRY:
            architecture = "cvae_gan" if name == "generative" else name
            return self.train_generative_model(architecture, **kwargs)
        raise ValueError(f"unknown channel backend {name!r}; available: "
                         f"{sorted(CHANNEL_REGISTRY)}")
