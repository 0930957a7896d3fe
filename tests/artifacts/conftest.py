"""Shared fixtures of the model-zoo tests.

The tiny reference checkpoint of the acceptance criteria is built here
in-test: a 2-epoch training run of the tiny cVAE-GAN config (one per
working precision), wrapped in the generative adapter and saved through
``save_channel``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.channel import (
    BaselineChannel,
    GenerativeChannel,
    SimulatorChannel,
    save_channel,
)
from repro.baselines.models import GaussianChannelModel
from repro.core import ModelConfig, Trainer, build_model
from repro.data import generate_paired_dataset
from repro.flash import BlockGeometry, FlashParameters


@pytest.fixture(scope="session")
def params():
    return FlashParameters()


@pytest.fixture(scope="session")
def dataset(params):
    """Paired 8x8 training data at the two reference P/E read points."""
    simulator = SimulatorChannel(params, geometry=BlockGeometry(16, 16),
                                 rng=np.random.default_rng(5))
    return generate_paired_dataset(simulator, pe_cycles=(4000.0, 10000.0),
                                   arrays_per_pe=12, array_size=8)


def train_reference_channel(dtype: str, params, dataset,
                            **model_kwargs) -> GenerativeChannel:
    """A briefly trained tiny cVAE-GAN behind the generative adapter."""
    config = dataclasses.replace(ModelConfig.tiny(), epochs=2, dtype=dtype)
    model = build_model("cvae_gan", config, rng=np.random.default_rng(11),
                        **model_kwargs)
    trainer = Trainer(model, dataset, params=params,
                      rng=np.random.default_rng(12), max_steps_per_epoch=2)
    trainer.train()
    return GenerativeChannel(model, params=params,
                             rng=np.random.default_rng(13))


@pytest.fixture(scope="session")
def train_reference():
    """The trainer helper itself, for tests that need a custom variant."""
    return train_reference_channel


@pytest.fixture(scope="session")
def trained_channels(params, dataset):
    """The tiny reference backend at both working precisions."""
    return {dtype: train_reference_channel(dtype, params, dataset)
            for dtype in ("float32", "float64")}


@pytest.fixture(scope="session")
def gaussian_channel(params, dataset):
    model = GaussianChannelModel(params).fit(dataset, max_iterations=60)
    return BaselineChannel(model, rng=np.random.default_rng(21))


@pytest.fixture()
def saved_checkpoint(tmp_path, trained_channels):
    """A float32 reference checkpoint on disk, one per test."""
    path = tmp_path / "cvae_gan-tiny"
    manifest = save_channel(trained_channels["float32"], path,
                            training={"epochs": 2, "seed": 11})
    return path, manifest
