"""Shared fixtures for the conditional generative model tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import SimulatorChannel
from repro.core import ModelConfig
from repro.data import generate_paired_dataset
from repro.flash import BlockGeometry


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(31)


@pytest.fixture
def tiny_config() -> ModelConfig:
    return ModelConfig.tiny()


@pytest.fixture(scope="module")
def tiny_dataset():
    """A small 8x8 paired dataset shared by the training tests."""
    channel = SimulatorChannel(geometry=BlockGeometry(16, 16),
                               rng=np.random.default_rng(5))
    return generate_paired_dataset(channel, pe_cycles=(4000, 10000),
                                   arrays_per_pe=12, array_size=8)
