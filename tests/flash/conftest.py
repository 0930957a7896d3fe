"""Shared fixtures for the flash channel simulator tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import SimulatorChannel
from repro.flash import BlockGeometry, FlashParameters


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)


@pytest.fixture
def params() -> FlashParameters:
    return FlashParameters()


@pytest.fixture
def channel(rng) -> SimulatorChannel:
    return SimulatorChannel(rng=rng)


@pytest.fixture
def small_channel(rng) -> SimulatorChannel:
    """A simulator with small 16x16 blocks for fast tests."""
    return SimulatorChannel(geometry=BlockGeometry(16, 16), rng=rng)
