"""Sweeps that loop over their units draw from the plans' unit generators.

The figure drivers, Remark 3 and the time-aware code selection run their
units in a plain loop; unit ``i`` still reads with
:func:`repro.exec.unit_rng` ``(seed, i)``, the generator unit ``i`` of a
:class:`~repro.exec.MonteCarloPlan` gets on any executor.  These tests pin,
per sweep, which generator each block or read is handed — its seed
sequence's entropy and spawn key — so a change to a sweep's seeding shows up
here rather than as a silently moved figure.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.models import BASELINE_MODELS
from repro.channel import SimulatorChannel
from repro.coding import TimeAwareCodeSelector, constraint_tradeoff_curve
from repro.data import generate_paired_dataset
from repro.exec import stable_seed
from repro.experiments import run_fig2, run_fig4, run_fig5, run_fig6, run_remark3
from repro.flash import BlockGeometry


def _stream(rng: np.random.Generator) -> tuple:
    """``(entropy, spawn_key)`` of the seed sequence behind ``rng``."""
    sequence = rng.bit_generator.seed_seq
    return sequence.entropy, sequence.spawn_key


def _root(label, generator_seed: int) -> tuple[int, ...]:
    """The root seed a driver derives from a fresh ``default_rng(seed)``."""
    first = int(np.random.default_rng(generator_seed).integers(0, 2 ** 31))
    return stable_seed(label, first)


class _StreamRecordingSimulator(SimulatorChannel):
    """A simulator noting the generator of every block it programs and
    every array it reads."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.blocks: list[tuple] = []
        self.reads: list[tuple] = []

    def program_random_block(self, rng=None):
        self.blocks.append(_stream(rng))
        return super().program_random_block(rng=rng)

    def read_voltages(self, program_levels, pe_cycles, **kwargs):
        self.reads.append((int(pe_cycles), _stream(kwargs["rng"])))
        return super().read_voltages(program_levels, pe_cycles, **kwargs)


@pytest.fixture
def recorder() -> _StreamRecordingSimulator:
    return _StreamRecordingSimulator(geometry=BlockGeometry(32, 32),
                                     rng=np.random.default_rng(5))


@pytest.fixture(scope="module")
def measured() -> dict[int, tuple[np.ndarray, np.ndarray]]:
    channel = SimulatorChannel(geometry=BlockGeometry(32, 32),
                               rng=np.random.default_rng(2))
    return {pe: channel.paired_blocks(4, pe) for pe in (4000, 10000)}


class TestFigureSweeps:
    def test_fig2_block_i_reads_with_unit_stream_i(self, recorder):
        """Blocks count across the P/E counts in the order given."""
        run_fig2(recorder, pe_cycles=(10000, 4000), blocks_per_pe=3,
                 rng=np.random.default_rng(9))
        root = _root("fig2", 9)
        assert recorder.blocks == [(root, (index,)) for index in range(6)]

    def test_fig4_reads_the_sorted_pe_counts_with_unit_streams(
            self, recorder, measured):
        run_fig4({10000: measured[10000], 4000: measured[4000]}, recorder,
                 bins=40)
        root = _root("fig4", 5)
        assert recorder.reads == [(4000, (root, (0,))),
                                  (10000, (root, (1,)))]

    def test_fig5_model_reads_with_their_pair_streams(self, recorder,
                                                      measured):
        """Pairs count P/E counts in sorted order, then 'M', the generative
        model and the baselines; the measured pair draws nothing."""
        channel = SimulatorChannel(geometry=BlockGeometry(8, 8),
                                   rng=np.random.default_rng(3))
        dataset = generate_paired_dataset(channel, pe_cycles=(4000, 10000),
                                          arrays_per_pe=4, array_size=8)
        run_fig5(dataset, measured, generative_model=recorder,
                 baseline_iterations=5, rng=np.random.default_rng(7))
        per_pe = 2 + len(BASELINE_MODELS)
        assert [(pe, key) for pe, (_, key) in recorder.reads] == \
            [(4000, (1,)), (10000, (per_pe + 1,))]
        roots = {entropy for _, (entropy, _) in recorder.reads}
        assert len(roots) == 1
        assert roots.pop()[0] == stable_seed("fig5")[0]

    def test_fig6_model_reads_with_unit_stream_1(self, recorder, measured):
        program, voltages = measured[10000]
        run_fig6(program, voltages, recorder, pe_cycles=10000)
        assert recorder.reads == [(10000, (_root("fig6", 5), (1,)))]

    def test_remark3_architecture_i_trains_with_unit_stream_i(
            self, monkeypatch):
        streams = []

        def record(name, rng, *args):
            streams.append((name, _stream(rng)))
            return {4000: 0.0}

        monkeypatch.setattr("repro.experiments.remark3._architecture_distances",
                            record)
        run_remark3(None, {}, None, architectures=("cvae_gan", "cvae"),
                    seed=4)
        root = stable_seed("remark3", 4)
        assert streams == [("cvae_gan", (root, (0,))),
                           ("cvae", (root, (1,)))]


class TestCodingSweeps:
    def test_tradeoff_curve_measures_every_constraint_on_one_block_set(
            self, recorder):
        """Common random numbers: the baseline and each constraint program
        blocks ``0 .. num_blocks - 1`` of one per-P/E-count seed."""
        constraint_tradeoff_curve(recorder, 7000, high_levels=(6, 5),
                                  num_blocks=3, seed=11)
        root = stable_seed(11, 7000.0)
        assert recorder.blocks == [(root, (index,)) for index in range(3)] * 3

    def test_selector_streams_depend_on_the_pe_count_alone(self, recorder):
        schedule = TimeAwareCodeSelector(
            recorder, error_rate_target=0.5, num_blocks=2,
            seed=11).schedule((10000, 4000))
        assert recorder.blocks == [
            (stable_seed(11, pe), (index,))
            for pe in (10000.0, 4000.0) for index in range(2)]
        reversed_order = TimeAwareCodeSelector(
            SimulatorChannel(geometry=BlockGeometry(32, 32)),
            error_rate_target=0.5, num_blocks=2,
            seed=11).schedule((4000, 10000))
        assert [point.error_rate for point in schedule] == \
            [point.error_rate for point in reversed(reversed_order)]
