"""Checkpoint-backed cold-start workers (the zoo -> exec seam).

A :class:`repro.exec.ChannelRef` in a plan context ships as a registry name
plus a checkpoint path; the executing worker — process pool or remote fleet
— rebuilds the channel through ``build_channel(name, checkpoint=path)``
(:mod:`repro.artifacts`).  These tests pin the two sides of that contract:
a cold-started worker produces bit-identical sweep output to an in-memory
model, and a corrupted checkpoint fails with the zoo's typed errors rather
than computing garbage tallies.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.artifacts import CheckpointIntegrityError, ManifestError
from repro.channel import build_channel, save_channel
from repro.exec import ChannelRef, MonteCarloPlan, RemoteExecutor, run_plan
from repro.flash import BlockGeometry
from repro.flash.cell import NUM_LEVELS


def _voltage_sum(unit, rng, *, channel):
    """Read a small random stack at a per-unit condition."""
    levels = rng.integers(0, NUM_LEVELS, size=(1, 8, 8))
    voltages = channel.read_voltages(levels, 3000.0 + 500.0 * int(unit),
                                     rng=rng)
    return float(np.asarray(voltages).sum())


def _channel_identity(unit, rng, *, channel):
    """Which process ran the unit, against which resolved channel object."""
    return os.getpid(), id(channel)


@pytest.fixture(scope="module")
def live_channel():
    return build_channel("simulator", geometry=BlockGeometry(16, 16),
                         rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, live_channel):
    path = tmp_path_factory.mktemp("zoo") / "simulator-ref"
    save_channel(live_channel, path)
    return path


def _plan(channel):
    return MonteCarloPlan(task=_voltage_sum, units=tuple(range(6)), seed=9,
                          context={"channel": channel})


@pytest.fixture(scope="module")
def reference(live_channel):
    """The in-memory model's serial sweep output."""
    return run_plan(_plan(live_channel), executor="serial")


class TestColdStartEquivalence:
    def test_ref_resolves_registry_name_from_manifest(self, checkpoint):
        ref = ChannelRef.from_checkpoint(checkpoint)
        assert ref.name == "simulator"

    def test_serial_ref_matches_in_memory(self, checkpoint, reference):
        ref_plan = _plan(ChannelRef.from_checkpoint(checkpoint))
        assert run_plan(ref_plan, executor="serial") == reference

    def test_process_worker_cold_start_matches_in_memory(self, checkpoint,
                                                         reference):
        ref_plan = _plan(ChannelRef.from_checkpoint(checkpoint))
        assert run_plan(ref_plan, executor="process",
                        workers=2) == reference

    def test_remote_worker_cold_start_matches_in_memory(self, checkpoint,
                                                        reference):
        ref_plan = _plan(ChannelRef.from_checkpoint(checkpoint))
        executor = RemoteExecutor(workers=2)
        try:
            assert run_plan(ref_plan, executor=executor) == reference
        finally:
            executor.close()

    def test_remote_worker_cold_starts_once_across_shards(self, checkpoint):
        """Regression: each shard used to run on a fresh thread, and the
        resolve memo is keyed by thread, so one worker re-loaded the
        checkpoint for some of its shards.  Every shard now runs on the
        worker's session thread: one worker, one resolved channel."""
        plan = MonteCarloPlan(task=_channel_identity, units=tuple(range(8)),
                              seed=2, context={
                                  "channel": ChannelRef.from_checkpoint(
                                      checkpoint)})
        executor = RemoteExecutor(workers=1)
        try:
            results = run_plan(plan, executor=executor, num_shards=8)
        finally:
            executor.close()
        assert len(set(results)) == 1


class TestCorruptedCheckpoint:
    @pytest.fixture()
    def corrupted(self, tmp_path, live_channel):
        """A generative checkpoint whose weights payload was tampered with."""
        from repro.core import ModelConfig, build_model

        model = build_model("cvae_gan", ModelConfig.tiny(),
                            rng=np.random.default_rng(1))
        path = tmp_path / "cvae_gan-corrupt"
        save_channel(model, path)
        weights = path / "weights.npz"
        weights.write_bytes(b"garbage" + weights.read_bytes()[7:])
        return path

    def test_process_worker_raises_typed_error(self, corrupted):
        plan = _plan(ChannelRef("cvae_gan", corrupted))
        with pytest.raises(CheckpointIntegrityError):
            run_plan(plan, executor="process", workers=2)

    def test_remote_worker_raises_typed_error(self, corrupted):
        plan = _plan(ChannelRef("cvae_gan", corrupted))
        executor = RemoteExecutor(workers=2, max_retries=0)
        try:
            with pytest.raises(CheckpointIntegrityError) as info:
                run_plan(plan, executor=executor)
        finally:
            executor.close()
        notes = "\n".join(getattr(info.value, "__notes__", ()))
        assert "CheckpointIntegrityError" in notes  # worker traceback

    def test_missing_manifest_raises_typed_error(self, tmp_path):
        plan = _plan(ChannelRef("simulator", tmp_path / "nowhere"))
        with pytest.raises(ManifestError):
            run_plan(plan, executor="serial")
