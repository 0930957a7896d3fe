"""Checkpoint refs keep pickled shard payloads small (the ProcessExecutor
fix) and thread ``checkpoint=`` through real sweep consumers.

Before this seam existed, ``ProcessExecutor`` pickled the full live channel
— model weights included — into every shard.  With a
:class:`repro.exec.ChannelRef` in the context the wire carries a registry
name and a path; the regression test pins the payload gap so the fix cannot
silently rot.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.channel import GenerativeChannel, build_channel, save_channel
from repro.ecc import LDPCCode, evaluate_ldpc_over_channel
from repro.exec import ChannelRef, MonteCarloPlan, run_plan
from repro.flash import BlockGeometry


def _noop(unit, rng, *, channel):
    return float(unit)


@pytest.fixture(scope="module")
def generative_checkpoint(tmp_path_factory):
    """An (untrained) tiny generative backend and its checkpoint."""
    from repro.core import ModelConfig, build_model

    model = build_model("cvae_gan", ModelConfig.tiny(),
                        rng=np.random.default_rng(1))
    channel = GenerativeChannel(model, rng=np.random.default_rng(2))
    path = tmp_path_factory.mktemp("zoo") / "cvae_gan-tiny"
    save_channel(channel, path)
    return channel, path


class TestPayloadRegression:
    def test_ref_shard_payload_stays_small(self, generative_checkpoint):
        channel, path = generative_checkpoint
        live_plan = MonteCarloPlan(task=_noop, units=(0, 1), seed=0,
                                   context={"channel": channel})
        ref_plan = MonteCarloPlan(task=_noop, units=(0, 1), seed=0,
                                  context={"channel":
                                           ChannelRef("cvae_gan", path)})
        live_payload = len(pickle.dumps(live_plan.shards(1)[0]))
        ref_payload = len(pickle.dumps(ref_plan.shards(1)[0]))
        # The ref ships a name and a path, not model weights: the payload
        # must stay in the hundreds of bytes, far below the live pickle.
        assert ref_payload < 4096
        assert ref_payload * 10 < live_payload

    def test_ref_pickle_roundtrips(self, generative_checkpoint):
        _, path = generative_checkpoint
        ref = ChannelRef("cvae_gan", path, chunk_size=8)
        clone = pickle.loads(pickle.dumps(ref))
        assert clone.key() == ref.key()


class TestProcessRebuild:
    def test_process_pool_output_matches_live_context(self,
                                                      generative_checkpoint):
        """Workers rebuilding from the checkpoint reproduce the live-model
        sweep bit-identically."""
        channel, path = generative_checkpoint

        live_plan = MonteCarloPlan(task=_sample_sum, units=tuple(range(4)),
                                   seed=6, context={"channel": channel})
        ref_plan = MonteCarloPlan(task=_sample_sum, units=tuple(range(4)),
                                  seed=6,
                                  context={"channel":
                                           ChannelRef("cvae_gan", path)})
        reference = run_plan(live_plan, executor="serial")
        assert run_plan(ref_plan, executor="process", workers=2) == reference


def _sample_sum(unit, rng, *, channel):
    levels = rng.integers(0, 8, size=(1, 8, 8))
    voltages = channel.read_voltages(levels, 7000.0, rng=rng)
    return float(np.asarray(voltages, dtype=np.float64).sum())


class TestSweepConsumersAcceptRefs:
    def test_evaluate_ldpc_with_channel_ref_matches_live(self, tmp_path):
        """``checkpoint=`` threads end to end through a real campaign."""
        channel = build_channel("simulator", geometry=BlockGeometry(16, 16),
                                rng=np.random.default_rng(0))
        path = tmp_path / "simulator-ref"
        save_channel(channel, path)
        code = LDPCCode.regular(n=96, column_weight=3, row_weight=6,
                                rng=np.random.default_rng(1))
        kwargs = dict(num_codewords=4, group_size=2, seed=5)

        live = evaluate_ldpc_over_channel(code, channel, 10000, **kwargs)
        ref = ChannelRef.from_checkpoint(path)
        serial = evaluate_ldpc_over_channel(code, ref, 10000, **kwargs)
        sharded = evaluate_ldpc_over_channel(code, ref, 10000,
                                             executor="process", workers=2,
                                             **kwargs)
        np.testing.assert_array_equal(serial.frame_records,
                                      live.frame_records)
        np.testing.assert_array_equal(sharded.frame_records,
                                      live.frame_records)
        assert serial.frame_error_rate == live.frame_error_rate
