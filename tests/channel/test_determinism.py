"""Determinism regression suite: one seeded generator, reproducible outputs.

``build_model``, ``GenerativeChannel`` and ``build_channel`` all accept
a single :class:`numpy.random.Generator`; these tests lock in that the
generator is actually propagated everywhere (weight initialisation, latent
sampling, channel noise) — rebuilding with the same seed must reproduce
results bit for bit, with no silent ``default_rng()`` fallback anywhere on
the path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import GenerativeChannel, SimulatorChannel, build_channel
from repro.core import ModelConfig, build_model
from repro.data import generate_paired_dataset
from repro.experiments import ExperimentSetup
from repro.flash import BlockGeometry
from repro.nn.backend import use_backend
from repro.nn.cjit import cjit_available


def _levels(seed: int = 3, shape=(2, 16, 16)) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 8, size=shape)


class TestBuildModelDeterminism:
    @pytest.mark.parametrize("architecture",
                             ["cvae_gan", "cgan", "cvae", "bicycle_gan"])
    def test_same_seed_same_weights(self, architecture):
        config = ModelConfig.tiny()
        first = build_model(architecture, config,
                            rng=np.random.default_rng(42))
        second = build_model(architecture, config,
                             rng=np.random.default_rng(42))
        state_first, state_second = first.state_dict(), second.state_dict()
        assert state_first.keys() == state_second.keys()
        for key in state_first:
            np.testing.assert_array_equal(state_first[key],
                                          state_second[key])

    def test_same_seed_same_samples(self):
        config = ModelConfig.tiny()
        outputs = []
        for _ in range(2):
            model = build_model("cvae_gan", config,
                                rng=np.random.default_rng(7))
            program = _levels(shape=(2, 8, 8))
            outputs.append(model.sample(program, np.array([0.4, 0.7]),
                                        np.random.default_rng(8)))
        np.testing.assert_array_equal(outputs[0], outputs[1])


class TestChannelDeterminism:
    def test_simulator_backend(self):
        levels = _levels()
        reads = [build_channel("simulator",
                               geometry=BlockGeometry(16, 16),
                               rng=np.random.default_rng(0)
                               ).read_voltages(levels, 7000)
                 for _ in range(2)]
        np.testing.assert_array_equal(reads[0], reads[1])

    def test_generative_backend(self):
        levels = _levels()
        reads = []
        for _ in range(2):
            channel = build_channel("cvae_gan", config=ModelConfig.tiny(),
                                    rng=np.random.default_rng(1))
            reads.append(channel.read_voltages(levels, 7000))
        np.testing.assert_array_equal(reads[0], reads[1])

    def test_generative_chunking_invariant(self, cjit_backend):
        """Chunk size is a throughput knob, not a semantics knob.

        The latent stream is identical for any chunking, and every layer
        multiplies each sample with its own GEMM in eval mode, so a tile's
        voltages do not depend on the tiles batched with it: chunked reads
        are bit-identical, for every architecture and preset, on numpy and
        (with a compiler) cjit.
        """
        levels = _levels(shape=(2, 32, 32))
        backends = ["numpy"] + ([cjit_backend] if cjit_available() else [])
        for backend in backends:
            for preset in ("tiny", "small"):
                for architecture in ("cvae_gan", "cgan", "cvae",
                                     "bicycle_gan"):
                    model = build_model(architecture,
                                        getattr(ModelConfig, preset)(),
                                        rng=np.random.default_rng(2))

                    def channel(chunk):
                        return GenerativeChannel(
                            model, rng=np.random.default_rng(3),
                            chunk_size=chunk)

                    with use_backend(backend):
                        reads = [channel(chunk).read_voltages(levels, 7000)
                                 for chunk in (1, 4, 64)]
                        repeated = [channel(chunk).read_repeated(levels,
                                                                 7000, 3)
                                    for chunk in (1, 7, 64)]
                    for chunked in reads[1:]:
                        np.testing.assert_array_equal(chunked, reads[0])
                    for chunked in repeated[1:]:
                        np.testing.assert_array_equal(chunked, repeated[0])

    def test_baseline_backend(self):
        simulator = SimulatorChannel(geometry=BlockGeometry(32, 32),
                                     rng=np.random.default_rng(6))
        dataset = generate_paired_dataset(simulator, pe_cycles=(7000,),
                                          arrays_per_pe=16, array_size=16)
        levels = _levels()
        reads = [build_channel("gaussian", dataset=dataset,
                               rng=np.random.default_rng(9),
                               fit_iterations=60
                               ).read_voltages(levels, 7000)
                 for _ in range(2)]
        np.testing.assert_array_equal(reads[0], reads[1])

    def test_per_call_rng_override(self):
        channel = build_channel("simulator", geometry=BlockGeometry(16, 16),
                                rng=np.random.default_rng(10))
        levels = _levels()
        first = channel.read_voltages(levels, 7000,
                                      rng=np.random.default_rng(11))
        second = channel.read_voltages(levels, 7000,
                                       rng=np.random.default_rng(11))
        np.testing.assert_array_equal(first, second)


class TestExperimentSetupStreams:
    def test_spawn_rng_reproducible_and_label_independent(self):
        setup = ExperimentSetup(arrays_per_pe=4, pe_cycles=(4000,))
        first = setup.spawn_rng("alpha").standard_normal(4)
        again = setup.spawn_rng("alpha").standard_normal(4)
        other = setup.spawn_rng("beta").standard_normal(4)
        np.testing.assert_array_equal(first, again)
        assert not np.array_equal(first, other)

    def test_same_seed_same_channel_stream(self):
        blocks = []
        for _ in range(2):
            setup = ExperimentSetup(arrays_per_pe=4, pe_cycles=(4000,),
                                    seed=21)
            blocks.append(setup.channel.program_random_block())
        np.testing.assert_array_equal(blocks[0], blocks[1])
