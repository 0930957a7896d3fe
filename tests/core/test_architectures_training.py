"""Tests for the four architectures, the trainer and the generative channel."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.channel import GenerativeChannel
from repro.core import (
    BicycleGAN,
    ConditionalGAN,
    ConditionalVAE,
    ConditionalVAEGAN,
    MODEL_REGISTRY,
    ModelConfig,
    Trainer,
    TrainingHistory,
    build_model,
)
from repro.data import BatchIterator
from repro.flash.cell import NUM_LEVELS
from repro.nn import no_grad

ALL_ARCHITECTURES = ("cvae_gan", "cgan", "cvae", "bicycle_gan")


def _batch(model, batch=4, rng=None):
    """A loss batch as the trainer builds it, from integer program levels
    and normalised voltages, both ``(N, H, W)``, and normalised P/E
    counts."""
    rng = rng if rng is not None else np.random.default_rng(0)
    size = model.config.array_size
    program = rng.integers(0, NUM_LEVELS, size=(batch, size, size))
    voltages = rng.uniform(-1, 1, size=(batch, size, size))
    pe = rng.uniform(0.3, 1.0, size=batch)
    return model.training_batch(program, voltages, pe)


class TestZoo:
    def test_registry_contains_remark3_architectures(self):
        assert set(MODEL_REGISTRY) == set(ALL_ARCHITECTURES)

    def test_build_model_unknown_name(self):
        with pytest.raises(ValueError):
            build_model("stylegan")

    def test_build_model_returns_requested_class(self, tiny_config, rng):
        assert isinstance(build_model("cvae_gan", tiny_config, rng=rng),
                          ConditionalVAEGAN)
        assert isinstance(build_model("cgan", tiny_config, rng=rng),
                          ConditionalGAN)
        assert isinstance(build_model("cvae", tiny_config, rng=rng),
                          ConditionalVAE)
        assert isinstance(build_model("bicycle_gan", tiny_config, rng=rng),
                          BicycleGAN)

    def test_display_names(self):
        assert ConditionalVAEGAN.display_name == "cV-G"
        assert ConditionalGAN.display_name == "cGAN"


class TestArchitectureLosses:
    @pytest.mark.parametrize("name", ALL_ARCHITECTURES)
    def test_generator_loss_finite_and_reported(self, name, tiny_config, rng):
        model = build_model(name, tiny_config, rng=rng)
        loss, stats = model.generator_loss(_batch(model), rng)
        assert np.isfinite(loss.item())
        assert stats["g_total"] == pytest.approx(loss.item())

    @pytest.mark.parametrize("name", ["cvae_gan", "cgan", "bicycle_gan"])
    def test_discriminator_loss_finite(self, name, tiny_config, rng):
        model = build_model(name, tiny_config, rng=rng)
        loss, stats = model.discriminator_loss(_batch(model), rng)
        assert np.isfinite(loss.item())
        assert "d_total" in stats

    def test_cvae_has_no_discriminator(self, tiny_config, rng):
        model = build_model("cvae", tiny_config, rng=rng)
        assert not model.has_discriminator
        assert model.discriminator_loss(_batch(model), rng) is None

    @pytest.mark.parametrize("name", ["cvae_gan", "cgan", "bicycle_gan"])
    def test_parameter_groups_disjoint(self, name, tiny_config, rng):
        model = build_model(name, tiny_config, rng=rng)
        generator_ids = {id(p) for p in model.generator_parameters()}
        discriminator_ids = {id(p) for p in model.discriminator_parameters()}
        assert not generator_ids & discriminator_ids

    def test_cvae_gan_kl_term_in_stats(self, tiny_config, rng):
        model = build_model("cvae_gan", tiny_config, rng=rng)
        _, stats = model.generator_loss(_batch(model), rng)
        assert "g_kl" in stats and "g_reconstruction" in stats

    def test_bicycle_gan_has_latent_regression(self, tiny_config, rng):
        model = build_model("bicycle_gan", tiny_config, rng=rng)
        _, stats = model.generator_loss(_batch(model), rng)
        assert "g_latent_regression" in stats

    @pytest.mark.parametrize("name", ALL_ARCHITECTURES)
    def test_sample_shape_and_range(self, name, tiny_config, rng):
        model = build_model(name, tiny_config, rng=rng)
        size = tiny_config.array_size
        program = np.random.default_rng(0).integers(0, NUM_LEVELS,
                                                    size=(3, size, size))
        sample = model.sample(program, np.full(3, 0.7), rng)
        assert sample.shape == (3, size, size)
        assert np.all(np.abs(sample) <= 1.0)

    def test_sample_rejects_normalised_levels(self, tiny_config, rng):
        """The pre-encoded ``(N, 1, H, W)`` float input fails loudly."""
        model = build_model("cvae_gan", tiny_config, rng=rng)
        size = tiny_config.array_size
        with pytest.raises(TypeError, match="integers"):
            model.sample(np.zeros((2, 1, size, size)), np.full(2, 0.5), rng)

    def test_sample_respects_fixed_latent(self, tiny_config, rng):
        model = build_model("cvae_gan", tiny_config, rng=rng)
        size = tiny_config.array_size
        program = np.zeros((2, size, size), dtype=int)
        latent = np.ones((2, tiny_config.latent_dim))
        first = model.sample(program, np.full(2, 0.5),
                             np.random.default_rng(1), latent=latent)
        second = model.sample(program, np.full(2, 0.5),
                              np.random.default_rng(2), latent=latent)
        np.testing.assert_allclose(first, second)

    def test_sample_keeps_training_mode(self, tiny_config, rng):
        model = build_model("cvae_gan", tiny_config, rng=rng)
        model.train()
        size = tiny_config.array_size
        model.sample(np.zeros((1, size, size), dtype=int), np.array([0.5]),
                     rng)
        assert model.training


class TestTrainer:
    @pytest.mark.parametrize("name", ALL_ARCHITECTURES)
    def test_single_step_updates_parameters(self, name, tiny_config,
                                            tiny_dataset, rng):
        model = build_model(name, tiny_config, rng=rng)
        trainer = Trainer(model, tiny_dataset, rng=np.random.default_rng(3))
        before = [p.data.copy() for p in model.generator_parameters()]
        trainer.train_step(*tiny_dataset[0:4])
        after = model.generator_parameters()
        assert any(not np.allclose(b, a.data) for b, a in zip(before, after))

    def test_train_step_puts_model_in_train_mode(self, tiny_config,
                                                 tiny_dataset, rng):
        model = build_model("cvae_gan", tiny_config, rng=rng)
        GenerativeChannel(model)
        assert not model.training
        Trainer(model, tiny_dataset,
                rng=np.random.default_rng(3)).train_step(*tiny_dataset[0:4])
        assert model.training

    def test_history_records_steps(self, tiny_config, tiny_dataset):
        model = build_model("cvae", tiny_config, rng=np.random.default_rng(1))
        trainer = Trainer(model, tiny_dataset, rng=np.random.default_rng(2))
        history = trainer.train(steps=4)
        assert len(history.generator) == 4
        assert history.last("g_total") > 0
        assert history.mean("g_total") > 0

    def test_history_unknown_key(self, tiny_config, tiny_dataset):
        model = build_model("cvae", tiny_config, rng=np.random.default_rng(1))
        trainer = Trainer(model, tiny_dataset, rng=np.random.default_rng(2))
        history = trainer.train(steps=1)
        with pytest.raises(KeyError):
            history.last("nonexistent")

    def test_history_mean_over_last_steps(self):
        history = TrainingHistory(generator=[{"g_total": value}
                                             for value in (1.0, 2.0, 6.0)])
        assert history.mean("g_total") == 3.0
        assert history.mean("g_total", last_n=2) == 4.0
        assert history.mean("g_total", last_n=5) == 3.0

    @pytest.mark.parametrize("last_n", [0, -1])
    def test_history_mean_rejects_nonpositive_last_n(self, last_n):
        history = TrainingHistory(generator=[{"g_total": value}
                                             for value in (1.0, 2.0, 6.0)])
        with pytest.raises(ValueError, match="last_n"):
            history.mean("g_total", last_n=last_n)

    def test_training_reduces_reconstruction_loss(self, tiny_config,
                                                  tiny_dataset):
        """A short cVAE run must reduce the reconstruction loss."""
        model = build_model("cvae", tiny_config, rng=np.random.default_rng(7))
        trainer = Trainer(model, tiny_dataset, rng=np.random.default_rng(8))
        history = trainer.train(steps=48)
        first = np.mean([s["g_reconstruction"]
                         for s in history.generator[:3]])
        last = np.mean([s["g_reconstruction"]
                        for s in history.generator[-3:]])
        assert last < first


def _trainer(config, dataset, name="cvae_gan"):
    model = build_model(name, config, rng=np.random.default_rng(1))
    return Trainer(model, dataset, rng=np.random.default_rng(2))


def _reference_training(trainer, cut=None, step=Trainer.train_step):
    """``config.epochs`` passes of a fresh :class:`BatchIterator` over the
    trainer's generator, one ``step`` a batch, returning right after step
    ``cut`` (so no later pass draws its shuffle)."""
    config = trainer.model.config
    taken = 0
    for _ in range(config.epochs):
        for batch in BatchIterator(trainer.dataset, config.batch_size,
                                   rng=trainer.rng):
            step(trainer, *batch)
            taken += 1
            if taken == cut:
                return


def _assert_same_training(trainer, reference):
    state, expected = trainer.model.state_dict(), reference.model.state_dict()
    assert list(state) == list(expected)
    for name in state:
        assert state[name].dtype == expected[name].dtype
        assert np.array_equal(state[name], expected[name]), name
    assert trainer.history == reference.history
    assert trainer.rng.bit_generator.state == reference.rng.bit_generator.state


class TestStepBudget:
    """``Trainer.train(steps)`` is the reference epoch loop, cut at a
    step budget: 24 arrays at batch 4 make 6 steps a pass."""

    @pytest.fixture
    def config(self, tiny_config):
        return replace(tiny_config, epochs=2)

    @pytest.mark.parametrize("name", ALL_ARCHITECTURES)
    def test_default_trains_config_epochs_passes(self, config, tiny_dataset,
                                                 name):
        trainer, reference = (_trainer(config, tiny_dataset, name)
                              for _ in range(2))
        trainer.train()
        _reference_training(reference)
        assert len(trainer.history.generator) == 12
        _assert_same_training(trainer, reference)

    @pytest.mark.parametrize("name", ALL_ARCHITECTURES)
    @pytest.mark.parametrize("steps", [6, 7])
    def test_budget_cuts_the_reference_loop(self, config, tiny_dataset,
                                            steps, name):
        """A budget at or one step past a pass boundary draws no shuffle
        for a pass it does not reach."""
        trainer, reference = (_trainer(config, tiny_dataset, name)
                              for _ in range(2))
        trainer.train(steps=steps)
        _reference_training(reference, cut=steps)
        assert len(trainer.history.generator) == steps
        _assert_same_training(trainer, reference)

    def test_budget_outlasts_config_epochs(self, config, tiny_dataset):
        trainer = _trainer(config, tiny_dataset)
        trainer.train(steps=15)
        assert len(trainer.history.generator) == 15
        assert len(trainer.history.discriminator) == 15

    @pytest.mark.parametrize("steps", [0, -3])
    def test_rejects_nonpositive_budget(self, config, tiny_dataset, steps):
        trainer = _trainer(config, tiny_dataset)
        state = trainer.rng.bit_generator.state
        with pytest.raises(ValueError, match="steps"):
            trainer.train(steps=steps)
        assert trainer.history.generator == []
        assert trainer.rng.bit_generator.state == state

    def test_verbose_prints_each_pass_means(self, config, tiny_dataset,
                                            capsys):
        trainer = _trainer(config, tiny_dataset)
        trainer.train(steps=7, verbose=True)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("]")[0] for line in lines] == [
            "[epoch 1/2", "[epoch 2/2, 1/6 steps"]
        steps = trainer.history.generator
        for line, pass_steps in zip(lines, (steps[:6], steps[6:])):
            fields = dict(item.split("=")
                          for item in line.split("] ")[1].split(", "))
            assert {"g_total", "d_total"} <= set(fields)
            mean = np.mean([step["g_total"] for step in pass_steps])
            assert fields["g_total"] == f"{mean:.4f}"


def _encode_twice_step(trainer, program_levels, voltages, pe_cycles):
    """A train step that encodes the batch twice: under ``no_grad`` for
    the discriminator step's fake, then again for the generator step, with
    no discriminator freeze and both optimizers' gradients cleared through
    the model.  The encoder's running statistics are put back after the
    first encode, so they take the one momentum update per step the
    trainer's single encode gives them."""
    model = trainer.model
    model.train()

    def batch():
        return model.training_batch(
            program_levels, trainer.voltage_normalizer.normalize(voltages),
            trainer.params.normalized_wear(pe_cycles))

    discriminator_batch = batch()
    running = [(module, dict(module._buffers))
               for module in model.encoder.modules()]
    with no_grad():
        discriminator_batch.posterior(model.encoder)
    for module, buffers in running:
        module._buffers.update(buffers)
    loss, d_stats = model.discriminator_loss(discriminator_batch, trainer.rng)
    trainer.discriminator_optimizer.zero_grad()
    for parameter in model.parameters():
        parameter.zero_grad()
    loss.backward()
    trainer.discriminator_optimizer.step()
    trainer.history.discriminator.append(d_stats)

    loss, g_stats = model.generator_loss(batch(), trainer.rng)
    trainer.generator_optimizer.zero_grad()
    for parameter in model.parameters():
        parameter.zero_grad()
    loss.backward()
    trainer.generator_optimizer.step()
    trainer.history.generator.append(g_stats)


class TestSharedPosteriorStep:
    """One encoder forward on the real voltages per step, and a frozen
    discriminator in the generator step, change no value: the budget of 7
    steps crosses the reshuffle after the first 6."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("name", ["cvae_gan", "bicycle_gan"])
    def test_matches_encoding_twice(self, tiny_config, tiny_dataset, name,
                                    dtype):
        config = replace(tiny_config, epochs=2, dtype=dtype)
        trainer, reference = (_trainer(config, tiny_dataset, name)
                              for _ in range(2))
        trainer.train(steps=7)
        _reference_training(reference, cut=7, step=_encode_twice_step)
        assert len(trainer.history.discriminator) == 7
        _assert_same_training(trainer, reference)

    @pytest.mark.parametrize("name", ["cvae_gan", "cvae", "bicycle_gan"])
    def test_one_encoder_forward_on_the_real_voltages(self, tiny_config,
                                                      tiny_dataset, name):
        trainer = _trainer(tiny_config, tiny_dataset, name)
        encoder = trainer.model.encoder
        inputs = []
        features = encoder._features

        def spy(voltages, pe_normalized):
            inputs.append(voltages.data[:, 0].copy())
            return features(voltages, pe_normalized)

        encoder._features = spy
        levels, voltages, pe_cycles = tiny_dataset[0:4]
        real = trainer.voltage_normalizer.normalize(voltages)
        for _ in range(3):
            trainer.train_step(levels, voltages, pe_cycles)
        real_encodes = sum(np.array_equal(seen, real.astype(seen.dtype))
                           for seen in inputs)
        assert real_encodes == 3
        # BicycleGAN's latent regression encodes each step's generated fake.
        assert len(inputs) == (6 if name == "bicycle_gan" else 3)

    @pytest.mark.parametrize("name", ["cvae_gan", "cgan", "bicycle_gan"])
    def test_discriminator_keeps_its_own_step_gradients(self, tiny_config,
                                                        tiny_dataset, name):
        trainer = _trainer(tiny_config, tiny_dataset, name)
        optimizer = trainer.discriminator_optimizer
        seen = {}
        step = optimizer.step

        def spy():
            seen["grads"] = [parameter.grad.copy()
                             for parameter in optimizer.parameters]
            step()

        optimizer.step = spy
        trainer.train_step(*tiny_dataset[0:4])
        for parameter, grad in zip(optimizer.parameters, seen["grads"]):
            np.testing.assert_array_equal(parameter.grad, grad)
        assert all(parameter.requires_grad
                   for parameter in trainer.model.parameters())
        assert all(parameter.grad is not None
                   for parameter in trainer.model.generator_parameters())

    def test_freeze_is_lifted_when_the_generator_loss_raises(
            self, tiny_config, tiny_dataset):
        trainer = _trainer(tiny_config, tiny_dataset)
        model = trainer.model

        def failing_loss(batch, rng):
            assert not any(parameter.requires_grad
                           for parameter in model.discriminator_parameters())
            assert all(parameter.requires_grad
                       for parameter in model.generator_parameters())
            raise FloatingPointError("diverged")

        model.generator_loss = failing_loss
        with pytest.raises(FloatingPointError, match="diverged"):
            trainer.train_step(*tiny_dataset[0:4])
        assert all(parameter.requires_grad
                   for parameter in model.parameters())


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", ["cvae_gan", "cvae", "bicycle_gan"])
def test_sampling_never_runs_the_encoder(name, dtype):
    """Sampling draws its latent from the prior: an encoder of noise,
    running statistics included, leaves every sample's bytes as they
    were (so a change to the encoder's running statistics is invisible
    to the channel)."""
    model = build_model(name, replace(ModelConfig.tiny(), dtype=dtype),
                        rng=np.random.default_rng(9))
    program = np.random.default_rng(0).integers(0, NUM_LEVELS,
                                                size=(3, 8, 8))

    def reads():
        channel = GenerativeChannel(model, rng=np.random.default_rng(10))
        return (model.sample(program, np.full(3, 0.5),
                             np.random.default_rng(4)),
                channel.read_voltages(program, 7000),
                channel.read_repeated(program[0], 4000, num_samples=3))

    want = reads()
    noise = np.random.default_rng(11)
    state = model.state_dict()
    encoder = [key for key in state
               if key.startswith(("encoder.", "buffer:encoder."))]
    assert any(key.endswith("running_var") for key in encoder)
    for key in encoder:
        state[key] = noise.uniform(0.5, 2.0, state[key].shape).astype(
            state[key].dtype)
    model.load_state_dict(state)
    for got, expected in zip(reads(), want):
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


class TestGenerativeChannelSampling:
    @pytest.fixture(scope="class")
    def wrapper(self):
        config = ModelConfig.tiny()
        model = build_model("cvae_gan", config, rng=np.random.default_rng(9))
        return GenerativeChannel(model, rng=np.random.default_rng(10))

    def test_read_single_array(self, wrapper):
        program = np.random.default_rng(0).integers(0, 8, size=(8, 8))
        voltages = wrapper.read_voltages(program, 7000)
        assert voltages.shape == (8, 8)
        assert voltages.min() >= 0.0 and voltages.max() <= 650.0

    def test_read_batched_arrays(self, wrapper):
        program = np.random.default_rng(0).integers(0, 8, size=(5, 8, 8))
        voltages = wrapper.read_voltages(program, 4000)
        assert voltages.shape == (5, 8, 8)

    def test_read_rejects_wrong_rank(self, wrapper):
        with pytest.raises(ValueError):
            wrapper.read_voltages(np.zeros(8, dtype=int), 4000)

    @pytest.mark.parametrize("level", [-1, 8])
    def test_read_rejects_out_of_range_levels(self, wrapper, level):
        program = np.zeros((8, 8), dtype=int)
        program[3, 4] = level
        with pytest.raises(ValueError, match="program levels"):
            wrapper.read_voltages(program, 4000)

    def test_read_rejects_negative_pe_cycles(self, wrapper):
        with pytest.raises(ValueError, match="pe_cycles"):
            wrapper.read_voltages(np.zeros((8, 8), dtype=int), -1)

    def test_read_repeated_default_samples(self, wrapper):
        program = np.zeros((8, 8), dtype=int)
        repeated = wrapper.read_repeated(program, 7000)
        assert repeated.shape == (wrapper.model.config.samples_per_array, 8, 8)

    def test_read_repeated_rejects_zero_samples(self, wrapper):
        with pytest.raises(ValueError):
            wrapper.read_repeated(np.zeros((8, 8), dtype=int), 7000,
                                  num_samples=0)

    def test_repeated_reads_differ(self, wrapper):
        """Different latent samples yield different voltage arrays."""
        program = np.random.default_rng(1).integers(0, 8, size=(8, 8))
        repeated = wrapper.read_repeated(program, 7000, num_samples=2)
        assert not np.allclose(repeated[0], repeated[1])
