"""Checkpoint round-trips: restored backends sample bit-identically.

The acceptance criterion of the model zoo: ``build_channel(name,
checkpoint=path)`` restores a backend with no retraining whose
``read_voltages`` output is bit-identical — for a fixed seed, at both
working precisions — to the in-memory backend it was saved from.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.artifacts import (
    MANIFEST_VERSION,
    RegistryMismatchError,
    load_channel,
    load_model,
    read_manifest,
    save_channel,
    save_model,
    verify_checkpoint,
)
from repro.channel import SimulatorChannel, build_channel
from repro.flash.cell import NUM_LEVELS

PROBE_LEVELS = np.random.default_rng(3).integers(0, NUM_LEVELS,
                                                 size=(3, 16, 16))


def assert_bit_identical(original, restored, pe_cycles: float):
    """Same seed in, same voltages out — to the last bit."""
    reference = original.read_voltages(PROBE_LEVELS, pe_cycles,
                                       rng=np.random.default_rng(99))
    reloaded = restored.read_voltages(PROBE_LEVELS, pe_cycles,
                                      rng=np.random.default_rng(99))
    assert reference.dtype == reloaded.dtype == np.float64
    np.testing.assert_array_equal(reference, reloaded)


class TestGenerativeRoundtrip:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_build_channel_checkpoint_bit_identical(self, tmp_path,
                                                    trained_channels, dtype):
        channel = trained_channels[dtype]
        path = tmp_path / f"ck-{dtype}"
        save_channel(channel, path)
        restored = build_channel("cvae_gan", checkpoint=path)
        assert restored.model.dtype == np.dtype(dtype)
        assert restored.model.config == channel.model.config
        assert_bit_identical(channel, restored, 7000.0)

    def test_generative_alias_accepts_any_architecture(self, tmp_path,
                                                       saved_checkpoint):
        path, _ = saved_checkpoint
        restored = build_channel("generative", checkpoint=path)
        assert restored.model.name == "cvae_gan"

    def test_read_repeated_bit_identical(self, tmp_path, trained_channels):
        channel = trained_channels["float32"]
        path = tmp_path / "ck"
        save_channel(channel, path)
        restored = build_channel("cvae_gan", checkpoint=path)
        reference = channel.read_repeated(PROBE_LEVELS[0], 4000.0,
                                          num_samples=3,
                                          rng=np.random.default_rng(7))
        reloaded = restored.read_repeated(PROBE_LEVELS[0], 4000.0,
                                          num_samples=3,
                                          rng=np.random.default_rng(7))
        np.testing.assert_array_equal(reference, reloaded)

    def test_run_probe_passes_on_clean_checkpoint(self, saved_checkpoint):
        path, manifest = saved_checkpoint
        assert manifest.probe is not None
        load_channel(path, run_probe=True)

    def test_condition_on_pe_round_trips(self, tmp_path, params, dataset,
                                         train_reference):
        channel = train_reference("float32", params, dataset,
                                  condition_on_pe=False)
        path = tmp_path / "ablation"
        manifest = save_channel(channel, path)
        assert manifest.model_kwargs == {"condition_on_pe": False}
        restored = build_channel("cvae_gan", checkpoint=path)
        assert restored.model.generator.condition_on_pe is False
        assert_bit_identical(channel, restored, 7000.0)


class TestModelLevelRoundtrip:
    def test_save_model_load_model_restore_weights(self, tmp_path,
                                                   trained_channels):
        model = trained_channels["float32"].model
        path = tmp_path / "model"
        save_model(model, path, params=trained_channels["float32"].params)
        restored = load_model(path, expected_architecture="cvae_gan")
        original_state = model.state_dict()
        restored_state = restored.state_dict()
        assert set(original_state) == set(restored_state)
        for key, value in original_state.items():
            assert restored_state[key].dtype == value.dtype
            np.testing.assert_array_equal(restored_state[key], value)
        assert not restored.training  # checkpoints load in eval mode

    def test_load_model_without_expectation_accepts_any_architecture(
            self, tmp_path, trained_channels):
        path = tmp_path / "model"
        save_model(trained_channels["float32"].model, path)
        assert load_model(path).name == "cvae_gan"

    def test_load_model_of_another_architecture_raises(self, tmp_path,
                                                       trained_channels):
        path = tmp_path / "model"
        save_model(trained_channels["float32"].model, path)
        with pytest.raises(RegistryMismatchError):
            load_model(path, expected_architecture="cgan")


class TestBaselineRoundtrip:
    def test_build_channel_checkpoint_bit_identical(self, tmp_path,
                                                    gaussian_channel):
        path = tmp_path / "gaussian"
        save_channel(gaussian_channel, path)
        restored = build_channel("gaussian", checkpoint=path)
        assert_bit_identical(gaussian_channel, restored, 4000.0)

    def test_fitted_parameters_exact(self, tmp_path, gaussian_channel):
        path = tmp_path / "gaussian"
        save_channel(gaussian_channel, path)
        restored = build_channel("gaussian", checkpoint=path)
        assert restored.model.fitted == gaussian_channel.model.fitted
        grid = np.linspace(0.0, 650.0, 101)
        np.testing.assert_array_equal(
            restored.model.pdf(1, 4000.0, grid),
            gaussian_channel.model.pdf(1, 4000.0, grid))

    def test_probe_replay(self, tmp_path, gaussian_channel):
        path = tmp_path / "gaussian"
        save_channel(gaussian_channel, path)
        load_channel(path, run_probe=True)


class TestSimulatorRoundtrip:
    def test_build_channel_checkpoint_bit_identical(self, tmp_path, params):
        channel = SimulatorChannel(params, rng=np.random.default_rng(4))
        path = tmp_path / "sim"
        save_channel(channel, path)
        restored = build_channel("simulator", checkpoint=path)
        assert restored.params == params
        assert_bit_identical(channel, restored, 10000.0)

    def test_apply_ici_flag_round_trips(self, tmp_path, params):
        """A no-ICI simulator (baseline-fitting config) must restore as
        no-ICI — not silently revert to the default."""
        channel = SimulatorChannel(params, apply_ici=False,
                                   rng=np.random.default_rng(4))
        path = tmp_path / "sim-no-ici"
        save_channel(channel, path)
        restored = build_channel("simulator", checkpoint=path)
        assert restored.apply_ici is False
        assert restored.supports().ici is False
        assert_bit_identical(channel, restored, 10000.0)
        load_channel(path, run_probe=True)


class TestAdapterFlagRoundtrip:
    def test_strict_pe_flag_round_trips(self, tmp_path, gaussian_channel):
        from repro.channel import BaselineChannel

        strict = BaselineChannel(gaussian_channel.model, strict_pe=True,
                                 rng=np.random.default_rng(8))
        path = tmp_path / "strict"
        save_channel(strict, path)
        restored = build_channel("gaussian", checkpoint=path)
        assert restored.strict_pe is True
        with pytest.raises(ValueError, match="not fitted"):
            restored.read_voltages(PROBE_LEVELS, 5555.0)

    def test_explicit_kwarg_overrides_stored_flag(self, tmp_path,
                                                  gaussian_channel):
        path = tmp_path / "gaussian"
        save_channel(gaussian_channel, path)  # saved with strict_pe=False
        restored = build_channel("gaussian", checkpoint=path, strict_pe=True)
        assert restored.strict_pe is True

    def test_baseline_params_override_rejected(self, tmp_path,
                                               gaussian_channel, params):
        """The fitted distributions are tied to the stored params; an
        adapter-level override would be silently inconsistent physics."""
        path = tmp_path / "gaussian"
        save_channel(gaussian_channel, path)
        with pytest.raises(ValueError, match="cannot be overridden"):
            build_channel("gaussian", checkpoint=path, params=params)

    def test_generative_params_override_rejected(self, tmp_path,
                                                 saved_checkpoint, params):
        path, _ = saved_checkpoint
        with pytest.raises(ValueError, match="cannot be overridden"):
            build_channel("cvae_gan", checkpoint=path, params=params)


class TestManifestContents:
    def test_manifest_records_everything(self, saved_checkpoint):
        path, manifest = saved_checkpoint
        stored = read_manifest(path)
        assert stored.format_version == MANIFEST_VERSION
        assert stored.kind == "generative"
        assert stored.registry_name == "cvae_gan"
        assert stored.model_config["dtype"] == "float32"
        assert stored.model_config["array_size"] == 8
        assert stored.params["voltage_max"] == 650.0
        assert stored.training["epochs"] == 2
        assert "git_revision" in stored.training
        assert set(stored.files) == {"weights.npz"}
        entry = stored.files["weights.npz"]
        assert len(entry["sha256"]) == 64 and entry["size"] > 0
        assert stored.probe is not None and len(stored.probe["sha256"]) == 64

    def test_verify_checkpoint_passes(self, saved_checkpoint):
        path, _ = saved_checkpoint
        manifest = verify_checkpoint(path)
        assert manifest.registry_name == "cvae_gan"
