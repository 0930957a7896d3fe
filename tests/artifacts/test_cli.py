"""The ``python -m repro.artifacts`` CLI: save, inspect, verify, load.

Runs the command handlers in-process (``cli.main(argv)``) against a tiny
reference checkpoint trained by the ``save`` command itself — the same
lifecycle the CI ``zoo-smoke`` job drives.
"""

from __future__ import annotations

import json

import pytest

from repro.artifacts.cli import main

SAVE_ARGS = ["--preset", "tiny", "--steps", "2", "--arrays-per-pe", "8",
             "--seed", "7"]


@pytest.fixture(scope="module")
def cli_checkpoint(tmp_path_factory):
    """A checkpoint trained and saved by the CLI itself."""
    path = tmp_path_factory.mktemp("zoo") / "cvae_gan-tiny"
    assert main(["save", str(path), "--arch", "cvae_gan"] + SAVE_ARGS) == 0
    return path


class TestSave:
    def test_save_writes_manifest_and_weights(self, cli_checkpoint):
        assert (cli_checkpoint / "manifest.json").is_file()
        assert (cli_checkpoint / "weights.npz").is_file()

    def test_save_records_the_step_budget(self, cli_checkpoint):
        manifest = json.loads((cli_checkpoint / "manifest.json").read_text())
        assert manifest["training"]["steps"] == 2

    def test_save_defaults_to_epochs_passes(self, tmp_path):
        """Without ``--steps``, 16 arrays at batch 4 make 4 steps a pass."""
        path = tmp_path / "passes"
        assert main(["save", str(path), "--arch", "cvae", "--preset", "tiny",
                     "--epochs", "2", "--arrays-per-pe", "8"]) == 0
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["training"]["epochs"] == 2
        assert manifest["training"]["steps"] == 8

    @pytest.mark.parametrize("flag", ["--epochs", "--steps"])
    def test_save_rejects_nonpositive_training_length(self, tmp_path, capsys,
                                                      flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["save", str(tmp_path / "zero"), flag, "0"])
        assert exit_info.value.code == 2
        assert "must be positive" in capsys.readouterr().err
        assert not (tmp_path / "zero").exists()

    def test_save_simulator(self, tmp_path, capsys):
        assert main(["save", str(tmp_path / "sim"), "--arch",
                     "simulator"]) == 0
        assert "simulator" in capsys.readouterr().out

    def test_save_baseline(self, tmp_path):
        path = tmp_path / "gaussian"
        assert main(["save", str(path), "--arch", "gaussian",
                     "--fit-iterations", "40"] + SAVE_ARGS) == 0
        assert (path / "fitted.json").is_file()
        assert main(["load", str(path), "--expect", "gaussian",
                     "--check-probe"]) == 0


class TestInspectVerifyLoad:
    def test_inspect_prints_manifest(self, cli_checkpoint, capsys):
        assert main(["inspect", str(cli_checkpoint)]) == 0
        out = capsys.readouterr().out
        assert "cvae_gan" in out and "format version: 1" in out

    def test_inspect_json_is_parseable(self, cli_checkpoint, capsys):
        assert main(["inspect", str(cli_checkpoint), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["registry_name"] == "cvae_gan"
        assert report["files"]["weights.npz"]["present"] is True

    def test_verify_ok(self, cli_checkpoint, capsys):
        assert main(["verify", str(cli_checkpoint)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_load_with_probe_is_bit_identical(self, cli_checkpoint, capsys):
        assert main(["load", str(cli_checkpoint), "--expect", "cvae_gan",
                     "--check-probe"]) == 0
        assert "bit-identical" in capsys.readouterr().out


class TestFailureExitCodes:
    def test_verify_corrupted_fails(self, cli_checkpoint, tmp_path, capsys):
        import shutil

        copy = tmp_path / "corrupt"
        shutil.copytree(cli_checkpoint, copy)
        weights = copy / "weights.npz"
        blob = bytearray(weights.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        weights.write_bytes(bytes(blob))
        assert main(["verify", str(copy)]) == 1
        assert "corrupted" in capsys.readouterr().err

    def test_load_wrong_expect_fails(self, cli_checkpoint, capsys):
        assert main(["load", str(cli_checkpoint), "--expect", "cgan"]) == 1
        assert "cvae_gan" in capsys.readouterr().err

    def test_inspect_non_checkpoint_fails(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path)]) == 1
        assert "not a checkpoint" in capsys.readouterr().err
