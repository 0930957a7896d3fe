"""Command-line interface of the model zoo: ``python -m repro.artifacts``.

Four subcommands cover the checkpoint lifecycle:

* ``save OUT --arch cvae_gan --preset tiny --epochs 2 --seed 7`` — train (or
  fit) a reference backend against the simulated chip and checkpoint it;
* ``inspect PATH`` — print the manifest without touching payloads;
* ``verify PATH`` — re-hash every payload file against the manifest;
* ``load PATH [--check-probe]`` — cold-start the backend and, with
  ``--check-probe``, require its sampling to be bit-identical to the saved
  model.

All failures surface as typed :class:`repro.artifacts.CheckpointError`
subclasses and a non-zero exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Sequence

import numpy as np

from repro.artifacts.errors import CheckpointError
from repro.artifacts.registry_io import load_channel, save_channel
from repro.artifacts.store import inspect_checkpoint, verify_checkpoint

__all__ = ["main", "build_parser"]


def _generative_archs() -> tuple[str, ...]:
    from repro.core.zoo import MODEL_REGISTRY

    return tuple(sorted(MODEL_REGISTRY))


def _baseline_archs() -> tuple[str, ...]:
    from repro.baselines.models import BASELINE_MODELS

    return tuple(cls.family for cls in BASELINE_MODELS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.artifacts",
        description="On-disk model zoo: save, inspect, verify and load "
                    "checkpointed channel backends.")
    commands = parser.add_subparsers(dest="command", required=True)

    save = commands.add_parser(
        "save", help="train/fit a reference backend and checkpoint it")
    save.add_argument("path", help="checkpoint directory to create")
    save.add_argument("--arch", default="cvae_gan",
                      choices=_generative_archs() + _baseline_archs()
                      + ("simulator",),
                      help="backend to train/fit and save")
    save.add_argument("--preset", default="tiny", choices=("tiny", "small"),
                      help="model configuration preset")
    save.add_argument("--epochs", type=int, default=2,
                      help="training epochs (generative backends)")
    save.add_argument("--max-steps", type=int, default=None,
                      help="cap on optimisation steps per epoch")
    save.add_argument("--seed", type=int, default=0,
                      help="seed for data generation, init and training")
    save.add_argument("--dtype", default=None,
                      choices=("float32", "float64"),
                      help="working precision (default: preset's dtype)")
    save.add_argument("--arrays-per-pe", type=int, default=24,
                      help="training arrays per P/E read point")
    save.add_argument("--pe-cycles", type=float, nargs="+",
                      default=(4000.0, 10000.0),
                      help="P/E read points of the training data")
    save.add_argument("--fit-iterations", type=int, default=400,
                      help="Nelder-Mead iterations per level fit "
                           "(baseline backends)")

    inspect = commands.add_parser(
        "inspect", help="print a checkpoint's manifest")
    inspect.add_argument("path")
    inspect.add_argument("--json", action="store_true", dest="as_json",
                         help="machine-readable JSON output")

    verify = commands.add_parser(
        "verify", help="re-hash payload files against the manifest")
    verify.add_argument("path")

    load = commands.add_parser(
        "load", help="cold-start the backend from a checkpoint")
    load.add_argument("path")
    load.add_argument("--expect", default=None,
                      help="require this registry name (as "
                           "build_channel(name, checkpoint=...) does)")
    load.add_argument("--check-probe", action="store_true",
                      help="replay the stored probe and require "
                           "bit-identical sampling")
    return parser


# ---------------------------------------------------------------------- #
# save
# ---------------------------------------------------------------------- #
def _reference_config(preset: str, epochs: int, dtype: str | None):
    from repro.core.config import ModelConfig

    config = ModelConfig.tiny() if preset == "tiny" else ModelConfig.small()
    updates: dict = {"epochs": epochs}
    if dtype is not None:
        updates["dtype"] = dtype
    return dataclasses.replace(config, **updates)


def _training_dataset(params, array_size: int, pe_cycles, arrays_per_pe: int,
                      seed: int):
    from repro.channel.adapters import SimulatorChannel
    from repro.data.generation import generate_paired_dataset
    from repro.flash.geometry import BlockGeometry

    block = max(16, array_size)
    simulator = SimulatorChannel(params, geometry=BlockGeometry(block, block),
                                 rng=np.random.default_rng(seed))
    return generate_paired_dataset(simulator, pe_cycles=tuple(pe_cycles),
                                   arrays_per_pe=arrays_per_pe,
                                   array_size=array_size)


def _cmd_save(args) -> int:
    from repro.flash.params import FlashParameters

    params = FlashParameters()
    metadata = {"arch": args.arch, "preset": args.preset,
                "seed": args.seed, "pe_cycles": list(args.pe_cycles),
                "arrays_per_pe": args.arrays_per_pe}

    if args.arch == "simulator":
        from repro.channel.adapters import SimulatorChannel

        channel = SimulatorChannel(params,
                                   rng=np.random.default_rng(args.seed))
    elif args.arch in _baseline_archs():
        from repro.baselines.models import BASELINE_MODELS
        from repro.channel.adapters import BaselineChannel

        dataset = _training_dataset(params, 16, args.pe_cycles,
                                    args.arrays_per_pe, args.seed)
        family = {cls.family: cls for cls in BASELINE_MODELS}[args.arch]
        model = family(params).fit(dataset,
                                   max_iterations=args.fit_iterations)
        metadata["dataset"] = dataset.summary()
        channel = BaselineChannel(model,
                                  rng=np.random.default_rng(args.seed + 1))
    else:
        from repro.channel.adapters import GenerativeChannel
        from repro.core.trainer import Trainer
        from repro.core.zoo import build_model

        config = _reference_config(args.preset, args.epochs, args.dtype)
        dataset = _training_dataset(params, config.array_size, args.pe_cycles,
                                    args.arrays_per_pe, args.seed)
        model = build_model(args.arch, config,
                            rng=np.random.default_rng(args.seed + 1))
        trainer = Trainer(model, dataset, params=params,
                          rng=np.random.default_rng(args.seed + 2),
                          max_steps_per_epoch=args.max_steps)
        trainer.train()
        metadata.update(dataset=dataset.summary(), epochs=config.epochs,
                        dtype=config.dtype,
                        final_loss=trainer.history.mean("g_total", last_n=10)
                        if trainer.history.generator
                        and "g_total" in trainer.history.generator[-1]
                        else None)
        channel = GenerativeChannel(model, params=params,
                                    rng=np.random.default_rng(args.seed + 3))

    manifest = save_channel(channel, args.path, training=metadata)
    print(f"saved {manifest.kind} backend {manifest.registry_name!r} to "
          f"{args.path}")
    for name, entry in manifest.files.items():
        print(f"  {name}: {entry['size']} bytes, "
              f"sha256 {entry['sha256'][:12]}...")
    if manifest.probe is not None:
        print(f"  probe: seed {manifest.probe['seed']}, digest "
              f"{manifest.probe['sha256'][:12]}...")
    return 0


# ---------------------------------------------------------------------- #
# inspect / verify / load
# ---------------------------------------------------------------------- #
def _cmd_inspect(args) -> int:
    report = inspect_checkpoint(args.path)
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"checkpoint at {args.path}")
    print(f"  format version: {report['format_version']}")
    print(f"  kind: {report['kind']}  registry name: "
          f"{report['registry_name']}")
    if report.get("model_config"):
        config = report["model_config"]
        print(f"  model config: array {config.get('array_size')}, dtype "
              f"{config.get('dtype')}, latent {config.get('latent_dim')}")
    if report.get("baseline"):
        print(f"  baseline: {report['baseline']}")
    for key, value in (report.get("training") or {}).items():
        print(f"  training.{key}: {value}")
    for name, entry in report["files"].items():
        status = "present" if entry.get("present") else "MISSING"
        print(f"  file {name}: {status}, {entry.get('size')} bytes, sha256 "
              f"{entry['sha256'][:16]}...")
    if report.get("probe"):
        print(f"  probe: {report['probe']}")
    return 0


def _cmd_verify(args) -> int:
    manifest = verify_checkpoint(args.path)
    print(f"ok: {len(manifest.files)} payload file(s) match the manifest "
          f"({manifest.kind}/{manifest.registry_name})")
    return 0


def _cmd_load(args) -> int:
    channel = load_channel(args.path, expected=args.expect,
                           run_probe=args.check_probe)
    capabilities = channel.supports()
    print(f"loaded {type(channel).__name__} ({capabilities.name}) from "
          f"{args.path}")
    model = getattr(channel, "model", None)
    num_parameters = getattr(model, "num_parameters", None)
    if callable(num_parameters):
        print(f"  {num_parameters()} parameters, dtype {model.dtype}")
    if args.check_probe:
        print("  probe ok: sampling is bit-identical to the saved backend")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"save": _cmd_save, "inspect": _cmd_inspect,
                "verify": _cmd_verify, "load": _cmd_load}
    try:
        return handlers[args.command](args)
    except CheckpointError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
