"""Channel-level checkpointing: any ChannelModel to/from a directory.

``save_channel`` dispatches on the adapter family — generative, baseline or
simulator — and records everything the matching ``load_channel`` needs to
rebuild the backend cold: config + weights, fitted parameter dicts, or just
the physical parameters.  A *probe* (the SHA-256 digest of a fixed-seed
``read_voltages`` draw taken from the live backend) is stored alongside, so
a loader can assert that the restored backend samples **bit-identically**
to the original without having the original at hand.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.artifacts.checkpoint import (
    geometry_from_dict,
    geometry_to_dict,
    load_baseline,
    load_model,
    params_from_dict,
    params_to_dict,
    provenance,
    save_baseline,
    save_model,
)
from repro.artifacts.errors import (
    CheckpointIntegrityError,
    ManifestError,
    RegistryMismatchError,
)
from repro.artifacts.manifest import CheckpointManifest
from repro.artifacts.store import read_manifest, verify_checkpoint, write_manifest

__all__ = ["save_channel", "load_channel", "checkpoint_registry_name",
           "compute_probe", "check_probe"]


def checkpoint_registry_name(directory: str | os.PathLike) -> str:
    """The registry name a checkpoint restores under (from its manifest).

    Lets consumers reference a checkpoint by path alone —
    :meth:`repro.exec.ChannelRef.from_checkpoint` uses it so plan contexts
    can name a zoo directory without repeating the backend name.
    """
    return read_manifest(Path(directory)).registry_name

#: Default probe geometry: a small stack sampled once at save and load.
_PROBE_SHAPE = (2, 16, 16)
_PROBE_SEED = 20230417


def compute_probe(channel, *, pe_cycles: float | None = None,
                  seed: int = _PROBE_SEED,
                  shape: tuple[int, int, int] = _PROBE_SHAPE
                  ) -> dict[str, Any]:
    """Behavioural fingerprint of a channel backend.

    Draws a fixed pseudo-random program-level stack, reads it through the
    backend with a seeded generator, and digests the float64 output bytes.
    Two backends produce the same probe digest iff their ``read_voltages``
    output is bit-identical for this (seed, condition).

    The draw is pinned to the ``"numpy"`` array backend regardless of which
    backend is active in the calling thread: probe digests are part of the
    checkpoint contract, so an accelerated backend (e.g. ``"cjit"``) active
    during ``save_channel`` or ``load_channel(run_probe=True)`` must not
    leak its own rounding into the recorded fingerprint.
    """
    from repro.flash.cell import NUM_LEVELS
    from repro.nn.backend import use_backend

    if pe_cycles is None:
        pe_cycles = _default_probe_pe(channel)
    levels_rng = np.random.default_rng(seed)
    levels = levels_rng.integers(0, NUM_LEVELS, size=shape)
    with use_backend("numpy"):
        voltages = channel.read_voltages(levels, pe_cycles,
                                         rng=np.random.default_rng(seed + 1))
    payload = np.ascontiguousarray(voltages, dtype=np.float64).tobytes()
    return {"seed": int(seed), "pe_cycles": float(pe_cycles),
            "shape": list(shape),
            "sha256": hashlib.sha256(payload).hexdigest()}


def _default_probe_pe(channel) -> float:
    """A P/E count every backend can serve (baselines: a fitted one)."""
    fitted = getattr(getattr(channel, "model", None), "fitted", None)
    if isinstance(fitted, dict) and fitted:
        return float(min(fitted))
    return float(channel.params.reference_pe_cycles)


def check_probe(channel, probe: Mapping[str, Any]) -> None:
    """Replay a stored probe; raise when the output is not bit-identical."""
    replayed = compute_probe(channel, pe_cycles=probe["pe_cycles"],
                             seed=probe["seed"],
                             shape=tuple(probe["shape"]))
    if replayed["sha256"] != probe["sha256"]:
        raise CheckpointIntegrityError(
            "restored backend is not bit-identical to the saved one: probe "
            f"digest {replayed['sha256']} != recorded {probe['sha256']}")


def save_channel(channel, directory: str | os.PathLike, *,
                 training: Mapping[str, Any] | None = None,
                 probe: bool = True) -> CheckpointManifest:
    """Persist any supported channel backend as a checkpoint directory.

    Accepts the protocol adapters (:class:`repro.channel.GenerativeChannel`,
    :class:`repro.channel.BaselineChannel`,
    :class:`repro.channel.SimulatorChannel`) as well as a bare
    :class:`repro.core.base.ConditionalGenerativeModel` or fitted
    :class:`repro.baselines.models.StatisticalChannelModel`.
    """
    from repro.baselines.models import StatisticalChannelModel
    from repro.channel.adapters import (
        BaselineChannel,
        GenerativeChannel,
        SimulatorChannel,
    )
    from repro.core.base import ConditionalGenerativeModel

    if isinstance(channel, GenerativeChannel):
        fingerprint = compute_probe(channel) if probe else None
        return save_model(channel.model, directory, params=channel.params,
                          geometry=channel.geometry, training=training,
                          probe=fingerprint)
    if isinstance(channel, ConditionalGenerativeModel):
        adapter = GenerativeChannel(channel)
        fingerprint = compute_probe(adapter) if probe else None
        return save_model(channel, directory, params=adapter.params,
                          training=training, probe=fingerprint)
    if isinstance(channel, BaselineChannel):
        fingerprint = compute_probe(channel) if probe else None
        return save_baseline(channel.model, directory,
                             geometry=channel.geometry,
                             adapter={"strict_pe": channel.strict_pe},
                             training=training, probe=fingerprint)
    if isinstance(channel, StatisticalChannelModel):
        adapter = BaselineChannel(channel)
        fingerprint = compute_probe(adapter) if probe else None
        return save_baseline(channel, directory, training=training,
                             probe=fingerprint)
    if isinstance(channel, SimulatorChannel):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        fingerprint = compute_probe(channel) if probe else None
        manifest = CheckpointManifest(
            kind="simulator", registry_name="simulator",
            params=params_to_dict(channel.params),
            geometry=geometry_to_dict(channel.geometry),
            adapter={"apply_ici": channel.apply_ici},
            training=provenance(training), probe=fingerprint)
        write_manifest(directory, manifest)
        return manifest
    raise TypeError(f"cannot checkpoint {type(channel).__name__}; supported: "
                    "GenerativeChannel, BaselineChannel, SimulatorChannel, "
                    "ConditionalGenerativeModel, StatisticalChannelModel")


def load_channel(directory: str | os.PathLike, *,
                 expected: str | None = None, verify: bool = True,
                 run_probe: bool = False, **kwargs):
    """Cold-start a channel backend from a checkpoint directory.

    Parameters
    ----------
    expected:
        Registry name the caller asked for (``build_channel(name,
        checkpoint=...)`` passes it through).  ``"generative"`` accepts any
        generative architecture; any other name must match the stored
        ``registry_name`` exactly, else :class:`RegistryMismatchError`.
    verify:
        Hash every payload file against the manifest before deserializing
        (:class:`CheckpointIntegrityError` on mismatch).
    run_probe:
        Additionally replay the stored sampling probe and require the
        restored backend to be bit-identical to the saved one.
    kwargs:
        Adapter construction options (``rng``, ``chunk_size``,
        ``strict_pe``, or a ``geometry`` override); the manifest's
        recorded adapter flags (``apply_ici``, ``strict_pe``) apply as
        defaults so the restored backend behaves like the saved one.
        ``params`` can only be overridden for simulator checkpoints —
        generative and baseline models are tied to the parameters they
        were trained/fitted under.
    """
    directory = Path(directory)
    manifest = verify_checkpoint(directory) if verify \
        else read_manifest(directory)
    _check_expected(manifest, expected, directory)

    kwargs.setdefault("geometry", geometry_from_dict(manifest.geometry))
    for flag, value in manifest.adapter.items():
        kwargs.setdefault(flag, value)
    if manifest.kind in ("generative", "baseline") \
            and kwargs.get("params") is not None:
        # The stored model was trained/fitted under the stored params (the
        # normalizers, histogram edges, clipping window); an adapter-level
        # override would silently change the sampling away from what was
        # saved — exactly the drift the zoo's bit-identity contract rules
        # out.  The stateless simulator may be re-parameterised freely.
        raise ValueError(
            f"{manifest.kind} checkpoints carry the FlashParameters the "
            "model was trained/fitted under; params cannot be overridden "
            "at load time")
    if manifest.kind == "generative":
        from repro.channel.adapters import GenerativeChannel

        model = load_model(directory, verify=False, manifest=manifest)
        kwargs.setdefault("params", params_from_dict(manifest.params))
        channel = GenerativeChannel(model, **kwargs)
    elif manifest.kind == "baseline":
        from repro.channel.adapters import BaselineChannel

        model = load_baseline(directory, verify=False, manifest=manifest)
        channel = BaselineChannel(model, **kwargs)
    elif manifest.kind == "simulator":
        from repro.channel.adapters import SimulatorChannel

        kwargs.setdefault("params", params_from_dict(manifest.params))
        channel = SimulatorChannel(**kwargs)
    else:  # pragma: no cover - from_dict already rejects unknown kinds
        raise ManifestError(f"unknown checkpoint kind {manifest.kind!r}")

    if run_probe:
        if manifest.probe is None:
            raise ManifestError("checkpoint has no sampling probe to check")
        check_probe(channel, manifest.probe)
    return channel


def _check_expected(manifest: CheckpointManifest, expected: str | None,
                    directory: Path) -> None:
    if expected is None:
        return
    if expected == "generative":
        if manifest.kind != "generative":
            raise RegistryMismatchError(
                f"checkpoint at {directory} stores a {manifest.kind!r} "
                "backend, not a generative model")
        return
    if manifest.registry_name != expected:
        raise RegistryMismatchError(
            f"checkpoint at {directory} stores backend "
            f"{manifest.registry_name!r} but {expected!r} was requested")
