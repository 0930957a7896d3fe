"""Adapters that put every voltage source behind the ChannelModel protocol.

Three families of backends exist in this repository:

* :class:`SimulatorChannel` — the physical TLC simulator
  (:class:`repro.flash.FlashChannel`), the stand-in for measured data;
* :class:`GenerativeChannel` — a trained conditional generative architecture
  (the paper's contribution), with chunked batched latent sampling so a stack
  of arrays costs one vectorized forward pass per chunk instead of a Python
  loop per array;
* :class:`BaselineChannel` — a fitted statistical baseline (Gaussian,
  Normal-Laplace, Student's t).

All three accept the same ``read_voltages`` call and report their modelling
scope through :meth:`ChannelModel.supports`, so constrained-coding, ECC and
evaluation studies select a backend by configuration string only.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.models import StatisticalChannelModel
from repro.channel.protocol import ChannelCapabilities, ChannelModel
from repro.core.base import ConditionalGenerativeModel
from repro.data.normalize import LevelNormalizer, PENormalizer, VoltageNormalizer
from repro.flash.channel import FlashChannel
from repro.flash.geometry import BlockGeometry
from repro.flash.params import FlashParameters

__all__ = ["SimulatorChannel", "GenerativeChannel", "BaselineChannel"]


class SimulatorChannel(ChannelModel):
    """The physical flash simulator behind the protocol.

    Parameters
    ----------
    simulator:
        An existing :class:`FlashChannel` to wrap; built from ``params`` /
        ``geometry`` / ``rng`` when omitted.
    apply_ici:
        Disable to obtain isolated-cell behaviour (baseline fitting).
    """

    def __init__(self, params: FlashParameters | None = None,
                 geometry: BlockGeometry | None = None,
                 rng: np.random.Generator | None = None,
                 simulator: FlashChannel | None = None,
                 apply_ici: bool = True, cache_size: int = 32):
        if simulator is not None:
            params = simulator.params
            geometry = simulator.geometry
            rng = simulator.rng
        super().__init__(params, geometry, rng, cache_size=cache_size)
        if simulator is None:
            simulator = FlashChannel(self.params, geometry=self.geometry,
                                     rng=self.rng)
        self.simulator = simulator
        self.apply_ici = apply_ici
        self._inject_program_errors = False

    def supports(self) -> ChannelCapabilities:
        return ChannelCapabilities(name="simulator", ici=self.apply_ici,
                                   program_errors=True, wear_monotone=True,
                                   batched=True)

    def _sample_voltages(self, program_levels, pe_cycles, rng):
        """Run the simulator with this call's generator threaded through."""
        sampler = self.simulator.sampler
        previous = (self.simulator.rng, sampler.rng)
        self.simulator.rng = sampler.rng = rng
        try:
            return self.simulator.read(
                program_levels, pe_cycles, apply_ici=self.apply_ici,
                apply_program_errors=self._inject_program_errors)
        finally:
            self.simulator.rng, sampler.rng = previous

    def _read_with_program_errors(self, program, pe_cycles,
                                  apply_program_errors, **kwargs):
        # Route through the one validated read path; the flag only tells
        # _sample_voltages to let the simulator mis-program cells first.
        self._inject_program_errors = bool(apply_program_errors)
        try:
            return self.read_voltages(program, pe_cycles, **kwargs)
        finally:
            self._inject_program_errors = False


def _tile_arrays(levels: np.ndarray, size: int
                 ) -> tuple[np.ndarray, tuple[bool, int, int, int]]:
    """Split ``(H, W)`` / ``(N, H, W)`` arrays into ``size``-square tiles."""
    squeeze = levels.ndim == 2
    stack = levels[None] if squeeze else levels
    count, height, width = stack.shape
    if height % size or width % size:
        raise ValueError(
            f"array shape {height}x{width} is not tileable by the model's "
            f"{size}x{size} window")
    rows, cols = height // size, width // size
    tiles = stack.reshape(count, rows, size, cols, size)
    tiles = tiles.transpose(0, 1, 3, 2, 4).reshape(count * rows * cols,
                                                   size, size)
    return tiles, (squeeze, count, rows, cols)


def _untile_arrays(tiles: np.ndarray, layout: tuple[bool, int, int, int],
                   size: int) -> np.ndarray:
    """Inverse of :func:`_tile_arrays`."""
    squeeze, count, rows, cols = layout
    stack = tiles.reshape(count, rows, cols, size, size)
    stack = stack.transpose(0, 1, 3, 2, 4).reshape(count, rows * size,
                                                   cols * size)
    return stack[0] if squeeze else stack


class GenerativeChannel(ChannelModel):
    """A trained conditional generative model behind the protocol.

    Arrays larger than the model's training window are tiled into
    non-overlapping model-size crops (the paper's data preparation), sampled
    in vectorized chunks, and stitched back, so the adapter accepts the same
    full-block workloads as the simulator.

    Parameters
    ----------
    model:
        A trained :class:`ConditionalGenerativeModel`.
    chunk_size:
        Number of model-size tiles per vectorized forward pass; larger
        chunks amortize the Python/layer overhead further at the cost of
        peak memory.
    """

    def __init__(self, model, params: FlashParameters | None = None,
                 geometry: BlockGeometry | None = None,
                 rng: np.random.Generator | None = None,
                 chunk_size: int = 64, cache_size: int = 32):
        if not isinstance(model, ConditionalGenerativeModel):
            raise TypeError("model must be a ConditionalGenerativeModel")
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        super().__init__(params, geometry, rng, cache_size=cache_size)
        self.model = model
        self.chunk_size = chunk_size
        self.level_normalizer = LevelNormalizer()
        self.voltage_normalizer = VoltageNormalizer(self.params)
        self.pe_normalizer = PENormalizer(self.params.reference_pe_cycles)

    @property
    def array_size(self) -> int:
        return self.model.config.array_size

    def supports(self) -> ChannelCapabilities:
        return ChannelCapabilities(name="generative", ici=True,
                                   batched=True)

    def _sample_tiles(self, tiles: np.ndarray, pe_cycles: float,
                      rng: np.random.Generator) -> np.ndarray:
        """One chunked, vectorized sampling pass over model-size tiles.

        The normalised tile stack is cast to the model's working dtype once
        here (float32 by default), so every chunked forward pass runs at
        that precision without per-chunk conversions; the physical-unit
        output below is float64 like every other channel backend.
        """
        normalized = self.level_normalizer.normalize(tiles)[:, None]
        normalized = normalized.astype(self.model.dtype, copy=False)
        pe_value = float(self.pe_normalizer.normalize(pe_cycles))
        outputs = []
        for start in range(0, len(normalized), self.chunk_size):
            chunk = normalized[start:start + self.chunk_size]
            pe_chunk = np.full(len(chunk), pe_value)
            generated = self.model.sample(chunk, pe_chunk, rng)
            outputs.append(generated[:, 0])
        stacked = outputs[0] if len(outputs) == 1 else np.concatenate(outputs)
        voltages = self.voltage_normalizer.denormalize(stacked)
        return np.clip(voltages, self.params.voltage_min,
                       self.params.voltage_max)

    def _pad_to_tile(self, levels: np.ndarray
                     ) -> tuple[np.ndarray, tuple[int, int]]:
        """Pad the spatial dimensions up to a multiple of the model window.

        Padding cells are erased (level 0); they are sampled alongside the
        payload and cropped away after stitching, so arbitrary array shapes
        — e.g. codeword rows from the ECC harness — go through the model.
        """
        height, width = levels.shape[-2], levels.shape[-1]
        size = self.array_size
        pad_h = (-height) % size
        pad_w = (-width) % size
        if pad_h == 0 and pad_w == 0:
            return levels, (height, width)
        pad = [(0, 0)] * (levels.ndim - 2) + [(0, pad_h), (0, pad_w)]
        return np.pad(levels, pad), (height, width)

    def _sample_voltages(self, program_levels, pe_cycles, rng):
        padded, (height, width) = self._pad_to_tile(program_levels)
        tiles, layout = _tile_arrays(padded, self.array_size)
        voltages = self._sample_tiles(tiles, pe_cycles, rng)
        stitched = _untile_arrays(voltages, layout, self.array_size)
        return stitched[..., :height, :width]

    def read_repeated(self, program_levels: np.ndarray, pe_cycles: float,
                      num_samples: int | None = None, *,
                      rng: np.random.Generator | None = None) -> np.ndarray:
        """Multiple stochastic reads, folded into one batched stream.

        The paper evaluates with 10 latent samples per program-level array.
        Instead of looping ``num_samples`` times over separate reads, the
        tiles are replicated into a single chunked batch, so the whole
        evaluation costs ``ceil(S * M / chunk_size)`` forward passes.
        Returns shape ``(num_samples, ...)``.
        """
        if num_samples is None:
            num_samples = self.model.config.samples_per_array
        if num_samples < 1:
            raise ValueError("num_samples must be positive")
        levels = self._check_levels(program_levels)
        generator = rng if rng is not None else self.rng
        padded, (height, width) = self._pad_to_tile(levels)
        tiles, layout = _tile_arrays(padded, self.array_size)
        repeated = np.tile(tiles, (num_samples, 1, 1))
        voltages = self._sample_tiles(repeated, pe_cycles, generator)
        per_sample = voltages.reshape(num_samples, len(tiles),
                                      self.array_size, self.array_size)
        return np.stack([_untile_arrays(sample, layout, self.array_size)
                         for sample in per_sample])[..., :height, :width]


class BaselineChannel(ChannelModel):
    """A fitted statistical baseline behind the protocol.

    Parameters
    ----------
    model:
        A :class:`StatisticalChannelModel` instance or subclass.  An
        unfitted model requires ``dataset``.
    dataset:
        Paired training data used to fit the model when it has no fits yet.
    strict_pe:
        When False (default), a query at an unfitted P/E count snaps to the
        nearest fitted one — statistical baselines only exist at the read
        points of the cycling experiment, while consumers such as the
        time-aware code selector sweep arbitrary cycle counts.
    """

    def __init__(self, model, dataset=None,
                 params: FlashParameters | None = None,
                 geometry: BlockGeometry | None = None,
                 rng: np.random.Generator | None = None,
                 strict_pe: bool = False, fit_iterations: int = 400,
                 cache_size: int = 32):
        if isinstance(model, type) and issubclass(model,
                                                  StatisticalChannelModel):
            model = model(params)
        if not isinstance(model, StatisticalChannelModel):
            raise TypeError("model must be a StatisticalChannelModel")
        params = params if params is not None else model.params
        super().__init__(params, geometry, rng, cache_size=cache_size)
        if dataset is not None and not model.fitted:
            model.fit(dataset, max_iterations=fit_iterations)
        if not model.fitted:
            raise ValueError("baseline model is not fitted; pass a fitted "
                             "model or a dataset to fit on")
        self.model = model
        self.strict_pe = strict_pe

    def supports(self) -> ChannelCapabilities:
        return ChannelCapabilities(name=self.model.family,
                                   wear_monotone=True, batched=True)

    def _resolve_pe(self, pe_cycles: float) -> float:
        fitted = sorted(self.model.fitted)
        if float(pe_cycles) in self.model.fitted:
            return float(pe_cycles)
        if self.strict_pe:
            raise ValueError(f"baseline not fitted at {pe_cycles} P/E cycles; "
                             f"available: {fitted}")
        return min(fitted, key=lambda pe: abs(pe - float(pe_cycles)))

    def _sample_voltages(self, program_levels, pe_cycles, rng):
        return self.model.sample(program_levels, self._resolve_pe(pe_cycles),
                                 rng=rng)
