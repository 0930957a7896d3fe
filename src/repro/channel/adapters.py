"""Adapters that put every voltage source behind the ChannelModel protocol.

Three families of backends exist in this repository:

* :class:`SimulatorChannel` — the physical TLC simulator, the stand-in for
  measured data: it owns the block geometry and the generator and reads
  through the stateless :class:`repro.flash.FlashChannel`;
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
from repro.data.normalize import VoltageNormalizer
from repro.flash.channel import FlashChannel
from repro.flash.geometry import BlockGeometry
from repro.flash.params import FlashParameters

__all__ = ["SimulatorChannel", "GenerativeChannel", "BaselineChannel"]


class SimulatorChannel(ChannelModel):
    """The physical flash simulator behind the protocol.

    The only simulator consumers construct: it owns the block geometry and
    the generator, and every read hands that generator (or the per-call
    ``rng``) to the stateless physics read, :meth:`FlashChannel.read`.

    Parameters
    ----------
    apply_ici:
        Disable to obtain isolated-cell behaviour (baseline fitting).
    """

    def __init__(self, params: FlashParameters | None = None,
                 geometry: BlockGeometry | None = None,
                 rng: np.random.Generator | None = None,
                 apply_ici: bool = True):
        super().__init__(params, geometry, rng)
        self.simulator = FlashChannel(self.params)
        self.apply_ici = apply_ici

    def supports(self) -> ChannelCapabilities:
        return ChannelCapabilities(name="simulator", ici=self.apply_ici,
                                   wear_monotone=True)

    def _sample_voltages(self, program_levels, pe_cycles, rng,
                         program_errors):
        return self.simulator.read(
            program_levels, pe_cycles, rng=rng, apply_ici=self.apply_ici,
            apply_program_errors=program_errors)

    def _read_with_program_errors(self, program, pe_cycles,
                                  apply_program_errors, **kwargs):
        return self._read(program, pe_cycles, bool(apply_program_errors),
                          **kwargs)


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
    full-block workloads as the simulator.  Each chunk is one forward of the
    generator's graph-free route
    (:meth:`~repro.core.generator.UNetGenerator.forward_data`); the chunks'
    outputs are written once into one float64 array, denormalized and
    clipped in place, and untiled with one reshape.  An empty level array
    reads back an empty array of its shape.

    Parameters
    ----------
    model:
        A trained :class:`ConditionalGenerativeModel`.  The adapter puts it
        in eval mode once, here, so threads reading one channel never switch
        the shared model's mode.
    chunk_size:
        Number of model-size tiles per vectorized forward pass; larger
        chunks amortize the Python/layer overhead further at the cost of
        peak memory.
    """

    def __init__(self, model, params: FlashParameters | None = None,
                 geometry: BlockGeometry | None = None,
                 rng: np.random.Generator | None = None,
                 chunk_size: int = 64):
        if not isinstance(model, ConditionalGenerativeModel):
            raise TypeError("model must be a ConditionalGenerativeModel")
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        super().__init__(params, geometry, rng)
        model.eval()
        self.model = model
        self.chunk_size = chunk_size
        self.voltage_normalizer = VoltageNormalizer(self.params)

    @property
    def array_size(self) -> int:
        return self.model.config.array_size

    def supports(self) -> ChannelCapabilities:
        return ChannelCapabilities(name="generative", ici=True)

    def _sample_tiles(self, tiles: np.ndarray, pe_cycles: float,
                      rng: np.random.Generator) -> np.ndarray:
        """One chunked, vectorized sampling pass over model-size tiles.

        The model encodes each chunk of integer tiles at its working dtype
        (float32 by default) and samples it through the generator's
        graph-free route.  Each chunk's output is written once into the
        float64 result, which is then denormalized and clipped in place:
        physical units in float64, like every other channel backend.
        """
        pe_value = float(self.params.normalized_wear(pe_cycles))
        voltages = np.empty(tiles.shape, dtype=np.float64)
        for start in range(0, len(tiles), self.chunk_size):
            chunk = tiles[start:start + self.chunk_size]
            voltages[start:start + len(chunk)] = self.model.sample(
                chunk, np.full(len(chunk), pe_value), rng)
        self.voltage_normalizer.denormalize(voltages, out=voltages)
        return np.clip(voltages, self.params.voltage_min,
                       self.params.voltage_max, out=voltages)

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
        padded = np.zeros((*levels.shape[:-2], height + pad_h, width + pad_w),
                          dtype=levels.dtype)
        padded[..., :height, :width] = levels
        return padded, (height, width)

    def _sample_voltages(self, program_levels, pe_cycles, rng,
                         program_errors):
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
        arrays are replicated and tiled into a single chunked batch, so the
        whole evaluation costs ``ceil(S * M / chunk_size)`` forward passes
        and one untiling reshape.  Returns shape ``(num_samples, ...)``.
        """
        if num_samples is None:
            num_samples = self.model.config.samples_per_array
        if num_samples < 1:
            raise ValueError("num_samples must be positive")
        levels = self._check_levels(program_levels)
        self._check_condition("pe_cycles", pe_cycles)
        generator = rng if rng is not None else self.rng
        padded, (height, width) = self._pad_to_tile(levels)
        stack = padded if padded.ndim == 3 else padded[None]
        tiles, layout = _tile_arrays(np.tile(stack, (num_samples, 1, 1)),
                                     self.array_size)
        voltages = self._sample_tiles(tiles, pe_cycles, generator)
        stitched = _untile_arrays(voltages, layout, self.array_size)
        return stitched.reshape(num_samples, *padded.shape)[..., :height,
                                                            :width]


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
                 strict_pe: bool = False, fit_iterations: int = 400):
        if isinstance(model, type) and issubclass(model,
                                                  StatisticalChannelModel):
            model = model(params)
        if not isinstance(model, StatisticalChannelModel):
            raise TypeError("model must be a StatisticalChannelModel")
        params = params if params is not None else model.params
        super().__init__(params, geometry, rng)
        if dataset is not None and not model.fitted:
            model.fit(dataset, max_iterations=fit_iterations)
        if not model.fitted:
            raise ValueError("baseline model is not fitted; pass a fitted "
                             "model or a dataset to fit on")
        self.model = model
        self.strict_pe = strict_pe

    def supports(self) -> ChannelCapabilities:
        return ChannelCapabilities(name=self.model.family,
                                   wear_monotone=True)

    def _resolve_pe(self, pe_cycles: float) -> float:
        fitted = sorted(self.model.fitted)
        if float(pe_cycles) in self.model.fitted:
            return float(pe_cycles)
        if self.strict_pe:
            raise ValueError(f"baseline not fitted at {pe_cycles} P/E cycles; "
                             f"available: {fitted}")
        return min(fitted, key=lambda pe: abs(pe - float(pe_cycles)))

    def _sample_voltages(self, program_levels, pe_cycles, rng,
                         program_errors):
        return self.model.sample(program_levels, self._resolve_pe(pe_cycles),
                                 rng=rng)
