"""The unified channel-model protocol.

Every source of read voltages in this repository — the physical simulator,
the trained conditional generative networks, and the fitted statistical
baselines — answers the same question: *given program levels and an operating
condition, what voltages come back?*  Before this module each source exposed
a different API, so every consumer (time-aware constrained coding, ECC
evaluation, the information-theoretic metrics, the figure drivers) carried
its own normalization and sampling plumbing.

:class:`ChannelModel` is the single abstraction they now share:

``read_voltages(levels, pe_cycles, *, retention_hours=0, read_disturbs=0,
rng=None)``
    Soft read voltages with the same shape as ``levels``, in physical units.
    Retention and read-disturb distortions are applied as post-channel
    temporal operators, so every backend supports the full operating space.
``supports()``
    A :class:`ChannelCapabilities` record: the backend's registry name,
    whether it models spatial ICI and whether it guarantees wear
    monotonicity, letting consumers and the conformance suite reason about
    backends generically.

The base class also provides the block helpers consumers need (random
blocks and paired-block datasets) and an LRU
:class:`repro.channel.cache.ConditionCache` for the per-condition artifacts
they compute, such as the LDPC campaign's seeded density table.  Density
tables and error rates live with their consumers, not on the channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.cache import ConditionCache
from repro.flash.cell import NUM_LEVELS
from repro.flash.geometry import BlockGeometry
from repro.flash.params import FlashParameters
from repro.flash.read_disturb import ReadDisturbModel
from repro.flash.retention import RetentionModel

__all__ = ["ChannelCapabilities", "ChannelModel"]


@dataclass(frozen=True)
class ChannelCapabilities:
    """What a channel backend actually models.

    Attributes
    ----------
    name:
        Registry name of the backend (``"simulator"``, ``"generative"``, ...).
    ici:
        Models spatial inter-cell interference (neighbour coupling).
    wear_monotone:
        The error rate is guaranteed to grow with the P/E cycle count.  True
        for the simulator and the fitted baselines; a generative backend only
        inherits this property from sufficient training, so it does not
        promise it.
    """

    name: str
    ici: bool = False
    wear_monotone: bool = False


class ChannelModel:
    """Base class of every channel backend (the protocol implementation).

    Sub-classes implement :meth:`_sample_voltages` (the backend-specific
    conditional sampler) and :meth:`supports`; everything else — temporal
    post-processing and the block helpers — is shared.  ``cache`` holds
    only what consumers store in it; the channel computes no artifacts.

    Parameters
    ----------
    params:
        Physical flash parameters (voltage window, wear law, ...).
    geometry:
        Block geometry used by :meth:`program_random_block`.
    rng:
        The single random generator threaded through every stochastic
        operation of this backend.  Pass a seeded generator for reproducible
        experiments; per-call ``rng`` arguments override it.  A read's
        choices (generator, program errors) travel as arguments, never as
        backend state, so threads may share one backend as long as each
        passes its own ``rng``.  A generative backend puts its model in
        eval mode once, at construction, and reads never switch it.
    """

    def __init__(self, params: FlashParameters | None = None,
                 geometry: BlockGeometry | None = None,
                 rng: np.random.Generator | None = None):
        self.params = params if params is not None else FlashParameters()
        self.geometry = geometry if geometry is not None else BlockGeometry()
        self.rng = rng if rng is not None else np.random.default_rng()
        self.retention_model = RetentionModel(self.params)
        self.read_disturb_model = ReadDisturbModel(self.params)
        self.cache = ConditionCache()

    # ------------------------------------------------------------------ #
    # Protocol surface
    # ------------------------------------------------------------------ #
    def supports(self) -> ChannelCapabilities:
        """Capability flags of this backend."""
        raise NotImplementedError

    def _sample_voltages(self, program_levels: np.ndarray, pe_cycles: float,
                         rng: np.random.Generator,
                         program_errors: bool) -> np.ndarray:
        """Backend-specific conditional voltage sampler (no temporal ops).

        ``program_errors`` asks for rare mis-programming before the read;
        the simulator honours it, the learned and fitted backends ignore it.
        """
        raise NotImplementedError

    def read_voltages(self, program_levels: np.ndarray, pe_cycles: float, *,
                      retention_hours: float = 0.0, read_disturbs: float = 0,
                      rng: np.random.Generator | None = None) -> np.ndarray:
        """Soft read voltages for an array of program levels.

        Parameters
        ----------
        program_levels:
            Integer array of program levels, shape ``(H, W)`` or
            ``(N, H, W)``.
        pe_cycles:
            P/E cycle count at which the block is read.
        retention_hours:
            Idle time between programming and this read; charge loss shifts
            the voltages downward and widens the distributions.
        read_disturbs:
            Number of reads the block sustained since programming; pass
            disturb pushes low levels upward.
        rng:
            Optional generator overriding the backend's own for this call.

        The three operating conditions must be finite and non-negative, else
        :class:`ValueError`.  Program levels of a non-integer dtype, bool
        included, raise :class:`TypeError` on every backend.
        """
        return self._read(program_levels, pe_cycles, False,
                          retention_hours=retention_hours,
                          read_disturbs=read_disturbs, rng=rng)

    def _read(self, program_levels: np.ndarray, pe_cycles: float,
              program_errors: bool, *, retention_hours: float,
              read_disturbs: float,
              rng: np.random.Generator | None) -> np.ndarray:
        """The one validated read path, with every choice an argument."""
        levels = self._check_levels(program_levels)
        self._check_condition("pe_cycles", pe_cycles)
        self._check_condition("retention_hours", retention_hours)
        self._check_condition("read_disturbs", read_disturbs)
        generator = rng if rng is not None else self.rng
        voltages = self._sample_voltages(levels, float(pe_cycles), generator,
                                         program_errors)
        if retention_hours > 0:
            voltages = self.retention_model.apply(
                voltages, levels, pe_cycles, retention_hours, rng=generator)
        if read_disturbs > 0:
            voltages = self.read_disturb_model.apply(
                voltages, levels, pe_cycles, read_disturbs, rng=generator)
        return voltages

    # ------------------------------------------------------------------ #
    # Block helpers (shared plumbing formerly duplicated in consumers)
    # ------------------------------------------------------------------ #
    def program_random_block(self, rng: np.random.Generator | None = None
                             ) -> np.ndarray:
        """Pseudo-random program levels for one block (uniform over levels)."""
        generator = rng if rng is not None else self.rng
        return generator.integers(0, NUM_LEVELS, size=self.geometry.shape)

    def paired_blocks(self, num_blocks: int, pe_cycles: float,
                      apply_program_errors: bool = True, *,
                      retention_hours: float = 0.0, read_disturbs: float = 0,
                      rng: np.random.Generator | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
        """``num_blocks`` paired (PL, VL) blocks at one operating condition.

        ``apply_program_errors`` is honoured by the simulator and ignored
        otherwise (a learned or fitted model absorbs mis-programming into
        the composite distribution).
        ``rng`` overrides the backend's generator for this call — the hook
        the sharded execution engine uses to anchor randomness per unit.
        """
        if num_blocks < 1:
            raise ValueError("num_blocks must be positive")
        generator = rng if rng is not None else self.rng
        program = np.stack([self.program_random_block(rng=generator)
                            for _ in range(num_blocks)])
        voltages = self._read_with_program_errors(
            program, pe_cycles, apply_program_errors,
            retention_hours=retention_hours, read_disturbs=read_disturbs,
            rng=rng)
        return program, voltages

    def _read_with_program_errors(self, program: np.ndarray, pe_cycles: float,
                                  apply_program_errors: bool,
                                  **kwargs) -> np.ndarray:
        """Hook for backends that can inject program errors before the read.

        Backends without program errors read through the public
        :meth:`read_voltages`.
        """
        return self.read_voltages(program, pe_cycles, **kwargs)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def _check_levels(self, program_levels: np.ndarray) -> np.ndarray:
        levels = np.asarray(program_levels)
        if levels.dtype.kind not in "iu":
            raise TypeError(
                f"program levels must be integers, got {levels.dtype}")
        if levels.ndim < 2:
            raise ValueError("program_levels must have at least 2 dimensions")
        if levels.size and (levels.min() < 0 or levels.max() >= NUM_LEVELS):
            raise ValueError(f"program levels must lie in [0, {NUM_LEVELS})")
        return levels

    @staticmethod
    def _check_condition(name: str, value: float) -> None:
        """Reject an operating condition that is negative, NaN or infinite."""
        if not np.isfinite(value) or value < 0:
            raise ValueError(f"{name} must be finite and non-negative")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.supports().name!r})"
