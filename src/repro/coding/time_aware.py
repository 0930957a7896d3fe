"""Time-aware constrained-code selection.

Section II-B of the paper argues that an accurate model of how the WL/BL
pattern errors depend on the P/E cycle count "can be a valuable tool to help
researchers design efficient, time-aware constrained codes": early in life a
weak (cheap) constraint suffices, while a heavily cycled block needs a
stronger (more expensive) one.  This module implements that workflow on top
of any channel model — the simulator or the trained generative network:

1. for each candidate constraint strength (the ``high_level`` threshold of
   :class:`repro.coding.constrained.ICIConstrainedCode`), measure the level
   error rate it achieves at a given P/E count, using data produced by the
   channel model;
2. compute the rate penalty of the constraint from its Shannon capacity;
3. select, per P/E count, the cheapest constraint meeting an error-rate
   target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel import ChannelModel, ConditionCache, resolve_channel
from repro.coding.capacity import rate_penalty
from repro.coding.constrained import ICIConstrainedCode
from repro.exec import stable_seed, unit_rng
from repro.flash.cell import ERASED_LEVEL
from repro.flash.errors import level_error_rate, per_level_error_rates

__all__ = [
    "ERROR_METRICS",
    "ConstraintOperatingPoint",
    "TimeAwareCodeSelector",
    "constraint_tradeoff_curve",
]

#: Error metrics understood by the selection machinery.
#:
#: ``"level"`` is the overall level error rate (every cell counts); the ICI
#: constraint only addresses the erased-victim portion of it, so this metric
#: mixes in errors the code cannot influence.  ``"erased"`` is the error rate
#: of cells programmed to the erased level — the victim population of the
#: high-low-high patterns and the quantity Figs. 2 and 6 of the paper analyse.
ERROR_METRICS: tuple[str, ...] = ("level", "erased")


@dataclass
class ConstraintOperatingPoint:
    """Error rate and rate penalty of one constraint at one P/E count."""

    pe_cycles: float
    high_level: int | None
    error_rate: float
    rate_penalty: float

    @property
    def is_unconstrained(self) -> bool:
        return self.high_level is None


def _block_error_rate(channel, code, pe_cycles: float, metric: str,
                      rng: np.random.Generator) -> float:
    """Error rate of one (optionally constrained) random block, hard-read at
    the channel's own thresholds."""
    levels = channel.program_random_block(rng=rng)
    if code is not None:
        levels, _ = code.encode(levels)
    voltages = channel.read_voltages(levels, pe_cycles, rng=rng)
    if metric == "level":
        return level_error_rate(levels, voltages, params=channel.params)
    return per_level_error_rates(levels, voltages,
                                 params=channel.params)[ERASED_LEVEL]


def _measure_error_rate(channel: ChannelModel, pe_cycles: float,
                        code: ICIConstrainedCode | None, num_blocks: int,
                        metric: str = "level", seed: int = 0) -> float:
    """Average error rate of (optionally constrained) random blocks.

    Block ``i`` draws from :func:`repro.exec.unit_rng`'s generator ``i`` of
    a seed that mixes in the P/E count but *not* the constraint, so every
    constraint strength at one condition is measured on the same random
    blocks — common random numbers, which makes the tradeoff comparison
    paired and low-variance.  The mean is a left-to-right sum scaled by
    ``1 / num_blocks``.
    """
    if metric not in ERROR_METRICS:
        raise ValueError(f"metric must be one of {ERROR_METRICS}")
    pe_cycles = float(pe_cycles)
    entropy = stable_seed(seed, pe_cycles)
    rates = [_block_error_rate(channel, code, pe_cycles, metric,
                               unit_rng(entropy, index))
             for index in range(num_blocks)]
    total = rates[0]
    for rate in rates[1:]:
        total += rate
    return float(total * (1.0 / num_blocks))


def constraint_tradeoff_curve(channel, pe_cycles: float,
                              high_levels: tuple[int, ...] = (5, 6, 7),
                              num_blocks: int = 6,
                              metric: str = "level",
                              seed: int | None = None
                              ) -> list[ConstraintOperatingPoint]:
    """Error rate versus rate penalty of each candidate constraint.

    ``channel`` is any registered backend name or channel model (see
    :func:`repro.channel.resolve_channel`) — the simulator, a trained
    generative network and the fitted baselines all qualify.  The first
    entry of the returned list is always the unconstrained baseline (no
    forbidden patterns, zero rate penalty).  Reads are hard-decided at the
    channel's own thresholds (the midpoints of ``channel.params``' level
    means).  ``metric`` selects what "error rate" means (see
    :data:`ERROR_METRICS`); use ``"erased"`` to study the victim population
    the constraint actually protects.  ``seed`` anchors the Monte-Carlo
    randomness (drawn from the channel's generator when omitted).
    """
    if num_blocks < 1:
        raise ValueError("num_blocks must be positive")
    channel = resolve_channel(channel)
    if seed is None:
        seed = int(channel.rng.integers(0, 2 ** 31))
    points = [ConstraintOperatingPoint(
        pe_cycles=float(pe_cycles), high_level=None,
        error_rate=_measure_error_rate(channel, pe_cycles, None, num_blocks,
                                       metric, seed=seed),
        rate_penalty=0.0)]
    for high_level in high_levels:
        code = ICIConstrainedCode(high_level=high_level)
        points.append(ConstraintOperatingPoint(
            pe_cycles=float(pe_cycles), high_level=int(high_level),
            error_rate=_measure_error_rate(channel, pe_cycles, code,
                                           num_blocks, metric, seed=seed),
            rate_penalty=rate_penalty(high_level)))
    return points


@dataclass
class TimeAwareCodeSelector:
    """Pick the cheapest constraint meeting an error-rate target per P/E count.

    Parameters
    ----------
    channel:
        Any channel backend: a registered name (``"simulator"``,
        ``"cvae_gan"``, ...), a :class:`repro.channel.ChannelModel`, a
        trained generative or fitted statistical model (wrapped in its
        adapter), or a :class:`repro.exec.ChannelRef`.
    error_rate_target:
        Maximum acceptable error rate, hard-read at the channel's own
        thresholds.
    high_levels:
        Candidate constraint strengths, ordered from weakest (cheapest) to
        strongest; a smaller ``high_level`` forbids more patterns.
    num_blocks:
        Blocks sampled per (constraint, P/E) measurement.
    metric:
        Error metric the target applies to: ``"level"`` (overall level error
        rate) or ``"erased"`` (error rate of erased-victim cells, the
        population the constraint protects).
    seed:
        Root seed of every measurement.  Each P/E count derives its own
        stream from it, and every constraint strength at one P/E count is
        measured on the *same* random blocks (common random numbers — see
        :func:`_measure_error_rate`), so measurements are reproducible,
        independent of query order, and paired across constraints.
    """

    channel: object
    error_rate_target: float
    high_levels: tuple[int, ...] = (7, 6, 5)
    num_blocks: int = 6
    metric: str = "level"
    seed: int = 0
    # Generous capacity: a schedule sweep touches every (P/E, constraint)
    # pair and must never re-measure a point it already compared against.
    _cache: ConditionCache = field(
        default_factory=lambda: ConditionCache(maxsize=4096), repr=False)

    def __post_init__(self):
        if self.error_rate_target <= 0:
            raise ValueError("error_rate_target must be positive")
        if not self.high_levels:
            raise ValueError("high_levels must not be empty")
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be positive")
        if self.metric not in ERROR_METRICS:
            raise ValueError(f"metric must be one of {ERROR_METRICS}")
        self.channel = resolve_channel(self.channel)

    def _error_rate(self, pe_cycles: float, high_level: int | None) -> float:
        code = None if high_level is None \
            else ICIConstrainedCode(high_level=high_level)
        return self._cache.get_or_compute(
            (float(pe_cycles), high_level),
            lambda: _measure_error_rate(self.channel, pe_cycles, code,
                                        self.num_blocks, self.metric,
                                        seed=self.seed))

    def select(self, pe_cycles: float) -> ConstraintOperatingPoint:
        """Cheapest operating point meeting the target at ``pe_cycles``.

        Candidates are evaluated from the unconstrained baseline through the
        constraint strengths in the order given (weakest first).  If nothing
        meets the target the strongest constraint is returned, so callers can
        detect the shortfall by comparing ``error_rate`` to the target.
        """
        candidates: list[int | None] = [None, *self.high_levels]
        chosen = candidates[-1]
        for candidate in candidates:
            if self._error_rate(pe_cycles, candidate) <= self.error_rate_target:
                chosen = candidate
                break
        error_rate = self._error_rate(pe_cycles, chosen)
        penalty = 0.0 if chosen is None else rate_penalty(chosen)
        return ConstraintOperatingPoint(pe_cycles=float(pe_cycles),
                                        high_level=chosen,
                                        error_rate=error_rate,
                                        rate_penalty=penalty)

    def schedule(self, pe_points: tuple[float, ...]
                 ) -> list[ConstraintOperatingPoint]:
        """The selected operating point at every requested P/E count."""
        if not pe_points:
            raise ValueError("pe_points must not be empty")
        return [self.select(pe_cycles) for pe_cycles in pe_points]
