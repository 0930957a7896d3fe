"""Log-likelihood ratios (LLRs) from soft read voltages.

Soft-decision decoding needs, for every stored bit, the log ratio
``log P(v | bit = 0) / P(v | bit = 1)``.  For a TLC cell the bit of a given
logical page is determined by the program level through the Gray map, so the
per-bit likelihood is a sum of per-level likelihoods over the levels whose
mapping stores a 0 (respectively 1) in that page.

The per-level conditional densities can come from anywhere that models
``P(VL | PL, P/E)``: the analytic simulator reference, a histogram estimated
from measured data, or — the point of the paper — a histogram estimated from
data regenerated by the conditional generative model.  This is precisely the
"channel model as a design tool" workflow: the model supplies the soft
information an LDPC decoder consumes without re-measuring silicon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.flash.cell import GRAY_MAP, NUM_LEVELS
from repro.flash.params import FlashParameters

__all__ = [
    "LevelDensityTable",
    "densities_from_samples",
    "densities_from_channel",
    "page_llrs",
]

#: Densities are floored at this value to keep the LLRs finite.
_DENSITY_FLOOR = 1e-12

#: Histogram bins of every density table.
_NUM_BINS = 128


@dataclass
class LevelDensityTable:
    """Per-level conditional voltage densities on a shared grid.

    Attributes
    ----------
    grid:
        Strictly increasing voltage grid (bin centres).
    densities:
        Array of shape ``(NUM_LEVELS, len(grid))``; row ``l`` approximates
        ``P(VL | PL = l)`` at the grid points.
    """

    grid: np.ndarray
    densities: np.ndarray
    #: :meth:`bin_llrs` results by ``(page, priors, clip)``.
    _bin_llrs: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.densities = np.asarray(self.densities, dtype=float)
        if self.grid.ndim != 1 or np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be 1-D and strictly increasing")
        if self.densities.shape != (NUM_LEVELS, self.grid.size):
            raise ValueError("densities must have shape "
                             f"({NUM_LEVELS}, {self.grid.size})")
        if np.any(self.densities < 0):
            raise ValueError("densities must be non-negative")

    def _nearest(self, voltages: np.ndarray) -> np.ndarray:
        """Index of the grid point nearest each voltage (ties go right)."""
        voltages = np.asarray(voltages, dtype=float)
        indices = np.clip(np.searchsorted(self.grid, voltages),
                          0, self.grid.size - 1)
        # searchsorted returns the right edge; pick the closer of the two
        # neighbouring grid points.
        left = np.clip(indices - 1, 0, self.grid.size - 1)
        use_left = (np.abs(self.grid[left] - voltages)
                    < np.abs(self.grid[indices] - voltages))
        return np.where(use_left, left, indices)

    def bin_llrs(self, page: int, priors: np.ndarray,
                 clip: float) -> np.ndarray:
        """The LLR of ``page`` at each grid point (see :func:`page_llrs`),
        computed once per ``(page, priors, clip)``.

        A cell's LLR depends on its voltage only through the nearest grid
        point, so :func:`page_llrs` reads it from this vector.
        """
        key = (page, priors.tobytes(), float(clip))
        llrs = self._bin_llrs.get(key)
        if llrs is None:
            zero_levels, one_levels = _page_bit_partition(page)
            densities = np.maximum(self.densities, _DENSITY_FLOOR)
            numerator = np.zeros(self.grid.size)
            denominator = np.zeros(self.grid.size)
            for level in zero_levels:
                numerator += priors[level] * densities[level]
            for level in one_levels:
                denominator += priors[level] * densities[level]
            llrs = np.clip(np.log(np.maximum(numerator, _DENSITY_FLOOR))
                           - np.log(np.maximum(denominator, _DENSITY_FLOOR)),
                           -clip, clip)
            llrs.flags.writeable = False
            self._bin_llrs[key] = llrs
        return llrs


def densities_from_samples(program_levels: np.ndarray, voltages: np.ndarray,
                           params: FlashParameters | None = None
                           ) -> LevelDensityTable:
    """Histogram-estimated per-level densities from (PL, VL) samples, on 128
    bins over the voltage window of ``params`` (default parameters when
    omitted).

    The samples may be measured data or data produced by a generative channel
    model; the resulting table feeds :func:`page_llrs`.
    """
    levels = np.asarray(program_levels).ravel()
    volts = np.asarray(voltages, dtype=float).ravel()
    if levels.shape != volts.shape:
        raise ValueError("program_levels and voltages must share a shape")
    parameters = params if params is not None else FlashParameters()

    edges = np.linspace(parameters.voltage_min, parameters.voltage_max,
                        _NUM_BINS + 1)
    centres = (edges[:-1] + edges[1:]) / 2
    densities = np.zeros((NUM_LEVELS, _NUM_BINS))
    for level in range(NUM_LEVELS):
        selected = volts[levels == level]
        if selected.size == 0:
            continue
        histogram, _ = np.histogram(selected, bins=edges, density=True)
        densities[level] = histogram
    return LevelDensityTable(grid=centres, densities=densities)


def densities_from_channel(channel, pe_cycles: float, num_blocks: int = 4,
                           *, rng: np.random.Generator | None = None
                           ) -> LevelDensityTable:
    """Estimate the density table by sampling a channel backend.

    ``channel`` is a :class:`repro.channel.ChannelModel`: its
    ``paired_blocks`` draws ``num_blocks`` blocks (from ``rng`` when given,
    else from the backend's own generator) and its ``params`` set the
    voltage window of the 128-bin table.
    """
    program, voltages = channel.paired_blocks(num_blocks, pe_cycles, rng=rng)
    return densities_from_samples(program, voltages, params=channel.params)


def _page_bit_partition(page: int) -> tuple[np.ndarray, np.ndarray]:
    """Levels storing a 0 and levels storing a 1 in the given page."""
    zero_levels = np.array([level for level in range(NUM_LEVELS)
                            if GRAY_MAP[level][page] == 0])
    one_levels = np.array([level for level in range(NUM_LEVELS)
                           if GRAY_MAP[level][page] == 1])
    return zero_levels, one_levels


def page_llrs(voltages: np.ndarray, page: int, table: LevelDensityTable,
              priors: np.ndarray | None = None,
              clip: float = 30.0) -> np.ndarray:
    """Per-cell LLRs of one logical page from soft voltages.

    Parameters
    ----------
    voltages:
        Soft read voltages (any shape).
    page:
        Page index (0 = lower, 1 = middle, 2 = upper).
    table:
        Per-level density table (measured or model-generated).
    priors:
        Optional per-level priors; defaults to uniform (scrambled data).
    clip:
        Symmetric clip applied to the returned LLRs.

    Returns
    -------
    numpy.ndarray
        Array with the shape of ``voltages``; positive values favour bit 0.

    A cell's LLR is ``log(sum of prior * density over the levels storing 0)
    - log(the same over the levels storing 1)``, each density read at the
    grid point nearest the cell's voltage and floored at 1e-12, then
    clipped; the table computes it once per grid point
    (:meth:`LevelDensityTable.bin_llrs`).
    """
    if page not in (0, 1, 2):
        raise ValueError("page must be 0 (lower), 1 (middle) or 2 (upper)")
    if clip <= 0:
        raise ValueError("clip must be positive")
    volts = np.asarray(voltages, dtype=float)
    if priors is None:
        priors = np.full(NUM_LEVELS, 1.0 / NUM_LEVELS)
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (NUM_LEVELS,) or np.any(priors < 0):
        raise ValueError("priors must be 8 non-negative weights")

    return table.bin_llrs(page, priors, clip)[table._nearest(volts)]
