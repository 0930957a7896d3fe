"""TLC NAND flash memory channel simulator.

This package plays the role of the commercial 1X-nm TLC chip and the
program/erase cycling test platform used in the paper: it produces paired
(program level, read voltage, P/E cycle) data with the spatio-temporal
characteristics the paper reports — per-level voltage distributions that widen
and develop heavier tails as the device wears, and inter-cell interference
(ICI) from word-line and bit-line neighbours with the bit-line direction
dominating.

It models that one chip: eight levels under the Gray map of Fig. 1
(:data:`GRAY_MAP`, converted by :func:`levels_to_pages` and
:func:`pages_to_levels`), one soft read (:meth:`FlashChannel.read`, a
stateless physics read that takes its generator as an argument) and one
hard read (:func:`hard_read` against :func:`default_read_thresholds`).
Retention, read disturb, threshold calibration, page error rates and the
endurance sweep build on those.

The "measured data" referenced throughout :mod:`repro.experiments` is data
drawn from :class:`repro.channel.SimulatorChannel`, which owns the block
geometry and the generator and reads through :class:`FlashChannel`.  This
package imports no other ``repro`` package: the cycling experiment and the
endurance sweep take that channel as an argument.
"""

from repro.flash.cell import (
    NUM_LEVELS,
    ERASED_LEVEL,
    BITS_PER_CELL,
    LOWER_PAGE,
    MIDDLE_PAGE,
    UPPER_PAGE,
    GRAY_MAP,
    levels_to_pages,
    pages_to_levels,
)
from repro.flash.geometry import BlockGeometry
from repro.flash.params import FlashParameters
from repro.flash.wear import WearModel
from repro.flash.ici import ICIModel
from repro.flash.voltage import VoltageSampler
from repro.flash.thresholds import default_read_thresholds, hard_read
from repro.flash.channel import FlashChannel
from repro.flash.patterns import (
    pattern_label,
    count_error_patterns,
    pattern_relative_frequencies,
    top_error_pattern_counts,
    TOP_ERROR_PATTERNS,
    WORDLINE,
    BITLINE,
)
from repro.flash.errors import (
    level_error_rate,
    per_level_error_counts,
    per_level_error_rates,
)
from repro.flash.cycling import PECyclingExperiment, CyclingRecord
from repro.flash.retention import RetentionModel, RetentionParameters
from repro.flash.read_disturb import ReadDisturbModel, ReadDisturbParameters
from repro.flash.calibration import (
    CalibrationResult,
    calibrate_thresholds,
    optimal_threshold_between,
    optimal_thresholds_from_pdfs,
    threshold_sweep,
)
from repro.flash.pages import (
    PAGE_NAMES,
    PageErrorReport,
    page_bit_error_rates,
    page_bit_errors,
    program_pages,
)
from repro.flash.endurance import (
    EndurancePoint,
    EnduranceSweep,
    estimate_endurance_limit,
)

__all__ = [
    "NUM_LEVELS",
    "ERASED_LEVEL",
    "BITS_PER_CELL",
    "LOWER_PAGE",
    "MIDDLE_PAGE",
    "UPPER_PAGE",
    "GRAY_MAP",
    "levels_to_pages",
    "pages_to_levels",
    "BlockGeometry",
    "FlashParameters",
    "WearModel",
    "ICIModel",
    "VoltageSampler",
    "default_read_thresholds",
    "hard_read",
    "FlashChannel",
    "pattern_label",
    "count_error_patterns",
    "pattern_relative_frequencies",
    "top_error_pattern_counts",
    "TOP_ERROR_PATTERNS",
    "WORDLINE",
    "BITLINE",
    "level_error_rate",
    "per_level_error_counts",
    "per_level_error_rates",
    "PECyclingExperiment",
    "CyclingRecord",
    "RetentionModel",
    "RetentionParameters",
    "ReadDisturbModel",
    "ReadDisturbParameters",
    "CalibrationResult",
    "calibrate_thresholds",
    "optimal_threshold_between",
    "optimal_thresholds_from_pdfs",
    "threshold_sweep",
    "PAGE_NAMES",
    "PageErrorReport",
    "page_bit_error_rates",
    "page_bit_errors",
    "program_pages",
    "EndurancePoint",
    "EnduranceSweep",
    "estimate_endurance_limit",
]
