"""Evaluation metrics for flash channel models.

The paper evaluates its generative model with two families of metrics
(Section IV): the conditional read-voltage distributions (estimated PDFs,
level error counts against fixed read thresholds, total variation distance)
and the spatial ICI statistics (relative frequencies of the neighbour
patterns of erroneous level-0 cells, in the WL and BL directions).

Level errors have one counting route, :mod:`repro.flash.errors`; Fig. 5
stacks its ``per_level_error_counts(...)[1:]`` for the measured data and for
every model, the fitted baselines included.
"""

from repro.eval.histograms import (
    voltage_histogram,
    conditional_histogram,
    conditional_pdfs,
    histogram_bin_centers,
)
from repro.eval.divergences import (
    total_variation_distance,
    kl_divergence,
    distribution_distance,
)
from repro.eval.ici_analysis import (
    ici_error_profile,
    top_pattern_frequencies,
    pattern_rank_order,
    rank_agreement,
)
from repro.eval.report import (
    format_table,
    format_bar_chart,
    format_pie_summary,
)
from repro.eval.information import (
    channel_capacity_estimate,
    hard_decision_mutual_information,
    joint_level_voltage_histogram,
    multi_read_thresholds,
    mutual_information,
    soft_read_mutual_information,
)

__all__ = [
    "voltage_histogram",
    "conditional_histogram",
    "conditional_pdfs",
    "histogram_bin_centers",
    "total_variation_distance",
    "kl_divergence",
    "distribution_distance",
    "ici_error_profile",
    "top_pattern_frequencies",
    "pattern_rank_order",
    "rank_agreement",
    "format_table",
    "format_bar_chart",
    "format_pie_summary",
    "channel_capacity_estimate",
    "hard_decision_mutual_information",
    "joint_level_voltage_histogram",
    "multi_read_thresholds",
    "mutual_information",
    "soft_read_mutual_information",
]
