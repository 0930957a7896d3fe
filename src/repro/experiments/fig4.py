"""Fig. 4: conditional PDFs of measured vs cVAE-GAN voltages per P/E count.

For each P/E cycle count the figure overlays the measured conditional PDF of
every programmed level (1..7) with the PDF estimated from the generative
model's output on the same program-level arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel import resolve_channel
from repro.eval.divergences import total_variation_distance
from repro.eval.histograms import conditional_pdfs
from repro.eval.report import format_table
from repro.exec import stable_seed, unit_rng
from repro.flash.cell import NUM_LEVELS

__all__ = ["Fig4Result", "run_fig4"]


@dataclass
class Fig4Result:
    """Measured and modeled conditional PDFs at each P/E cycle count."""

    measured: dict[int, dict[int, tuple[np.ndarray, np.ndarray]]]
    modeled: dict[int, dict[int, tuple[np.ndarray, np.ndarray]]]
    peak_summary: list[dict]

    def rows(self) -> list[dict]:
        return self.peak_summary

    def format(self) -> str:
        header = ("Fig. 4 — conditional PDF summary "
                  "(peak height / distribution width per level and P/E count)")
        return "\n".join([header, format_table(self.peak_summary,
                                               float_format="{:.4f}")])


def _distribution_width(centers: np.ndarray, probabilities: np.ndarray) -> float:
    mean = float(np.sum(centers * probabilities))
    return float(np.sqrt(np.sum((centers - mean) ** 2 * probabilities)))


def _compare_condition(pe, program, voltages, generated, levels, bins):
    """Measured and modeled PDFs at one P/E count, and their summary rows."""
    measured = conditional_pdfs(program, voltages, levels=levels, bins=bins)
    modeled = conditional_pdfs(program, generated, levels=levels, bins=bins)
    summary = []
    for level in levels:
        centers, measured_probabilities = measured[level]
        _, modeled_probabilities = modeled[level]
        summary.append({
            "pe_cycles": pe,
            "level": level,
            "measured_peak": float(measured_probabilities.max()),
            "modeled_peak": float(modeled_probabilities.max()),
            "measured_width": _distribution_width(centers,
                                                  measured_probabilities),
            "modeled_width": _distribution_width(centers,
                                                 modeled_probabilities),
            "tv_distance": total_variation_distance(measured_probabilities,
                                                    modeled_probabilities),
        })
    return measured, modeled, summary


def run_fig4(measured_arrays: dict[int, tuple[np.ndarray, np.ndarray]],
             model,
             levels: tuple[int, ...] = tuple(range(1, NUM_LEVELS)),
             bins: int = 150) -> Fig4Result:
    """Regenerate Fig. 4.

    Parameters
    ----------
    measured_arrays:
        Mapping from P/E cycle count to a pair ``(program_levels, voltages)``
        of measured evaluation arrays, shape ``(N, H, W)`` each.
    model:
        Any channel backend whose conditional PDFs are compared against the
        measured arrays — a registered name, a
        :class:`repro.channel.ChannelModel` (typically the trained
        generative model), or a concrete model it wraps.  The P/E counts
        are read in sorted order, the ``i``-th with
        :func:`repro.exec.unit_rng`'s generator ``i`` of a seed drawn from
        the model's generator.
    levels:
        Program levels whose PDFs are estimated (1..7 in the paper).
    bins:
        Histogram resolution.
    """
    if not measured_arrays:
        raise ValueError("measured_arrays must not be empty")
    model = resolve_channel(model)
    seed = stable_seed("fig4", int(model.rng.integers(0, 2 ** 31)))
    levels = tuple(levels)
    measured, modeled, summary = {}, {}, []
    for index, pe in enumerate(sorted(measured_arrays)):
        program, voltages = measured_arrays[pe]
        generated = model.read_voltages(program, pe,
                                        rng=unit_rng(seed, index))
        measured[pe], modeled[pe], rows = _compare_condition(
            pe, program, voltages, generated, levels, bins)
        summary.extend(rows)
    return Fig4Result(measured=measured, modeled=modeled, peak_summary=summary)
