"""Fig. 6: pattern-dependent error probabilities, measured vs cVAE-GAN.

The figure shows pie charts of the relative frequency of the word-line and
bit-line neighbour patterns of erroneous level-0 cells, for the measured data
and for the voltages regenerated by the cVAE-GAN at 7000 P/E cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel import resolve_channel
from repro.eval.ici_analysis import (
    ici_error_profile,
    rank_agreement,
    top_pattern_frequencies,
)
from repro.eval.report import format_pie_summary, format_table
from repro.exec import stable_seed, unit_rng
from repro.flash.params import FlashParameters
from repro.flash.patterns import BITLINE, WORDLINE

__all__ = ["Fig6Result", "run_fig6"]


@dataclass
class Fig6Result:
    """Measured and modeled ICI error profiles at one P/E cycle count."""

    pe_cycles: int
    measured: dict[str, dict[str, float]]
    modeled: dict[str, dict[str, float]]
    rank_agreement_top5: dict[str, float]

    def rows(self) -> list[dict]:
        rows = []
        for direction in (WORDLINE, BITLINE):
            top_measured = top_pattern_frequencies(self.measured[direction],
                                                   top_k=5)
            for pattern, value in top_measured.items():
                if pattern == "others":
                    continue
                rows.append({
                    "direction": direction,
                    "pattern": pattern,
                    "measured_fraction": value,
                    "modeled_fraction": self.modeled[direction].get(pattern,
                                                                    0.0),
                })
        return rows

    def format(self) -> str:
        parts = [f"Fig. 6 — ICI error-pattern probabilities at "
                 f"{self.pe_cycles} P/E cycles"]
        for direction, label in ((WORDLINE, "WL"), (BITLINE, "BL")):
            parts.append(format_pie_summary(self.measured[direction], top_k=8,
                                            title=f"measured ({label})"))
            parts.append(format_pie_summary(self.modeled[direction], top_k=8,
                                            title=f"cVAE-GAN ({label})"))
        parts.append(format_table(self.rows()))
        parts.append(f"top-5 rank agreement: "
                     f"WL={self.rank_agreement_top5[WORDLINE]:.2f}, "
                     f"BL={self.rank_agreement_top5[BITLINE]:.2f}")
        return "\n".join(parts)


def run_fig6(program_levels: np.ndarray, voltages: np.ndarray,
             model, pe_cycles: int = 7000,
             params: FlashParameters | None = None,
             measured_program: np.ndarray | None = None,
             measured_voltages: np.ndarray | None = None) -> Fig6Result:
    """Regenerate Fig. 6 from measured evaluation arrays and a trained model.

    ``model`` is any channel backend (registered name, channel model, or a
    concrete model it wraps).  The modeled pie is always computed from
    ``program_levels`` (the arrays the backend reads back).  The measured pie
    defaults to ``voltages`` but can be computed from a larger measured-only
    sample via ``measured_program``/``measured_voltages``: the paper's
    measured pie sums nearly 10^5 errors, and pattern frequencies estimated
    from only a few tens of errors are too noisy to preserve the
    707-dominance ordering.  The backend reads the modeled pie with
    generator 1 of :func:`repro.exec.unit_rng`, under a seed drawn from its
    own generator (generator 0 is the measured pie's, which draws nothing).
    """
    if (measured_program is None) != (measured_voltages is None):
        raise ValueError("measured_program and measured_voltages must be "
                         "given together")
    if measured_program is None:
        measured_program, measured_voltages = program_levels, voltages
    model = resolve_channel(model)
    seed = stable_seed("fig6", int(model.rng.integers(0, 2 ** 31)))
    measured = ici_error_profile(measured_program, measured_voltages,
                                 params=params)
    generated = model.read_voltages(program_levels, pe_cycles,
                                    rng=unit_rng(seed, 1))
    modeled = ici_error_profile(program_levels, generated, params=params)
    agreement = {direction: rank_agreement(measured[direction],
                                           modeled[direction], top_k=5)
                 for direction in (WORDLINE, BITLINE)}
    return Fig6Result(pe_cycles=int(pe_cycles), measured=measured,
                      modeled=modeled, rank_agreement_top5=agreement)
