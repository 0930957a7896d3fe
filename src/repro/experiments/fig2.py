"""Fig. 2: top error-prone pattern counts and level error rate vs P/E cycles.

The figure shows, for 4000 / 7000 / 10000 P/E cycles, the counts of the nine
most error-prone 3-cell patterns (normalised by the count of pattern 707 in
the bit-line direction at 4000 cycles) and the overall level error rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel import resolve_channel
from repro.eval.report import format_table
from repro.exec import stable_seed, unit_rng
from repro.experiments.common import PAPER_PE_CYCLES
from repro.flash import top_error_pattern_counts
from repro.flash.patterns import BITLINE, TOP_ERROR_PATTERNS
from repro.flash.thresholds import default_read_thresholds, hard_read

__all__ = ["Fig2Result", "run_fig2"]


@dataclass
class Fig2Result:
    """Normalised pattern counts and level error rates per P/E cycle count."""

    pattern_counts: dict[tuple[str, str], dict[int, float]]
    raw_pattern_counts: dict[tuple[str, str], dict[int, int]]
    level_error_rates: dict[int, float]
    normalization_reference: tuple[str, str, int] = ("707", BITLINE, 4000)

    def rows(self) -> list[dict]:
        """One row per (pattern, direction) with a column per P/E count."""
        rows = []
        for (pattern, direction), by_pe in self.pattern_counts.items():
            label = "bit" if direction == BITLINE else "word"
            row = {"pattern": f"{pattern} ({label})"}
            for pe, value in by_pe.items():
                row[f"pe_{pe}"] = value
            rows.append(row)
        return rows

    def error_rate_rows(self) -> list[dict]:
        return [{"pe_cycles": pe, "level_error_rate": rate}
                for pe, rate in sorted(self.level_error_rates.items())]

    def format(self) -> str:
        header = ("Fig. 2 — top error-prone pattern counts "
                  "(normalised to 707-bit @ 4000) and level error rate")
        return "\n".join([
            header,
            format_table(self.rows()),
            "",
            format_table(self.error_rate_rows(), float_format="{:.5f}"),
        ])


def run_fig2(channel=None,
             pe_cycles: tuple[int, ...] = PAPER_PE_CYCLES,
             blocks_per_pe: int = 60,
             rng: np.random.Generator | None = None) -> Fig2Result:
    """Regenerate Fig. 2 from any channel backend.

    ``channel`` defaults to the simulator ("measured" data) and accepts any
    registered backend name or channel model, so the same driver profiles a
    trained generative network's spatio-temporal error statistics.  The
    sweep's root seed is drawn from ``rng`` when given, else from the
    channel's generator; block ``i`` of the sweep (``blocks_per_pe`` blocks
    per P/E count, in ``pe_cycles`` order) reads with
    :func:`repro.exec.unit_rng`'s generator ``i``.
    """
    if not pe_cycles:
        raise ValueError("pe_cycles must not be empty")
    if blocks_per_pe < 1:
        raise ValueError("blocks_per_pe must be positive")
    channel = resolve_channel(
        channel if channel is not None else "simulator",
        rng=rng if rng is not None else np.random.default_rng(0))
    generator = rng if rng is not None else channel.rng
    seed = stable_seed("fig2", int(generator.integers(0, 2 ** 31)))
    thresholds = default_read_thresholds(channel.params)

    raw: dict[tuple[str, str], dict[int, int]] = {key: {}
                                                  for key in TOP_ERROR_PATTERNS}
    errors: dict[int, int] = {}
    cells: dict[int, int] = {}
    blocks = [int(pe) for pe in pe_cycles for _ in range(blocks_per_pe)]
    for index, pe in enumerate(blocks):
        program, voltages = channel.paired_blocks(1, pe,
                                                  rng=unit_rng(seed, index))
        misread = np.count_nonzero(hard_read(voltages, thresholds) != program)
        errors[pe] = errors.get(pe, 0) + int(misread)
        cells[pe] = cells.get(pe, 0) + int(program.size)
        counts = top_error_pattern_counts(program, voltages,
                                          params=channel.params)
        for key, value in counts.items():
            raw[key][pe] = raw[key].get(pe, 0) + int(value)
    rates = {pe: errors[pe] / cells[pe] for pe in errors}

    reference = raw[("707", BITLINE)].get(int(pe_cycles[0]), 0)
    if reference == 0:
        raise RuntimeError("no 707 bit-line errors observed at the first read "
                           "point; increase blocks_per_pe")
    normalized = {key: {pe: value / reference for pe, value in by_pe.items()}
                  for key, by_pe in raw.items()}
    return Fig2Result(pattern_counts=normalized, raw_pattern_counts=raw,
                      level_error_rates=rates,
                      normalization_reference=("707", BITLINE,
                                               int(pe_cycles[0])))
