"""Fig. 5: stacked level error counts of the five channel models.

For each P/E cycle count the figure compares the total error count (stacked
over program levels 1..7) of the measured data ('M'), the cVAE-GAN ('cV-G'),
and the three statistical fits: Gaussian ('G'), Normal-Laplace ('NL') and
Student's t ('S't').  All counts are normalised by the measured total at
4000 P/E cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.models import BASELINE_MODELS
from repro.channel import ChannelModel, build_channel, resolve_channel
from repro.data.dataset import FlashChannelDataset
from repro.eval.report import format_table
from repro.exec import stable_seed, unit_rng
from repro.flash.errors import per_level_error_counts
from repro.flash.params import FlashParameters

__all__ = ["Fig5Result", "run_fig5"]

#: Model labels in the order the paper's bars appear.
MODEL_ORDER = ("M", "cV-G", "G", "NL", "S't")


@dataclass
class Fig5Result:
    """Normalised per-level error counts for every model and P/E count."""

    counts: dict[int, dict[str, np.ndarray]]
    normalization_total: float

    def rows(self) -> list[dict]:
        rows = []
        for pe, by_model in sorted(self.counts.items()):
            for label in MODEL_ORDER:
                if label not in by_model:
                    continue
                stacked = by_model[label]
                row = {"pe_cycles": pe, "model": label,
                       "total": float(stacked.sum())}
                for level, value in enumerate(stacked, start=1):
                    row[f"level_{level}"] = float(value)
                rows.append(row)
        return rows

    def totals(self) -> dict[int, dict[str, float]]:
        return {pe: {label: float(stacks.sum())
                     for label, stacks in by_model.items()}
                for pe, by_model in self.counts.items()}

    def format(self) -> str:
        header = ("Fig. 5 — normalised stacked error counts "
                  "(reference: measured @ 4000 P/E cycles = 1.0)")
        return "\n".join([header, format_table(self.rows())])


def run_fig5(training_dataset: FlashChannelDataset,
             evaluation_arrays: dict[int, tuple[np.ndarray, np.ndarray]],
             generative_model=None,
             params: FlashParameters | None = None,
             baseline_iterations: int = 250,
             rng: np.random.Generator | None = None) -> Fig5Result:
    """Regenerate Fig. 5.

    Parameters
    ----------
    training_dataset:
        Paired dataset used to fit the statistical baselines (the same data
        the generative model was trained on).
    evaluation_arrays:
        Mapping from P/E cycle count to measured ``(PL, VL)`` evaluation
        arrays.
    generative_model:
        Trained generative backend (any channel spelling); omit to skip the
        'cV-G' bars.
    baseline_iterations:
        Nelder-Mead budget per (level, P/E) fit.
    rng:
        Generator of the baseline fits and of the sweep's root seed.  The
        (P/E, model) pairs are counted in order — P/E counts sorted, then
        'M' and the models — and pair ``i`` reads with
        :func:`repro.exec.unit_rng`'s generator ``i``.
    """
    if not evaluation_arrays:
        raise ValueError("evaluation_arrays must not be empty")
    params = params if params is not None else FlashParameters()
    generator = rng if rng is not None else np.random.default_rng(0)

    # Every comparator goes through the channel protocol: the baselines are
    # fitted and wrapped by the registry factory, the generative model is
    # resolved into its adapter, and all of them answer read_voltages().
    channels: dict[str, ChannelModel] = {}
    if generative_model is not None:
        channels["cV-G"] = resolve_channel(generative_model)
    for model_class in BASELINE_MODELS:
        channels[model_class.short_label] = build_channel(
            model_class.family, dataset=training_dataset, params=params,
            rng=generator, fit_iterations=baseline_iterations)

    seed = stable_seed("fig5", int(generator.integers(0, 2 ** 31)))
    counts: dict[int, dict[str, np.ndarray]] = {}
    pairs = [(pe, label) for pe in sorted(evaluation_arrays)
             for label in ("M", *channels)]
    for index, (pe, label) in enumerate(pairs):
        program, voltages = evaluation_arrays[pe]
        if label != "M":
            voltages = channels[label].read_voltages(
                program, int(pe), rng=unit_rng(seed, index))
        # Level 0 is left out: the paper stacks "program level 1 to 7".
        stacks = per_level_error_counts(program, voltages, params=params)[1:]
        counts.setdefault(int(pe), {})[label] = stacks.astype(float)

    first_pe = min(counts)
    reference_total = float(counts[first_pe]["M"].sum())
    if reference_total <= 0:
        raise RuntimeError("no measured errors at the first read point; "
                           "increase the evaluation set size")
    normalized = {pe: {label: stacks / reference_total
                       for label, stacks in by_model.items()}
                  for pe, by_model in counts.items()}
    return Fig5Result(counts=normalized, normalization_total=reference_total)
