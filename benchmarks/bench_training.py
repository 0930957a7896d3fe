"""Precision ladder of the NumPy deep-learning framework and training step.

Two families of measurements live here:

* pytest-benchmark microbenchmarks of the conv kernels, the U-Net forward
  pass and the full cVAE-GAN optimisation step (run through pytest);
* the standalone **float32 vs float64 threshold ladder**
  (``PYTHONPATH=src python benchmarks/bench_training.py``): the same
  conv-heavy cVAE-GAN training step and the generative channel's batched
  sampling path are timed at both precisions, and the float32 speedups are
  held to regression thresholds (training step >= 1.8x, batched sampling
  >= 1.5x — SIMD width + memory bandwidth on the conv-lowered BLAS
  matmuls).  Thresholds are core-gated like ``bench_exec.py``: they are
  only enforced when the host has at least ``GATE_MIN_CORES`` cores, so
  undersized runners still record numbers without failing the job.

Results are merged into ``benchmarks/results/pipeline.json`` (the CI-tracked
throughput file): the ``train`` key holds the latest run and
``train_series`` accumulates one entry per run for cross-PR tracking
(likewise ``obs``/``obs_series``).

``--smoke`` additionally runs the float32 end-to-end acceptance path: train
a small cVAE-GAN in float32, serve it through the batched
:class:`~repro.channel.GenerativeChannel`, and push BCH codewords through
the sampled voltages — the frame-error statistics must be finite and the
float32 losses must sit within the documented tolerance of the float64 run
from identical seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import replace

import numpy as np

try:  # pytest-benchmark is optional for the standalone ladder
    import pytest
except ImportError:  # pragma: no cover
    pytest = None

from results_io import (
    check_series_regression,
    load_results,
    merge_results as _merge_tracked_results,
    series_entry,
)

#: Conv-heavy ladder workload: 32x32 arrays through the small architecture
#: are dominated by the im2col BLAS matmuls (the paper-scale bottleneck)
#: rather than Python overhead, so the dtype speedup is representative.
#: Measurements are *interleaved* (one float32 step, one float64 step,
#: repeated) and reduced by median, so slow drift on a shared host hits
#: both precisions equally instead of biasing whichever ran second.
TRAIN_ARRAY_SIZE = 32
TRAIN_BATCH = 8
#: Each timed unit is several consecutive steps/passes: sub-second units
#: are bimodal under containerised CPU quotas (100 ms CFS periods), while
#: a multi-step unit spans many quota windows and times the actual work.
TRAIN_STEPS_PER_ROUND = 3
TRAIN_ROUNDS = 4
SAMPLE_BLOCKS = 16
SAMPLE_COUNT = 10
SAMPLE_PASSES_PER_ROUND = 3
SAMPLE_ROUNDS = 3

#: Minimum float32 speedup over the float64 baseline, per stage.
SPEEDUP_THRESHOLDS = {"train_step": 1.8, "sampling": 1.5}

#: Conv training-step workload of the ``--obs`` gate.
CONV_STEP_CHANNELS = 16
CONV_STEPS_PER_ROUND = 5

#: Observability disabled-cost gate (``--obs``): the shipped conv training
#: step (kernel-profiling hooks present, tracing off) vs the same backend
#: with the hooks stripped back out (the pre-observability baseline),
#: interleaved.  The disabled hook is one module-global load and a ``None``
#: check per kernel call, so anything past this bound is a regression on
#: the hot path.
OBS_OVERHEAD_MAX = 0.02
OBS_ROUNDS = 8

#: Thresholds are enforced only on hosts with at least this many cores:
#: single-core runners are typically oversubscribed CI shares whose timings
#: are too noisy to gate on (the numbers are still recorded and tracked).
GATE_MIN_CORES = 2

#: Documented float32-vs-float64 tolerance on one training step's loss
#: statistics from identical seeds (see README "Precision & backends").
SMOKE_LOSS_RTOL = 1e-2


def _ladder_dataset():
    from repro.data import generate_paired_dataset
    from repro.flash import BlockGeometry, FlashChannel

    channel = FlashChannel(geometry=BlockGeometry(32, 32),
                           rng=np.random.default_rng(3))
    return generate_paired_dataset(channel, pe_cycles=(4000, 10000),
                                   arrays_per_pe=2 * TRAIN_BATCH,
                                   array_size=TRAIN_ARRAY_SIZE)


def _interleaved_best(stage_a, stage_b, rounds: int,
                      labels: tuple[str, str] = ("float32", "float64")
                      ) -> dict[str, float]:
    """Best-observed seconds per stage, alternating the two variants.

    Interleaving means slow drift on a shared host hits both variants
    equally, and taking the minimum discards one-sided interference (other
    processes only ever add time), so the reported ratio is the ratio of
    the actual compute costs rather than of scheduler luck.
    """
    stage_a()  # warm-up both (allocations, BLAS thread spin-up)
    stage_b()
    durations: dict[str, list[float]] = {label: [] for label in labels}
    for _ in range(rounds):
        for label, stage in zip(labels, (stage_a, stage_b)):
            start = time.perf_counter()
            stage()
            durations[label].append(time.perf_counter() - start)
    return {label: float(min(times))
            for label, times in durations.items()}


def _train_steps(dtype: str, dataset):
    """A zero-argument 'run one training step' stage for the ladder."""
    from repro.core import ModelConfig, Trainer, build_model

    config = replace(ModelConfig.small(TRAIN_ARRAY_SIZE,
                                       batch_size=TRAIN_BATCH), dtype=dtype)
    model = build_model("cvae_gan", config, rng=np.random.default_rng(4))
    trainer = Trainer(model, dataset, rng=np.random.default_rng(5))
    batch = dataset[0:TRAIN_BATCH]

    def stage():
        for _ in range(TRAIN_STEPS_PER_ROUND):
            trainer.train_step(*batch)
    return stage


def _sampling_pass(dtype: str):
    """A zero-argument 'one batched read_repeated pass' stage."""
    from repro.channel import GenerativeChannel
    from repro.core import ModelConfig, build_model

    config = replace(ModelConfig.small(TRAIN_ARRAY_SIZE, epochs=1,
                                       batch_size=16), dtype=dtype)
    model = build_model("cvae_gan", config, rng=np.random.default_rng(1))
    channel = GenerativeChannel(model, rng=np.random.default_rng(2))
    blocks = np.random.default_rng(6).integers(
        0, 8, size=(SAMPLE_BLOCKS, TRAIN_ARRAY_SIZE, TRAIN_ARRAY_SIZE))

    def stage():
        for _ in range(SAMPLE_PASSES_PER_ROUND):
            channel.read_repeated(blocks, 7000, num_samples=SAMPLE_COUNT)
    return stage


def _conv_train_steps(backend):
    """A zero-argument 'conv training step' stage for the ``--obs`` gate.

    One pix2pix-style 4x4/stride-2 convolution: forward lowering
    (im2col + BLAS matmul), squared-activation loss, backward (col2im +
    weight-gradient im2col) and an Adam update — every hooked kernel of a
    conv layer.
    """
    from repro.nn import Tensor
    from repro.nn import functional as F
    from repro.nn.backend import use_backend
    from repro.nn.optim import Adam

    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(
        (TRAIN_BATCH, CONV_STEP_CHANNELS,
         TRAIN_ARRAY_SIZE, TRAIN_ARRAY_SIZE)).astype(np.float32),
        requires_grad=True)
    w = Tensor((rng.standard_normal(
        (CONV_STEP_CHANNELS, CONV_STEP_CHANNELS, 4, 4)) * 0.02)
        .astype(np.float32), requires_grad=True)
    optimizer = Adam([w], lr=1e-3)

    def stage():
        with use_backend(backend):
            for _ in range(CONV_STEPS_PER_ROUND):
                out = F.conv2d(x, w, stride=2, padding=1)
                loss = (out * out).mean()
                x.zero_grad()
                w.zero_grad()
                loss.backward()
                optimizer.step()
    return stage


def _traced_step_block(stage) -> dict:
    """One untimed traced pass of ``stage``: the self-profile block that
    rides into ``pipeline.json`` next to the timing numbers, proving the
    enabled path records the real kernel mix."""
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace
    from repro.obs.report import trace_summary_block

    obs_metrics.process_registry().reset()
    with obs_trace.tracing() as tracer:
        with obs_trace.span("bench.traced_step"):
            stage()
    return trace_summary_block(tracer.records)


def run_obs_benchmark() -> dict:
    """Disabled-mode observability overhead on the conv training step.

    Times the shipped backend (kernel hooks in place, tracing off) against
    the same backend with :func:`repro.nn.backend.strip_kernel_hooks`
    applied — the pre-observability baseline reconstructed in place — and
    reports the fractional overhead the hooks cost when nothing is
    listening.
    """
    from repro.nn.backend import build_backend, strip_kernel_hooks

    hooked = build_backend("numpy")
    stripped = build_backend("numpy")
    strip_kernel_hooks(stripped)
    timings = _interleaved_best(_conv_train_steps(hooked),
                                _conv_train_steps(stripped),
                                OBS_ROUNDS, labels=("hooked", "stripped"))
    return {
        "conv_step": {
            "array_size": TRAIN_ARRAY_SIZE,
            "batch_size": TRAIN_BATCH,
            "channels": CONV_STEP_CHANNELS,
            "hooked_seconds": timings["hooked"] / CONV_STEPS_PER_ROUND,
            "stripped_seconds": timings["stripped"] / CONV_STEPS_PER_ROUND,
            "overhead_fraction":
                timings["hooked"] / timings["stripped"] - 1.0,
        },
        "trace_summary": _traced_step_block(_conv_train_steps(hooked)),
        "cpu_count": os.cpu_count() or 1,
    }


def check_obs_threshold(results: dict) -> list[str]:
    """Core-gated disabled-mode overhead failure (empty list = pass)."""
    if results["cpu_count"] < GATE_MIN_CORES:
        return []
    overhead = results["conv_step"]["overhead_fraction"]
    if overhead > OBS_OVERHEAD_MAX:
        return [f"conv_step: disabled-mode observability hooks cost "
                f"{overhead:.1%}, above the {OBS_OVERHEAD_MAX:.0%} bound"]
    return []


def merge_obs_results(results: dict):
    """Fold an obs run into the tracked file (``obs`` + ``obs_series``)."""
    series = load_results().get("obs_series", [])
    series.append(series_entry(results["cpu_count"], {
        "obs_conv_steps_per_second":
            1.0 / results["conv_step"]["hooked_seconds"],
    }))
    return _merge_tracked_results({"obs": results, "obs_series": series})


def run_training_benchmark() -> dict:
    """The float32-vs-float64 ladder: training step and batched sampling."""
    dataset = _ladder_dataset()
    results: dict[str, dict | int] = {}
    train = _interleaved_best(_train_steps("float32", dataset),
                              _train_steps("float64", dataset),
                              TRAIN_ROUNDS)
    results["train_step"] = {
        "array_size": TRAIN_ARRAY_SIZE,
        "batch_size": TRAIN_BATCH,
        "float32_seconds": train["float32"] / TRAIN_STEPS_PER_ROUND,
        "float64_seconds": train["float64"] / TRAIN_STEPS_PER_ROUND,
        "speedup": train["float64"] / train["float32"],
    }
    sampling = _interleaved_best(_sampling_pass("float32"),
                                 _sampling_pass("float64"),
                                 SAMPLE_ROUNDS)
    cells = SAMPLE_BLOCKS * SAMPLE_COUNT * TRAIN_ARRAY_SIZE ** 2
    results["sampling"] = {
        "cells": cells,
        "float32_seconds": sampling["float32"] / SAMPLE_PASSES_PER_ROUND,
        "float64_seconds": sampling["float64"] / SAMPLE_PASSES_PER_ROUND,
        "float32_voltages_per_second":
            cells * SAMPLE_PASSES_PER_ROUND / sampling["float32"],
        "speedup": sampling["float64"] / sampling["float32"],
    }
    results["cpu_count"] = os.cpu_count() or 1
    return results


def check_thresholds(results: dict) -> list[str]:
    """Core-gated float32 speedup failures."""
    if results["cpu_count"] < GATE_MIN_CORES:
        return []
    failures = []
    for stage, minimum in SPEEDUP_THRESHOLDS.items():
        speedup = results[stage]["speedup"]
        if speedup < minimum:
            failures.append(f"{stage}: float32 is {speedup:.2f}x over "
                            f"float64, below the {minimum:.1f}x threshold")
    return failures


def run_float32_smoke() -> dict:
    """Float32 end-to-end acceptance: train -> sample -> FER, plus deltas.

    Returns the frame-error statistics of a BCH campaign over the float32
    generative channel and the float32-vs-float64 loss deltas of one
    training step from identical seeds.
    """
    from repro.channel import GenerativeChannel
    from repro.core import ModelConfig, Trainer, build_model
    from repro.data import generate_paired_dataset
    from repro.ecc import BCHCode, evaluate_bch_over_channel
    from repro.flash import BlockGeometry, FlashChannel

    channel = FlashChannel(geometry=BlockGeometry(16, 16),
                           rng=np.random.default_rng(7))
    dataset = generate_paired_dataset(channel, pe_cycles=(4000, 10000),
                                      arrays_per_pe=16, array_size=16)

    def one_step_stats(dtype: str) -> dict[str, float]:
        config = replace(ModelConfig.small(16, epochs=1, batch_size=8),
                         dtype=dtype)
        model = build_model("cvae_gan", config, rng=np.random.default_rng(8))
        trainer = Trainer(model, dataset, rng=np.random.default_rng(9))
        return trainer.train_step(*dataset[0:8])

    stats32 = one_step_stats("float32")
    stats64 = one_step_stats("float64")
    deltas = {key: abs(stats32[key] - stats64[key])
              / max(abs(stats64[key]), 1e-12) for key in stats64}
    worst = max(deltas, key=deltas.get)
    if deltas[worst] > SMOKE_LOSS_RTOL:
        raise SystemExit(
            f"float32 training step diverged from float64: {worst} differs "
            f"by {deltas[worst]:.2e} (documented tolerance {SMOKE_LOSS_RTOL})")

    # Train briefly in float32 and close the loop through ECC.
    config = replace(ModelConfig.small(16, epochs=1, batch_size=8),
                     dtype="float32")
    model = build_model("cvae_gan", config, rng=np.random.default_rng(8))
    trainer = Trainer(model, dataset, rng=np.random.default_rng(9),
                      max_steps_per_epoch=2)
    trainer.train(epochs=1)
    generative = GenerativeChannel(model, rng=np.random.default_rng(10))
    outcome = evaluate_bch_over_channel(BCHCode(m=6, t=4), generative, 7000,
                                        num_codewords=8, group_size=4,
                                        seed=11)
    if not (np.isfinite(outcome.frame_error_rate)
            and 0.0 <= outcome.frame_error_rate <= 1.0):
        raise SystemExit("float32 train->sample->FER smoke produced a "
                         f"non-finite FER: {outcome.frame_error_rate}")
    return {
        "loss_rel_delta_max": deltas[worst],
        "loss_rel_delta_key": worst,
        "fer": float(outcome.frame_error_rate),
        "raw_ber": float(outcome.raw_bit_error_rate),
        "g_total_float32": stats32["g_total"],
        "g_total_float64": stats64["g_total"],
    }


def merge_results(results: dict):
    """Fold this run into the tracked throughput file (train + series)."""
    series = load_results().get("train_series", [])
    # Every tracked metric must be higher-is-better: check_series_regression
    # alerts when a value drops below the historical median.
    series.append(series_entry(results["cpu_count"], {
        "train_step_speedup": results["train_step"]["speedup"],
        "sampling_speedup": results["sampling"]["speedup"],
        "float32_steps_per_second":
            1.0 / results["train_step"]["float32_seconds"],
    }))
    return _merge_tracked_results({"train": results, "train_series": series})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="also run the float32 end-to-end "
                             "train->sample->FER acceptance path")
    parser.add_argument("--skip-ladder", action="store_true",
                        help="run only the smoke path (no timing ladder)")
    parser.add_argument("--obs", action="store_true",
                        help="run the observability disabled-cost gate: the "
                             "shipped conv training step (kernel hooks in "
                             "place, tracing off) vs the hook-stripped "
                             "baseline")
    args = parser.parse_args()

    if args.obs:
        results = run_obs_benchmark()
        path = merge_obs_results(results)
        print(json.dumps(results, indent=2))
        print(f"merged into {path}")
        failures = check_obs_threshold(results)
        if failures:
            raise SystemExit("observability overhead regression: "
                             + "; ".join(failures))
        alerts = check_series_regression(load_results().get("obs_series",
                                                            []))
        if results["cpu_count"] < GATE_MIN_CORES:
            for alert in alerts:
                print(f"WARNING obs series regression: {alert}")
        elif alerts:
            raise SystemExit("obs series regression: " + "; ".join(alerts))
        return

    if args.smoke:
        smoke = run_float32_smoke()
        print("float32 smoke:", json.dumps(smoke, indent=2))
    if args.skip_ladder:
        return

    results = run_training_benchmark()
    path = merge_results(results)
    print(json.dumps(results, indent=2))
    print(f"merged into {path}")
    failures = check_thresholds(results)
    if failures:
        raise SystemExit("precision regression: " + "; ".join(failures))
    alerts = check_series_regression(load_results().get("train_series", []))
    if results["cpu_count"] < GATE_MIN_CORES:
        # Same gate as the thresholds: record, warn, but do not fail on
        # noisy single-core timings.
        for alert in alerts:
            print(f"WARNING train series regression: {alert}")
    elif alerts:
        raise SystemExit("train series regression: " + "; ".join(alerts))


# --------------------------------------------------------------------- #
# pytest-benchmark microbenchmarks (run through pytest)
# --------------------------------------------------------------------- #
if pytest is not None:
    from repro.core import ModelConfig, Trainer, build_model
    from repro.data import generate_paired_dataset
    from repro.flash import BlockGeometry, FlashChannel
    from repro.nn import Tensor
    from repro.nn import functional as F

    @pytest.mark.benchmark(group="nn")
    def test_conv2d_forward_backward(benchmark):
        """Time a forward+backward pass of a paper-scale C64 convolution."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 1, 64, 64)), requires_grad=True)
        w = Tensor(rng.standard_normal((64, 1, 4, 4)) * 0.02,
                   requires_grad=True)

        def step():
            out = F.conv2d(x, w, stride=2, padding=1)
            loss = (out * out).mean()
            x.zero_grad()
            w.zero_grad()
            loss.backward()
            return loss.item()

        value = benchmark(step)
        assert np.isfinite(value)

    @pytest.mark.benchmark(group="nn")
    def test_generator_forward(benchmark):
        """Time one small-config U-Net generator forward pass."""
        config = ModelConfig.small(16)
        from repro.core import UNetGenerator
        generator = UNetGenerator(config, rng=np.random.default_rng(1))
        generator.eval()
        rng = np.random.default_rng(2)
        program = Tensor(rng.uniform(-1, 1, size=(4, 1, 16, 16)))
        latent = Tensor(rng.standard_normal((4, config.latent_dim)))
        pe = np.full(4, 0.7)
        out = benchmark(generator, program, pe, latent)
        assert out.shape == (4, 1, 16, 16)

    @pytest.mark.benchmark(group="training")
    def test_cvae_gan_training_step(benchmark):
        """Time one full cVAE-GAN optimisation step (D step + G/E step)."""
        channel = FlashChannel(geometry=BlockGeometry(32, 32),
                               rng=np.random.default_rng(3))
        dataset = generate_paired_dataset(channel, pe_cycles=(4000, 10000),
                                          arrays_per_pe=16, array_size=16)
        config = ModelConfig.small(16, batch_size=8)
        model = build_model("cvae_gan", config, rng=np.random.default_rng(4))
        trainer = Trainer(model, dataset, rng=np.random.default_rng(5))
        batch = dataset[0:8]

        stats = benchmark(trainer.train_step, *batch)
        assert "g_total" in stats and "d_total" in stats


if __name__ == "__main__":
    main()
