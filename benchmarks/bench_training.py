"""Observability disabled-mode cost on the shipped conv training step.

``PYTHONPATH=src python benchmarks/bench_training.py`` times the process
default array backend's conv training step with its kernel-profiling hooks
in place and tracing off, against the same backend with the hooks stripped
back out (the pre-observability baseline), interleaved, and exits non-zero
when the hooks cost more than ``OBS_OVERHEAD_MAX``.  The bound is
core-gated: it is only enforced on hosts with at least ``GATE_MIN_CORES``
cores.

Why not e2ebench: its tightest bound is 25%, and the hooks' contract is 2%.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

#: Conv training-step workload: 32x32 arrays through a 16-channel layer are
#: dominated by the im2col BLAS matmuls rather than Python overhead.
#: Measurements are *interleaved* (one hooked step, one stripped step,
#: repeated) and reduced by best-of, so slow drift on a shared host hits
#: both variants equally instead of biasing whichever ran second.
TRAIN_ARRAY_SIZE = 32
TRAIN_BATCH = 8
CONV_STEP_CHANNELS = 16
#: Each timed unit is several consecutive steps: sub-second units are
#: bimodal under containerised CPU quotas (100 ms CFS periods), while a
#: multi-step unit spans many quota windows and times the actual work.
CONV_STEPS_PER_ROUND = 5

#: Observability disabled-cost gate: the shipped conv training step (kernel
#: hooks present, tracing off) vs the same backend with the hooks stripped
#: back out (the pre-observability baseline), interleaved.  The disabled
#: hook is one module-global load and a ``None`` check per kernel call, so
#: anything past this bound is a regression on the hot path.
OBS_OVERHEAD_MAX = 0.02
OBS_ROUNDS = 8

#: The bound is enforced only on hosts with at least this many cores:
#: single-core runners are typically oversubscribed CI shares whose timings
#: are too noisy to gate on (the numbers are still printed).
GATE_MIN_CORES = 2


def _interleaved_best(stages: dict, rounds: int) -> dict[str, float]:
    """Best-observed seconds per stage, alternating the stages.

    Interleaving means slow drift on a shared host hits every stage
    equally, and taking the minimum discards one-sided interference (other
    processes only ever add time), so the reported ratio is the ratio of
    the actual compute costs rather than of scheduler luck.
    """
    for stage in stages.values():  # warm-up (allocations, BLAS threads)
        stage()
    durations: dict[str, list[float]] = {label: [] for label in stages}
    for _ in range(rounds):
        for label, stage in stages.items():
            start = time.perf_counter()
            stage()
            durations[label].append(time.perf_counter() - start)
    return {label: float(min(times))
            for label, times in durations.items()}


def _conv_train_steps(backend):
    """A zero-argument 'conv training step' stage.

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


def run_obs_benchmark() -> dict:
    """Disabled-mode observability overhead on the conv training step.

    Times the shipped backend — the process default, cjit wherever a C
    compiler is found — with its kernel hooks in place and tracing off
    against the same backend with :func:`repro.nn.backend.strip_kernel_hooks`
    applied, and reports the fractional overhead the hooks cost when
    nothing is listening.
    """
    from repro.nn.backend import build_backend, get_backend, strip_kernel_hooks

    name = get_backend().name
    hooked = build_backend(name)
    stripped = strip_kernel_hooks(build_backend(name))
    timings = _interleaved_best({"hooked": _conv_train_steps(hooked),
                                 "stripped": _conv_train_steps(stripped)},
                                OBS_ROUNDS)
    return {
        "backend": name,
        "conv_step": {
            "array_size": TRAIN_ARRAY_SIZE,
            "batch_size": TRAIN_BATCH,
            "channels": CONV_STEP_CHANNELS,
            "hooked_seconds": timings["hooked"] / CONV_STEPS_PER_ROUND,
            "stripped_seconds": timings["stripped"] / CONV_STEPS_PER_ROUND,
            "overhead_fraction":
                timings["hooked"] / timings["stripped"] - 1.0,
        },
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


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    results = run_obs_benchmark()
    print(json.dumps(results, indent=2))
    failures = check_obs_threshold(results)
    if failures:
        raise SystemExit("observability overhead regression: "
                         + "; ".join(failures))


if __name__ == "__main__":
    main()
