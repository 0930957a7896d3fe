"""End-to-end benchmark of the reproduction campaign.

Run from the repository root::

    python3 e2ebench/run.py --workload campaign_quick --seed 1 \
        --seconds 40 --trace 0

``--trace 0`` (the timed run) sets the workload up :data:`SETUP_REPEATS`
times (``setup_s`` is the median, plus the one-off imports), then runs
units of work until ``--seconds`` are used up and reports every end-to-end
metric.  Its times are speed-scaled: a calibration kernel timed between
pieces of work tracks the shared host's drifting speed, and every interval
is charged in seconds at the reference host's speed (see
:class:`e2ebench.harness.SpeedClock`); the raw wall times and the measured
host speed are printed on the lines before the result.  ``--trace 1`` sets
up once under ``repro.obs`` tracing, runs unit 0 untraced and then traced,
and reports the per-layer metrics in raw seconds; its trace, Chrome export
and checkpoint go to ``.e2ebench-work/`` in the checkout.

Every run checks the outputs (see :mod:`e2ebench.workloads`) and prints, as
its last line, ``{"correct", "attempted", "failed", "metrics"}`` as JSON.
Nothing runs on import: remote fleet workers re-import this file as their
``__main__`` module.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import traceback
from pathlib import Path

SETUP_REPEATS = 3
WORK_DIR = ".e2ebench-work"

#: End-to-end metrics of a timed run, with units, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("train_arrays_per_s", "arrays/s"),
    ("train_step_p50_ms", "ms"),
    ("sample_cells_per_s", "voltages/s"),
    ("frames_per_s", "codewords/s"),
    ("voltage_tvd", "tvd"),
    ("ler_fold", "x"),
    ("ici_tvd", "tvd"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign_quick", "fer_fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_run(workload_class, args, ops, work_dir, imports) -> dict:
    from e2ebench.harness import peak_rss_mib, percentile
    from e2ebench.workloads import Measure

    clock = ops.clock
    setups, fingerprints, setup_measures = [], [], []
    units = []
    workload = None
    try:
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                # Release the previous set-up (model, fleet) first, so two
                # never coexist.
                workload.close()
                workload = None
                gc.collect()
            workload = workload_class()
            start = clock.now()
            fingerprints.append(workload.setup(args.seed, ops, work_dir))
            setups.append((start, clock.now()))
            if getattr(workload, "setup_measure", None) is not None:
                setup_measures.append(workload.setup_measure)
        ops.check("same-seed set-ups reproduce each other",
                  all(item == fingerprints[0] for item in fingerprints))

        start = time.perf_counter()
        while True:
            unit_start, real_start = clock.now(), time.perf_counter()
            measure = workload.unit(len(units), ops)
            units.append(((unit_start, clock.now()), measure))
            if len(units) == 1:
                # Over the set-ups and one unit: a fixed amount of work,
                # whatever number of units the time allows.
                peak_rss = peak_rss_mib()
            now = time.perf_counter()
            if now - start + (now - real_start) > args.seconds:
                break
        for _, measure in units:
            workload.verify(measure, ops)
    finally:
        if workload is not None:
            workload.close()
    prints = [measure.fingerprint for _, measure in units
              if measure.fingerprint]
    if len(prints) > 1:
        ops.check("same-seed units reproduce each other",
                  all(item == prints[0] for item in prints))

    total = Measure()
    for measure in [measure for _, measure in units] + setup_measures:
        total.add(measure)
    quality = next(measure.quality
                   for measure in [units[0][1], *setup_measures]
                   if measure.quality)

    def scaled(intervals) -> list[float]:
        return [clock.scaled(start, end) for start, end in intervals]

    def raw(intervals) -> list[float]:
        return [round(end - start, 3) for start, end in intervals]

    unit_intervals = [interval for interval, _ in units]
    walls, setup_times = scaled(unit_intervals), scaled(setups)
    steps = scaled(total.steps)
    ecc_s = sum(scaled(total.ecc))
    slowdown = [1.0 / factor for factor in clock.factors]
    print(f"raw wall: units {raw(unit_intervals)} s; set-ups {raw(setups)}"
          f" s; imports {raw([imports])[0]} s")
    print(f"host slowdown vs reference: median {percentile(slowdown, 50):.3f}"
          f", p10 {percentile(slowdown, 10):.3f}, p90"
          f" {percentile(slowdown, 90):.3f} over {len(slowdown)} ticks")
    print(f"scaled: units {len(units)}, walls {[round(s, 3) for s in walls]}"
          f" s; set-ups {[round(s, 3) for s in setup_times]} s; train steps"
          f" {len(steps)}, p90 {1e3 * percentile(steps, 90):.1f} ms; ecc"
          f" {ecc_s:.3f} s for {total.frames} frames")
    return {
        "setup_s": scaled([imports])[0] + percentile(setup_times, 50),
        "wall_s": percentile(walls, 50),
        "peak_rss_mb": peak_rss,
        "train_arrays_per_s": total.train_arrays / sum(scaled(total.train)),
        "train_step_p50_ms": 1e3 * percentile(steps, 50),
        "sample_cells_per_s": total.sample_cells / sum(scaled(total.sample)),
        "frames_per_s": total.frames / ecc_s,
        **quality,
    }


def traced_run(workload_class, args, ops, work_dir) -> dict:
    from repro import obs
    from repro.nn.backend import get_backend

    from e2ebench import layers

    setup_trace = work_dir / "setup.jsonl"
    unit_trace = work_dir / "unit.jsonl"
    workload = workload_class()
    try:
        obs.process_registry().reset()
        with obs.tracing(setup_trace), layers.instrumented(), \
                obs.span("bench.setup"):
            workload.setup(args.seed, ops, work_dir)
        start = time.perf_counter()
        untraced = workload.unit(0, ops)
        untraced_wall = time.perf_counter() - start
        obs.process_registry().reset()
        get_backend().arena.reset_peak()
        with obs.tracing(unit_trace), layers.instrumented(), \
                obs.span(layers.ROOT_SPAN):
            traced = workload.unit(0, ops)
        workload.verify(untraced, ops)
        workload.verify(traced, ops)
    finally:
        workload.close()
    if untraced.fingerprint:
        ops.check("same-seed units reproduce each other",
                  untraced.fingerprint == traced.fingerprint)
    for path in (setup_trace, unit_trace):
        count, errors = obs.validate_trace(path)
        ops.check(f"{path.name} passes validate_trace",
                  count > 0 and not errors, "; ".join(errors[:3]))
    records = obs.read_trace(unit_trace)
    chrome = obs.chrome_trace(records)
    (work_dir / "unit.chrome.json").write_text(json.dumps(chrome))
    ops.check("Chrome export holds the unit's spans",
              any(event["name"] == layers.ROOT_SPAN
                  for event in chrome["traceEvents"]))
    wall, table = layers.self_time_table(records)
    print(layers.format_table(args.workload, wall, table))
    ops.check("layer self times add up to the traced wall",
              abs(sum(table.values()) - wall) <= 1e-6 * max(wall, 1.0))
    return layers.layer_metrics(records, obs.read_trace(setup_trace),
                                untraced_wall)


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {root / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    for path in (str(root / "src"), str(root)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from e2ebench import harness

    # The work clock reads perf_counter until its first tick, so ``start``
    # opens the imports interval on it.
    ops = harness.Ops(harness.SpeedClock(calibrate=not args.trace))
    ops.clock.tick(force=True)
    from e2ebench import layers
    from e2ebench.workloads import WORKLOADS

    host = harness.host_record()
    print("host " + json.dumps(host, sort_keys=True))
    work_dir = root / WORK_DIR / f"{args.workload}-seed{args.seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    ops.clock.tick(force=True)
    imports = (start, ops.clock.now())
    workload_class = WORKLOADS[args.workload]
    units = dict(layers.PER_LAYER if args.trace else END_TO_END)
    try:
        if args.trace:
            values = traced_run(workload_class, args, ops, work_dir)
        else:
            values = timed_run(workload_class, args, ops, work_dir, imports)
    except Exception:
        traceback.print_exc()
        values = {}
    measured = {name: {"value": values[name], "unit": unit}
                for name, unit in units.items() if name in values}
    complete = len(measured) == len(units)
    print(json.dumps({"correct": complete and ops.failed == 0,
                      "attempted": max(ops.attempted, 1),
                      "failed": ops.failed if complete
                      else max(ops.failed, 1),
                      "metrics": measured}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
