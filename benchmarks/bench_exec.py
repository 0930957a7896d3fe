"""Sharded Monte-Carlo engine throughput: LDPC frames/s vs worker count.

This benchmark runs the repository's heaviest per-frame sweep — a
soft-decision LDPC frame-error campaign over the simulator channel — through
every execution backend of :mod:`repro.exec` and reports frames/second:

* ``serial`` — the single-process reference path;
* ``process_2`` / ``process_4`` — the ``concurrent.futures`` process pool
  with 2 and 4 workers;
* ``remote_2`` — a 2-worker localhost fleet behind
  :class:`repro.exec.RemoteExecutor` (shards over the socket transport).

Each pool/fleet backend is built once and warmed with a small untimed
campaign before the measured run, so the numbers reflect steady-state
throughput of a persistent pool — the deployment shape — rather than
charging worker startup to the first campaign.

Because plan randomness is anchored per codeword group, every backend must
produce **bit-identical** frame records; the benchmark asserts that before
trusting any timing.

Regression thresholds are per backend and **core-gated**: a pool backend is
only held to its speedup threshold when the machine actually has that many
cores, so the benchmark is honest on constrained runners while CI (4 vCPUs)
enforces the full ladder.  Why not e2ebench: no e2e workload runs the
process pool, and none measures a fleet's speedup over serial.

Run standalone (``PYTHONPATH=src python benchmarks/bench_exec.py``); pass
``--guided`` for the guided-chunks-vs-static gate on a tail-heavy plan, or
``--obs-smoke`` for the traced fleet campaign with trace-schema,
Chrome-export, and worker-log checks (``--trace-out`` picks the trace file
location).
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

#: The timed campaign: large enough that pool startup is amortized
#: (~1.3 s serial on one 2020s core), small enough to finish in seconds.
CODEWORDS = 1536
GROUP_SIZE = 8
PE_CYCLES = 30000
CODE_LENGTH = 252

#: Executor backends measured, in order.
BACKENDS = (("serial", None), ("process", 2), ("process", 4), ("remote", 2))

#: Untimed codewords run per backend first, so pools fork and the remote
#: fleet spawns/handshakes outside the measured window.
WARMUP_CODEWORDS = 16

#: Minimum frames/s relative to serial per pool backend.  Enforced only when
#: ``os.cpu_count()`` provides at least that many cores.  The remote fleet
#: pays per-shard socket framing on top of the process pool's pickling,
#: hence its slightly lower floor.
SPEEDUP_THRESHOLDS = {"process_2": 1.3, "process_4": 2.5, "remote_2": 1.2}


def _build_campaign(seed: int):
    from repro.channel import build_channel
    from repro.ecc import LDPCCode, evaluate_ldpc_over_channel
    from repro.flash import BlockGeometry

    channel = build_channel("simulator", geometry=BlockGeometry(16, 16),
                            rng=np.random.default_rng(0))
    code = LDPCCode.regular(n=CODE_LENGTH, column_weight=3, row_weight=6,
                            rng=np.random.default_rng(1))
    # A one-codeword warm-up campaign caches the seed-anchored density table,
    # so the timed runs measure the campaign itself — and the serial backend
    # (measured first) is not unfairly charged for the one-off estimation.
    evaluate_ldpc_over_channel(code, channel, PE_CYCLES, num_codewords=1,
                               seed=seed)
    return channel, code


def run_exec_benchmark() -> dict:
    """Frames/s of the LDPC campaign per execution backend."""
    from repro.ecc import evaluate_ldpc_over_channel

    from repro.exec import build_executor

    channel, code = _build_campaign(seed=9)
    results: dict[str, dict] = {}
    reference_records = None
    for name, workers in BACKENDS:
        label = name if workers is None else f"{name}_{workers}"
        backend = build_executor(name, workers)
        try:
            # Warm-up: fork the pool / spawn and handshake the fleet (and
            # run a few codewords through it) outside the timed window.
            evaluate_ldpc_over_channel(
                code, channel, PE_CYCLES, num_codewords=WARMUP_CODEWORDS,
                group_size=GROUP_SIZE, seed=9, executor=backend,
                workers=workers)
            start = time.perf_counter()
            outcome = evaluate_ldpc_over_channel(
                code, channel, PE_CYCLES, num_codewords=CODEWORDS,
                group_size=GROUP_SIZE, seed=9, executor=backend,
                workers=workers)
            seconds = time.perf_counter() - start
        finally:
            backend.close()
        if reference_records is None:
            reference_records = outcome.frame_records
        elif not np.array_equal(outcome.frame_records, reference_records):
            raise SystemExit(f"{label} produced different frame records than "
                             "serial — sharding broke determinism")
        results[label] = {
            "workers": workers if workers is not None else 1,
            "codewords": CODEWORDS,
            "seconds": seconds,
            "frames_per_second": CODEWORDS / seconds,
        }
    serial = results["serial"]["frames_per_second"]
    for label, entry in results.items():
        entry["speedup_vs_serial"] = entry["frames_per_second"] / serial
    results["frame_error_rate"] = float(outcome.frame_error_rate)
    results["cpu_count"] = os.cpu_count() or 1
    return results


def check_thresholds(results: dict) -> list[str]:
    """Per-backend regression failures, gated on available cores."""
    failures = []
    if results["serial"]["frames_per_second"] <= 0:
        failures.append("serial backend produced no throughput")
    for label, minimum in SPEEDUP_THRESHOLDS.items():
        workers = results[label]["workers"]
        if results["cpu_count"] < workers:
            continue
        speedup = results[label]["speedup_vs_serial"]
        if speedup < minimum:
            failures.append(f"{label}: {speedup:.2f}x vs serial is below "
                            f"the {minimum:.1f}x threshold")
    return failures


def run_obs_smoke(trace_out: str | None = None) -> None:
    """Traced 2-worker remote campaign: the CI ``obs-smoke`` gate.

    Runs the determinism sweep through a spawned fleet with tracing on and
    per-worker structured logs, then checks the whole observability story
    end to end: results bit-identical to serial, every trace record passes
    the schema, one merged timeline with a shard span per shard, the Chrome
    export loads, and both worker log files recorded their lifecycle.  It
    writes the trace file that the ``python -m repro.obs`` CI steps read.

    Why not e2ebench: its CI smoke runs untraced, and no e2e check reads a
    trace's schema, its Chrome export or the worker logs.
    """
    import tempfile
    from pathlib import Path

    from repro.ecc import evaluate_ldpc_over_channel
    from repro.exec import RemoteExecutor
    from repro.obs import tracing
    from repro.obs.report import chrome_trace, format_summary, summarize
    from repro.obs.sink import read_trace, validate_trace

    trace_path = Path(trace_out) if trace_out else \
        Path(tempfile.mkdtemp(prefix="obs-smoke-")) / "trace.jsonl"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    log_dir = trace_path.parent / "worker-logs"

    channel, code = _build_campaign(seed=123)
    kwargs = dict(num_codewords=16, group_size=4, seed=123)
    serial = evaluate_ldpc_over_channel(code, channel, PE_CYCLES,
                                        executor="serial", **kwargs)
    fleet = RemoteExecutor(workers=2, worker_log_dir=log_dir)
    try:
        with tracing(str(trace_path)):
            remote = evaluate_ldpc_over_channel(code, channel, PE_CYCLES,
                                                executor=fleet, **kwargs)
    finally:
        fleet.close()
    if not np.array_equal(serial.frame_records, remote.frame_records):
        raise SystemExit("traced remote fleet diverged from serial — "
                         "tracing must never perturb the numbers")
    count, errors = validate_trace(trace_path)
    if errors:
        raise SystemExit(f"trace schema validation failed "
                         f"({len(errors)} error(s)): {errors[0]}")
    records = read_trace(trace_path)
    summary = summarize(records)
    if not summary["shards"]:
        raise SystemExit("traced remote run produced no shard spans")
    if len(summary["pids"]) < 2:
        raise SystemExit("worker spans did not merge into the parent "
                         f"timeline (pids seen: {summary['pids']})")
    exported = chrome_trace(records)
    json.loads(json.dumps(exported))  # the export must round-trip as JSON
    logs = sorted(log_dir.glob("worker-*.jsonl"))
    if len(logs) != 2:
        raise SystemExit(f"expected 2 worker log files, found {len(logs)}")
    for path in logs:
        events = [json.loads(line)["event"]
                  for line in path.read_text().splitlines()]
        if events[0] != "start" or "session_start" not in events:
            raise SystemExit(f"worker log {path} missing lifecycle events: "
                             f"{events}")
    print(format_summary(summary))
    print(f"\nobs smoke OK: {count} record(s) validated, "
          f"{len(exported['traceEvents'])} Chrome event(s), "
          f"trace at {trace_path}, worker logs in {log_dir}")


#: The guided-chunk gate: a deliberately tail-heavy plan.  Cut statically
#: into two shards, one worker holds all the weight; the engine's default
#: guided chunks must beat that placement by this factor when two cores are
#: available.
GUIDED_SPEEDUP_THRESHOLD = 1.2
GUIDED_UNITS = 24
GUIDED_HEAVY_FROM = 12
GUIDED_HEAVY_SECONDS = 0.05


def _imbalanced_unit(unit, rng, *, heavy_from, heavy_seconds):
    """A lopsided sweep: the tail half of the units is ~50x slower."""
    time.sleep(heavy_seconds if int(unit) >= int(heavy_from) else 0.001)
    return float(unit) + float(rng.random())


def run_guided_benchmark() -> dict:
    """Static placement vs the default guided chunks on the tail-heavy plan.

    One default-configured 2-worker fleet runs the identical plan twice: as
    two static shards (``num_shards=2``) and with the engine's default
    guided chunks.  Both runs must reduce bit-identical to serial before any
    timing is trusted.
    """
    from repro.exec import MonteCarloPlan, RemoteExecutor, run_plan

    # Resolve the task through the importable module name so workers can
    # unpickle it even when this file runs as a script (module __main__).
    import bench_exec
    plan = MonteCarloPlan(task=bench_exec._imbalanced_unit,
                          units=tuple(range(GUIDED_UNITS)), seed=17,
                          context={"heavy_from": GUIDED_HEAVY_FROM,
                                   "heavy_seconds": GUIDED_HEAVY_SECONDS})
    reference = run_plan(plan, executor="serial")
    timings: dict[str, dict] = {}
    executor = RemoteExecutor(workers=2)
    try:
        # Warm-up spawns and handshakes the fleet outside the window.
        run_plan(plan, executor=executor)
        for label, num_shards in (("static", 2), ("guided", None)):
            start = time.perf_counter()
            results = run_plan(plan, executor=executor,
                               num_shards=num_shards)
            seconds = time.perf_counter() - start
            if results != reference:
                raise SystemExit(f"{label} placement diverged from serial "
                                 "— the schedule broke determinism")
            timings[label] = {
                "seconds": seconds,
                "dispatches": executor.last_run_stats["dispatches"]}
    finally:
        executor.close()
    return {
        "units": GUIDED_UNITS,
        "heavy_from": GUIDED_HEAVY_FROM,
        "heavy_seconds": GUIDED_HEAVY_SECONDS,
        "static_seconds": timings["static"]["seconds"],
        "guided_seconds": timings["guided"]["seconds"],
        "guided_dispatches": timings["guided"]["dispatches"],
        "speedup_guided_vs_static": (timings["static"]["seconds"] /
                                     timings["guided"]["seconds"]),
        "cpu_count": os.cpu_count() or 1,
    }


def run_guided_gate() -> None:
    """The CI ``exec-elastic`` gate: guided chunks must pay.

    Why not e2ebench: no e2e workload has lopsided units.
    """
    results = run_guided_benchmark()
    print(json.dumps(results, indent=2))
    speedup = results["speedup_guided_vs_static"]
    if results["cpu_count"] >= 2 and speedup < GUIDED_SPEEDUP_THRESHOLD:
        raise SystemExit(f"guided chunks {speedup:.2f}x over static "
                         f"placement is below the "
                         f"{GUIDED_SPEEDUP_THRESHOLD:.1f}x threshold")
    print(f"guided gate OK: {speedup:.2f}x over static placement in "
          f"{results['guided_dispatches']} chunk(s)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--obs-smoke", action="store_true",
                        help="run only the traced 2-worker fleet campaign "
                             "with schema/export/worker-log checks (the CI "
                             "obs-smoke gate)")
    parser.add_argument("--guided", action="store_true",
                        help="run only the guided-chunks-vs-static gate on "
                             "the tail-heavy plan (the CI exec-elastic gate)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="with --obs-smoke: write the trace JSONL here "
                             "(default: a fresh temp dir)")
    args = parser.parse_args()

    if args.obs_smoke:
        run_obs_smoke(args.trace_out)
        return
    if args.guided:
        run_guided_gate()
        return
    results = run_exec_benchmark()
    print(json.dumps(results, indent=2))
    failures = check_thresholds(results)
    if failures:
        raise SystemExit("throughput regression: " + "; ".join(failures))


if __name__ == "__main__":
    main()
