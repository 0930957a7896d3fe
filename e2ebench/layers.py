"""Per-layer attribution for the traced run.

For the traced run only, :func:`instrumented` wraps the public callables of
each layer of ``repro`` in :mod:`repro.obs` spans and restores the original
callables afterwards.  The spans come from these files, not from ``src/``:
the library's own spans are the exec layer's (``exec.plan``,
``exec.shard``, ...), and worker-side shard spans ride home in
``ShardResult.obs`` as usual.

:func:`exclusive_times` turns the span tree under the run's root span into
exclusive wall time per span, and :func:`layer_metrics` folds that, the span
attributes and the kernel-profiler histograms into the per-layer metrics
named in :data:`PER_LAYER`.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

from repro import obs

#: Root span name of a traced unit (everything the unit does nests in it).
ROOT_SPAN = "bench.unit"

#: Layer groups of the self-time table, by span-name prefix.  Time in the
#: root span not covered by any of these is ``unattributed``.
LAYER_GROUPS = (
    ("data", ("data.", "flash.")),
    ("train", ("train.",)),
    ("channel", ("channel.",)),
    ("experiments", ("experiment.", "baselines.", "eval.")),
    ("ecc", ("ecc.",)),
    ("exec", ("exec.",)),
    ("artifacts", ("artifacts.",)),
)

CHANNEL_BACKENDS = ("simulator", "generative", "gaussian", "normal_laplace",
                    "students_t")

KERNELS = ("matmul", "im2col", "col2im", "im2col_into", "expand_cols_into",
           "fused_elementwise", "fused_elementwise_bwd", "bn_bwd_reductions",
           "bn_bwd_dx", "adam_update")

#: Bytes Adam moves per float32 parameter and step: read param/grad/m/v,
#: write param/m/v (7 x 4 B).  A computed figure, not a measured one.
ADAM_BYTES_PER_PARAM = 7 * 4

#: Every per-layer metric of a traced run, in report order, with its unit.
PER_LAYER: tuple[tuple[str, str], ...] = (
    *((f"self.{group}_s", "s") for group, _ in LAYER_GROUPS),
    ("self.unattributed_s", "s"),
    ("obs.traced_wall_s", "s"),
    ("obs.untraced_wall_s", "s"),
    ("obs.trace_overhead_frac", "frac"),
    ("data.generate_s", "s"),
    ("data.batch_s", "s"),
    ("flash.read_s", "s"),
    ("flash.cells", "count"),
    ("train.steps", "count"),
    ("train.forward_s", "s"),
    ("train.backward_s", "s"),
    ("train.optimizer_s", "s"),
    *(item for kernel in KERNELS
      for item in ((f"nn.kernel.{kernel}_s", "s"),
                   (f"nn.kernel.{kernel}_calls", "count"))),
    ("nn.interp_residual_s", "s"),
    ("optim.adam_gbps", "GB/s"),
    ("nn.arena_peak_bytes", "B"),
    *(item for backend in CHANNEL_BACKENDS
      for item in ((f"channel.read_s.{backend}", "s"),
                   (f"channel.cells.{backend}", "count"))),
    ("channel.cache_hit_frac", "frac"),
    ("baselines.fit_s", "s"),
    ("experiment.fig2_s", "s"),
    ("experiment.fig4_s", "s"),
    ("experiment.fig5_s", "s"),
    ("experiment.fig6_s", "s"),
    ("eval.fidelity_s", "s"),
    ("ecc.encode_s", "s"),
    ("ecc.llr_s", "s"),
    ("ecc.decode_s.ldpc", "s"),
    ("ecc.decode_s.bch", "s"),
    ("ecc.frames", "count"),
    ("ecc.ldpc_iterations_mean", "count"),
    ("exec.plan_s", "s"),
    ("exec.shard_busy_s", "s"),
    ("exec.abandoned_s", "s"),
    ("exec.useful_frac", "frac"),
    ("exec.idle_frac", "frac"),
    ("exec.tail_wait_s", "s"),
    ("exec.dispatches", "count"),
    ("exec.steals", "count"),
    ("exec.speculations", "count"),
    ("exec.dedups", "count"),
    ("exec.retries", "count"),
    ("exec.worker_deaths", "count"),
    ("exec.bytes_sent", "B"),
    ("exec.bytes_received", "B"),
    ("exec.messages", "count"),
    ("artifacts.save_s", "s"),
    ("artifacts.load_s", "s"),
)


# --------------------------------------------------------------------------
# Wrapping public callables in spans
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``owner.attr`` becomes a span named ``span``.

    ``span`` may be a function of the call's positional arguments (the
    channel reads name their backend).  ``annotate(args, result)`` returns
    span attributes; ``kind="iter"`` times each ``next()`` of a generator
    instead of the call.
    """

    owner: Any
    attr: str
    span: str | Callable[[tuple], str]
    annotate: Callable[[tuple, Any], dict] | None = None
    kind: str = "call"


def _channel_label(channel) -> str:
    family = getattr(getattr(channel, "model", None), "family", "")
    return family or channel.supports().name


def _cells(args, result) -> dict:
    return {"cells": int(getattr(result, "size", 0))}


def _adam_params(args, result) -> dict:
    optimizer = args[0]
    return {"params": int(sum(parameter.data.size
                              for parameter in optimizer.parameters
                              if parameter.grad is not None))}


def _ldpc_iterations(args, result) -> dict:
    return {"frames": len(result),
            "iterations": int(sum(item.iterations for item in result))}


def _frames(args, result) -> dict:
    return {"frames": int(result.codewords)}


def _kernel_seconds() -> float:
    """Kernel-profiler time recorded so far on this thread's registry."""
    return sum(entry["total"]
               for name, entry in obs.get_registry().snapshot().items()
               if name.startswith("nn.kernel.")
               and entry["type"] == "histogram")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def default_targets() -> list[Target]:
    """The public callables of every layer, wrapped for the traced run."""
    from repro.artifacts import registry_io
    from repro.baselines.models import StatisticalChannelModel
    from repro.channel import registry as channel_registry
    from repro.channel.adapters import GenerativeChannel
    from repro.channel.cache import ConditionCache
    from repro.channel.protocol import ChannelModel
    from repro.core.base import ConditionalGenerativeModel
    from repro.core.trainer import Trainer
    from repro.data import generation
    from repro.data.loaders import BatchIterator
    from repro.ecc import evaluate as ecc_evaluate
    from repro.ecc.bch import BCHCode
    from repro.ecc.ldpc import LDPCCode
    from repro.flash.channel import FlashChannel
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor

    targets = [
        Target(generation, "generate_paired_dataset", "data.generate"),
        Target(BatchIterator, "__iter__", "data.batch", kind="iter"),
        Target(FlashChannel, "read", "flash.read", _cells),
        Target(Trainer, "train_step", "train.step", kind="step"),
        Target(Tensor, "backward", "train.backward"),
        Target(Adam, "step", "train.optimizer", _adam_params),
        Target(ChannelModel, "read_voltages",
               lambda args: f"channel.read.{_channel_label(args[0])}",
               _cells),
        Target(GenerativeChannel, "read_repeated",
               "channel.read.generative", _cells),
        Target(ConditionCache, "get_or_compute", "", kind="cache"),
        Target(StatisticalChannelModel, "fit", "baselines.fit"),
        Target(LDPCCode, "encode_batch", "ecc.encode"),
        Target(BCHCode, "encode", "ecc.encode"),
        Target(ecc_evaluate, "page_llrs", "ecc.llr"),
        Target(LDPCCode, "decode_min_sum_batch", "ecc.decode.ldpc",
               _ldpc_iterations),
        Target(BCHCode, "decode", "ecc.decode.bch"),
        Target(ecc_evaluate, "evaluate_bch_over_channel", "ecc.campaign",
               _frames),
        Target(ecc_evaluate, "evaluate_ldpc_over_channel", "ecc.campaign",
               _frames),
        Target(channel_registry, "save_channel", "artifacts.save"),
        Target(registry_io, "load_channel", "artifacts.load"),
    ]
    for figure in ("fig2", "fig4", "fig5", "fig6"):
        module = importlib.import_module(f"repro.experiments.{figure}")
        targets.append(Target(module, f"run_{figure}",
                              f"experiment.{figure}"))
    for model_class in _subclasses(ConditionalGenerativeModel):
        for loss in ("generator_loss", "discriminator_loss"):
            if loss in vars(model_class):
                targets.append(Target(model_class, loss, "train.forward"))
    from e2ebench import workloads

    targets.append(Target(workloads, "fidelity", "eval.fidelity"))
    return targets


def _wrap(fn: Callable, target: Target) -> Callable:
    span = obs.span
    if target.kind == "iter":
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                with span(target.span):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item
    elif target.kind == "step":
        def wrapper(*args, **kwargs):
            with span(target.span) as handle:
                before = _kernel_seconds()
                result = fn(*args, **kwargs)
                handle.set(kernel_s=_kernel_seconds() - before)
            return result
    elif target.kind == "cache":
        def wrapper(cache, key, compute):
            registry = obs.get_registry()
            registry.inc("bench.cache.lookups")
            if key in cache:
                registry.inc("bench.cache.hits")
            return fn(cache, key, compute)
    else:
        def wrapper(*args, **kwargs):
            name = target.span if isinstance(target.span, str) \
                else target.span(args)
            with span(name) as handle:
                result = fn(*args, **kwargs)
                if target.annotate is not None:
                    handle.set(**target.annotate(args, result))
            return result
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", target.attr)
    return wrapper


def _bindings(fn: Callable) -> list[tuple[Any, str]]:
    """Every module global in ``repro``/``e2ebench`` bound to ``fn``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(("repro", "e2ebench")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                found.append((module, attr))
    return found


@contextmanager
def instrumented(targets: list[Target] | None = None):
    """Wrap ``targets`` in spans for the duration of the block.

    Methods are replaced on their class; a module-level function is
    replaced in every ``repro``/``e2ebench`` module that imported it by
    name.  Every original binding is put back on exit, in reverse order,
    even when the block raises.
    """
    targets = default_targets() if targets is None else targets
    restore: list[tuple[Any, str, Any, bool]] = []
    try:
        for target in targets:
            owner = target.owner
            if isinstance(owner, type):
                own = target.attr in vars(owner)
                original = getattr(owner, target.attr)
                restore.append((owner, target.attr,
                                vars(owner).get(target.attr), own))
                setattr(owner, target.attr, _wrap(original, target))
            else:
                original = getattr(owner, target.attr)
                wrapper = _wrap(original, target)
                for module, attr in _bindings(original):
                    restore.append((module, attr, original, True))
                    setattr(module, attr, wrapper)
        yield
    finally:
        for owner, attr, original, own in reversed(restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# --------------------------------------------------------------------------
# Self time and the per-layer table
# --------------------------------------------------------------------------

def _spans(records) -> list[dict]:
    return [record for record in records if record.get("type") == "span"]


def subtree(records, root_name: str = ROOT_SPAN) -> tuple[dict, list[dict]]:
    """The last span named ``root_name`` and every span nested under it
    (across processes: worker shard spans name the plan span as parent)."""
    spans = _spans(records)
    roots = [span for span in spans if span["name"] == root_name]
    if not roots:
        raise ValueError(f"no {root_name!r} span in the trace")
    root = roots[-1]
    children: dict[str, list[dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent"), []).append(span)
    found, stack = [], [root]
    while stack:
        span = stack.pop()
        found.append(span)
        stack.extend(children.get(span["span"], ()))
    return root, found


def exclusive_times(records, root_name: str = ROOT_SPAN
                    ) -> tuple[dict, dict[str, float]]:
    """Exclusive wall time of every span under the root, keyed by span id.

    Each instant of the root's interval is charged to the deepest span
    active at that instant, so for sequentially nested spans a span's share
    is its duration minus the part of it its children cover, and the shares
    of all spans add up to the root's duration.  Concurrent children (the
    shards of two workers) are charged once per instant, not once per
    worker.  Child intervals are clipped to their parent's.
    """
    root, spans = subtree(records, root_name)
    by_id = {span["span"]: span for span in spans}
    depth: dict[str, int] = {}
    interval: dict[str, tuple[float, float]] = {}

    def place(span) -> None:
        if span["span"] in depth:
            return
        start, end = span["t0"], span["t0"] + span["dur"]
        parent = by_id.get(span.get("parent")) if span is not root else None
        if parent is None:
            depth[span["span"]] = 0
        else:
            place(parent)
            depth[span["span"]] = depth[parent["span"]] + 1
            low, high = interval[parent["span"]]
            start, end = min(max(start, low), high), max(min(end, high), low)
        interval[span["span"]] = (start, end)

    for span in spans:
        place(span)
    events = sorted({edge for pair in interval.values() for edge in pair})
    starts: dict[float, list[str]] = {}
    ends: dict[float, list[str]] = {}
    for span_id, (start, end) in interval.items():
        if end > start:
            starts.setdefault(start, []).append(span_id)
            ends.setdefault(end, []).append(span_id)
    exclusive = dict.fromkeys(interval, 0.0)
    active: dict[str, tuple[int, float]] = {}
    for left, right in zip(events, events[1:]):
        for span_id in ends.get(left, ()):
            active.pop(span_id, None)
        for span_id in starts.get(left, ()):
            active[span_id] = (depth[span_id], -interval[span_id][0])
        if active:
            deepest = max(active, key=active.__getitem__)
            exclusive[deepest] += right - left
    return root, exclusive


def group_of(name: str) -> str:
    for group, prefixes in LAYER_GROUPS:
        if name.startswith(prefixes):
            return group
    return "unattributed"


def self_time_table(records, root_name: str = ROOT_SPAN
                    ) -> tuple[float, dict[str, float]]:
    """``(root duration, {layer group: exclusive seconds})``; the groups,
    ``unattributed`` included, add up to the root duration."""
    root, exclusive = exclusive_times(records, root_name)
    _, spans = subtree(records, root_name)
    names = {span["span"]: span["name"] for span in spans}
    table = dict.fromkeys([group for group, _ in LAYER_GROUPS]
                          + ["unattributed"], 0.0)
    for span_id, seconds in exclusive.items():
        table[group_of(names[span_id])] += seconds
    return root["dur"], table


def format_table(title: str, wall: float, table: dict[str, float]) -> str:
    lines = [f"{title}: per-layer self time (traced wall {wall:.3f} s)"]
    for group, seconds in table.items():
        share = seconds / wall if wall > 0 else 0.0
        lines.append(f"  {group:<14} {seconds:9.3f} s  {share:6.1%}")
    lines.append(f"  {'total':<14} {sum(table.values()):9.3f} s")
    return "\n".join(lines)


def _metrics_snapshot(records) -> dict:
    merged = obs.MetricsRegistry()
    for record in records:
        if record.get("type") == "metrics":
            merged.merge_snapshot(record.get("snapshot", {}))
    return merged.snapshot()


def _value(snapshot: dict, name: str, field: str = "value") -> float:
    entry = snapshot.get(name)
    return float(entry.get(field) or 0) if entry else 0.0


def exec_metrics(spans: list[dict]) -> dict[str, float]:
    """Busy, abandoned, idle and tail-wait time of the exec plans."""
    plans = [span for span in spans if span["name"] == "exec.plan"]
    shards: dict[str, list[dict]] = {}
    for span in spans:
        if span["name"] == "exec.shard":
            shards.setdefault(span.get("parent"), []).append(span)
    busy = abandoned = capacity = tail = 0.0
    for plan in plans:
        workers = (plan.get("attrs") or {}).get("workers") or 1
        mine = shards.get(plan["span"], [])
        useful = [shard for shard in mine if not shard.get("abandoned")]
        busy += sum(shard["dur"] for shard in useful)
        abandoned += sum(shard["dur"] for shard in mine
                         if shard.get("abandoned"))
        capacity += workers * plan["dur"]
        if useful:
            last = max(shard["t0"] + shard["dur"] for shard in useful)
            tail += max(plan["t0"] + plan["dur"] - last, 0.0)
    worked = busy + abandoned
    return {
        "exec.plan_s": sum(plan["dur"] for plan in plans),
        "exec.shard_busy_s": busy,
        "exec.abandoned_s": abandoned,
        "exec.useful_frac": busy / worked if worked > 0 else 0.0,
        "exec.idle_frac": (max(capacity - worked, 0.0) / capacity
                           if capacity > 0 else 0.0),
        "exec.tail_wait_s": tail,
    }


def layer_metrics(unit_records, setup_records, untraced_wall: float
                  ) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced unit.

    ``artifacts.*`` also count the traced set-up, where the zoo checkpoint
    of ``fer_fleet`` is written and first read back; everything else covers
    the traced unit only.
    """
    wall, table = self_time_table(unit_records)
    _, spans = subtree(unit_records)
    snapshot = _metrics_snapshot(unit_records)

    def total(name, field=None):
        chosen = [span for span in spans if span["name"] == name]
        if field is None:
            return sum(span["dur"] for span in chosen)
        return sum((span.get("attrs") or {}).get(field, 0) for span in chosen)

    values: dict[str, float] = {f"self.{group}_s": seconds
                                for group, seconds in table.items()}
    values["obs.traced_wall_s"] = wall
    values["obs.untraced_wall_s"] = untraced_wall
    values["obs.trace_overhead_frac"] = wall / untraced_wall - 1.0
    values.update({
        "data.generate_s": total("data.generate"),
        "data.batch_s": total("data.batch"),
        "flash.read_s": total("flash.read"),
        "flash.cells": total("flash.read", "cells"),
        "train.steps": float(sum(span["name"] == "train.step"
                                 for span in spans)),
        "train.forward_s": total("train.forward"),
        "train.backward_s": total("train.backward"),
        "train.optimizer_s": total("train.optimizer"),
    })
    for kernel in KERNELS:
        name = f"nn.kernel.{kernel}"
        values[f"{name}_s"] = _value(snapshot, name, "total")
        values[f"{name}_calls"] = _value(snapshot, name, "count")
    values["nn.interp_residual_s"] = (total("train.step")
                                      - total("train.step", "kernel_s"))
    optimizer_s = total("train.optimizer")
    values["optim.adam_gbps"] = (
        ADAM_BYTES_PER_PARAM * total("train.optimizer", "params")
        / optimizer_s / 1e9 if optimizer_s > 0 else 0.0)
    values["nn.arena_peak_bytes"] = _value(snapshot, "nn.arena.peak_bytes")
    for backend in CHANNEL_BACKENDS:
        values[f"channel.read_s.{backend}"] = total(f"channel.read.{backend}")
        values[f"channel.cells.{backend}"] = total(f"channel.read.{backend}",
                                                   "cells")
    lookups = _value(snapshot, "bench.cache.lookups")
    values["channel.cache_hit_frac"] = (
        _value(snapshot, "bench.cache.hits") / lookups if lookups else 0.0)
    values["baselines.fit_s"] = total("baselines.fit")
    for figure in ("fig2", "fig4", "fig5", "fig6"):
        values[f"experiment.{figure}_s"] = total(f"experiment.{figure}")
    values["eval.fidelity_s"] = total("eval.fidelity")
    decoded = total("ecc.decode.ldpc", "frames")
    values.update({
        "ecc.encode_s": total("ecc.encode"),
        "ecc.llr_s": total("ecc.llr"),
        "ecc.decode_s.ldpc": total("ecc.decode.ldpc"),
        "ecc.decode_s.bch": total("ecc.decode.bch"),
        "ecc.frames": total("ecc.campaign", "frames"),
        "ecc.ldpc_iterations_mean": (total("ecc.decode.ldpc", "iterations")
                                     / decoded if decoded else 0.0),
    })
    values.update(exec_metrics(spans))
    for metric, counter in (("exec.dispatches", "dispatches"),
                            ("exec.steals", "steals"),
                            ("exec.speculations", "duplicates"),
                            ("exec.dedups", "deduplicated"),
                            ("exec.retries", "retries"),
                            ("exec.worker_deaths", "worker_deaths")):
        values[metric] = _value(snapshot, f"exec.fleet.{counter}")
    values["exec.bytes_sent"] = _value(snapshot, "exec.transport.bytes_sent")
    values["exec.bytes_received"] = _value(snapshot,
                                           "exec.transport.bytes_received")
    values["exec.messages"] = (
        _value(snapshot, "exec.transport.messages_sent")
        + _value(snapshot, "exec.transport.messages_received"))
    zoo = _spans(setup_records) + spans
    for metric, name in (("artifacts.save_s", "artifacts.save"),
                         ("artifacts.load_s", "artifacts.load")):
        values[metric] = sum(span["dur"] for span in zoo
                             if span["name"] == name)
    return {name: float(values[name]) for name, _ in PER_LAYER}
