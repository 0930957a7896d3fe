"""Trace summarization and Chrome-trace export.

Consumes the record stream defined in :mod:`repro.obs.sink` and produces:

- :func:`summarize` — per-span-name phase breakdown, the shard timeline
  (with retry and worker-death events), merged metric totals and the top-N
  kernels by cumulative time;
- :func:`format_summary` — the human layout ``python -m repro.obs
  summarize`` prints;
- :func:`chrome_trace` — a ``chrome://tracing`` / Perfetto-loadable JSON
  object (complete ``"X"`` events for spans, instant ``"i"`` events for
  scheduler facts).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.obs.metrics import MetricsRegistry


def summarize(records: Iterable[Dict[str, Any]],
              top_kernels: int = 10) -> Dict[str, Any]:
    spans: Dict[str, Dict[str, Any]] = {}
    shards: List[Dict[str, Any]] = []
    events: Dict[str, int] = {}
    event_list: List[Dict[str, Any]] = []
    pids = set()
    registry = MetricsRegistry()
    meta: Dict[str, Any] = {}

    for record in records:
        kind = record.get("type")
        if kind == "meta" and not meta:
            meta = record
        elif kind == "span":
            pids.add(record.get("pid"))
            name = record.get("name", "?")
            agg = spans.setdefault(
                name, {"count": 0, "total": 0.0, "max": 0.0, "errors": 0})
            duration = float(record.get("dur", 0.0))
            agg["count"] += 1
            agg["total"] += duration
            agg["max"] = max(agg["max"], duration)
            if record.get("error"):
                agg["errors"] += 1
            if name == "exec.shard":
                attrs = record.get("attrs", {})
                shards.append({
                    "shard": attrs.get("shard"),
                    "units": attrs.get("units"),
                    "pid": record.get("pid"),
                    "t0": record.get("t0"),
                    "dur": duration,
                })
        elif kind == "event":
            name = record.get("name", "?")
            events[name] = events.get(name, 0) + 1
            event_list.append(record)
        elif kind == "metrics":
            registry.merge_snapshot(record.get("snapshot", {}))

    shards.sort(key=lambda entry: (entry["t0"] or 0.0, entry["shard"] or 0))
    snapshot = registry.snapshot()
    kernels = sorted(
        ({"kernel": name[len("nn.kernel."):],
          "calls": entry["count"],
          "total_s": entry["total"],
          "max_s": entry["max"]}
         for name, entry in snapshot.items()
         if name.startswith("nn.kernel.") and entry["type"] == "histogram"),
        key=lambda item: -item["total_s"])

    return {
        "trace": meta.get("trace"),
        "pids": sorted(pid for pid in pids if pid is not None),
        "spans": {name: spans[name] for name in sorted(spans)},
        "shards": shards,
        "events": events,
        "event_detail": event_list,
        "metrics": snapshot,
        "kernels": kernels[:top_kernels],
    }


def format_summary(summary: Dict[str, Any]) -> str:
    lines = [f"trace {summary.get('trace')}: "
             f"{len(summary['shards'])} shard span(s) across "
             f"{len(summary['pids'])} process(es)"]

    lines.append("")
    lines.append("per-phase breakdown (by span name):")
    lines.append(f"  {'span':<28} {'count':>6} {'total_s':>10} {'max_s':>10}")
    for name, agg in summary["spans"].items():
        suffix = f"  errors={agg['errors']}" if agg["errors"] else ""
        lines.append(f"  {name:<28} {agg['count']:>6} {agg['total']:>10.4f} "
                     f"{agg['max']:>10.4f}{suffix}")

    if summary["shards"]:
        origin = min(entry["t0"] for entry in summary["shards"])
        lines.append("")
        lines.append("shard timeline:")
        for entry in summary["shards"]:
            lines.append(
                f"  shard {entry['shard']!s:>4}  pid {entry['pid']}  "
                f"+{entry['t0'] - origin:7.3f}s  {entry['dur']:8.4f}s  "
                f"{entry['units']} unit(s)")

    if summary["events"]:
        lines.append("")
        lines.append("scheduler events: " + ", ".join(
            f"{name}={count}" for name, count in sorted(
                summary["events"].items())))

    if summary["kernels"]:
        lines.append("")
        lines.append("top kernels by cumulative time:")
        for entry in summary["kernels"]:
            lines.append(f"  {entry['kernel']:<28} {entry['calls']:>7} calls "
                         f"{entry['total_s']:>10.4f}s total "
                         f"{entry['max_s']:>9.5f}s max")

    fleet = {name: value for name, value in summary["metrics"].items()
             if name.startswith(("exec.fleet.", "exec.transport."))}
    if fleet:
        lines.append("")
        lines.append("fleet counters: " + ", ".join(
            f"{name.split('.', 1)[1]}={entry['value']}"
            for name, entry in sorted(fleet.items())))
    return "\n".join(lines)


def chrome_trace(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Export to the Chrome Trace Event JSON format (``chrome://tracing``)."""
    records = list(records)
    origins = [r["t0"] for r in records if r.get("type") == "span"]
    origins += [r["ts"] for r in records if r.get("type") == "event"]
    origin = min(origins) if origins else 0.0

    trace_events: List[Dict[str, Any]] = []
    for record in records:
        kind = record.get("type")
        if kind == "span":
            args = dict(record.get("attrs", {}))
            if record.get("error"):
                args["error"] = record["error"]
            trace_events.append({
                "name": record["name"],
                "ph": "X",
                "ts": (record["t0"] - origin) * 1e6,
                "dur": record["dur"] * 1e6,
                "pid": record["pid"],
                "tid": record.get("tid", 0),
                "cat": "span",
                "args": args,
            })
        elif kind == "event":
            trace_events.append({
                "name": record["name"],
                "ph": "i",
                "s": "g",
                "ts": (record["ts"] - origin) * 1e6,
                "pid": record["pid"],
                "tid": 0,
                "cat": "event",
                "args": dict(record.get("attrs", {})),
            })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
