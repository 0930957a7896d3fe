"""JSON-lines trace sink and the trace-record schema.

One trace file is one tracing session: a stream of independent JSON
objects, one per line, in emission order.  Four record types exist; the
schema below is what the ``python -m repro.obs validate`` command (and the
CI ``obs-smoke`` job) checks:

``meta``
    ``{"type": "meta", "trace", "t0", "pid", "argv"}`` — one per tracer.
``span``
    ``{"type": "span", "trace", "span", "parent", "name", "t0", "dur",
    "pid", "tid"}`` plus optional ``attrs`` (dict) and ``error`` (exception
    class name).
``event``
    ``{"type": "event", "trace", "name", "ts", "pid"}`` plus optional
    ``parent``/``attrs`` — instantaneous scheduler facts (retries, unacked
    re-queues, heartbeat timeouts and worker deaths).
``metrics``
    ``{"type": "metrics", "trace", "scope", "pid", "snapshot"}`` where
    ``snapshot`` maps metric names to the plain-dict snapshots produced by
    :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Iterator, List, Tuple

# type -> (required field -> allowed value types)
TRACE_SCHEMA: Dict[str, Dict[str, tuple]] = {
    "meta": {"trace": (str,), "t0": (int, float), "pid": (int,),
             "argv": (list,)},
    "span": {"trace": (str,), "span": (str,), "name": (str,),
             "t0": (int, float), "dur": (int, float), "pid": (int,),
             "tid": (int,)},
    "event": {"trace": (str,), "name": (str,), "ts": (int, float),
              "pid": (int,)},
    "metrics": {"trace": (str,), "scope": (str,), "pid": (int,),
                "snapshot": (dict,)},
}

_METRIC_TYPES = {"counter", "gauge", "histogram"}


class JsonlSink:
    """Thread-safe JSONL writer for one tracing session, flushed per record
    so a dying process still leaves complete lines behind.

    Opening a path truncates it, so a trace file holds exactly one
    session: a second session on the same path replaces the first, never
    adds its records to it.
    """

    def __init__(self, path: Any) -> None:
        self.path = path
        self._file = open(path, "w", encoding="utf-8")
        self._lock = threading.Lock()

    def write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self._lock:
            self._file.write(line + "\n")
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.close()
        return False


def validate_record(record: Any) -> List[str]:
    """Schema errors for one record (empty list == valid)."""
    if not isinstance(record, dict):
        return ["record is not an object"]
    kind = record.get("type")
    schema = TRACE_SCHEMA.get(kind)
    if schema is None:
        return [f"unknown record type {kind!r}"]
    errors = []
    for field, types in schema.items():
        if field not in record:
            errors.append(f"{kind}: missing field {field!r}")
        elif not isinstance(record[field], types):
            errors.append(
                f"{kind}: field {field!r} has type "
                f"{type(record[field]).__name__}")
    if kind == "metrics":
        for name, entry in record.get("snapshot", {}).items():
            if not isinstance(entry, dict) \
                    or entry.get("type") not in _METRIC_TYPES:
                errors.append(f"metrics: bad snapshot entry {name!r}")
    return errors


def iter_trace(path: Any) -> Iterator[Dict[str, Any]]:
    """Yield records from a trace file, raising on malformed JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def read_trace(path: Any) -> List[Dict[str, Any]]:
    return list(iter_trace(path))


def validate_trace(path: Any) -> Tuple[int, List[str]]:
    """Validate a whole file; returns ``(record_count, errors)``."""
    count = 0
    errors: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            count += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                errors.append(f"line {lineno}: invalid JSON ({error})")
                continue
            errors.extend(f"line {lineno}: {msg}"
                          for msg in validate_record(record))
    return count, errors
