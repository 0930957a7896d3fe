"""Shard-execution worker process (``python -m repro.exec.worker``).

A worker is one member of a :class:`repro.exec.RemoteExecutor` fleet.  It
speaks the length-prefixed transport of :mod:`repro.exec.transport` in one
of two topologies:

``--connect HOST:PORT``
    Dial back into a waiting parent (the executor spawns localhost workers
    this way: it listens on an ephemeral port and each worker connects in).

``--serve [HOST:]PORT``
    Listen on an address and serve parents one connection at a time — the
    multi-host shape: start serving workers on each machine, then point
    ``RemoteExecutor(hosts=[...])`` at them.

Session protocol (every frame a pickled message):

1. worker → ``("hello", {"pid", "protocol"})`` — version handshake;
2. parent → ``("init", {"sys_path", "cwd", "main_path",
   "heartbeat_interval"})`` — the parent's import paths, applied before any
   shard is unpickled so plan tasks defined outside the installed package
   (test modules, scripts) resolve exactly as they would in a
   :class:`concurrent.futures.ProcessPoolExecutor` worker;
3. repeated: parent → ``("shard", ShardSpec)``; worker → ``("ack", index)``
   the moment the shard is in hand (so the parent can tell a lost dispatch
   from a death mid-execution), then runs it on the process's shard thread
   and sends ``("result", ShardResult)`` or ``("error", index, exc_bytes,
   traceback, diagnostics)``.  While the shard runs, the session thread
   sends ``("heartbeat",)`` every ``heartbeat_interval`` seconds so the
   parent can detect a silent stall; it is the only writer, so no heartbeat
   ever trails the terminal frame.  The parent sends nothing while a shard
   runs, so a worker notices a parent that vanished mid-shard when a
   heartbeat (or the terminal frame) fails to send — the shard thread
   finishes the abandoned chunk regardless, and the next session's first
   shard waits for it;
4. parent → ``("ping",)`` between runs, answered with ``("pong",)`` — the
   parent's health probe of a reused connection;
5. parent → ``("shutdown",)`` ends the session.

A result frame carries the shard's per-unit results and, when traced, its
obs envelope; condition-cache entries the shard computed stay here.  The
chunks of one run share one context, unpickled on the worker's first
chunk of the run and reused by the rest (see
:class:`repro.exec.ShardSpec`).  A context holding a
:class:`repro.exec.ChannelRef` cold-starts its channel from the on-disk
model zoo here, on the worker, so the wire carries a path instead of a
pickled model.

``--log-file PATH`` appends structured JSONL events (start, connect,
session, per-shard, errors) to ``PATH``.  The ``start`` event is written
*before* the dial-back connect, so a worker that dies pre-handshake — a
broken environment, an import error, an unreachable parent — still leaves
evidence on disk where previously it vanished silently.  Error-level
events are additionally mirrored to stderr as single JSON lines.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import pickle
import sys
import time
import traceback
from typing import Any, Mapping

from repro.exec import executors, transport

__all__ = ["WorkerLog", "serve_connection", "main"]


class WorkerLog:
    """Structured JSONL event log for one worker process.

    Every event goes to the log file (when one was given); ``error``-level
    events also go to stderr so a parentless death is visible in the
    spawning terminal / CI log without the file in hand.  With no path this
    degrades to the legacy behaviour: errors on stderr, nothing else.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._file = open(path, "a", encoding="utf-8") if path else None

    def log(self, event: str, *, level: str = "info", **fields: Any) -> None:
        record = {"ts": time.time(), "pid": os.getpid(), "level": level,
                  "event": event, **fields}
        line = json.dumps(record, default=str)
        if self._file is not None:
            try:
                self._file.write(line + "\n")
                self._file.flush()
            except OSError:  # pragma: no cover - disk full / file yanked
                pass
        if level == "error":
            print(f"repro-exec-worker: {line}", file=sys.stderr, flush=True)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def _last_span_name() -> str | None:
    """The most recent span the in-process tracer entered, if obs is live."""
    trace_mod = sys.modules.get("repro.obs.trace")
    if trace_mod is None:
        return None
    return trace_mod.last_span_name()


def _apply_init(options: Mapping[str, Any]) -> None:
    """Adopt the parent's import paths, working directory and main module."""
    for entry in reversed(list(options.get("sys_path", ()))):
        if entry and entry not in sys.path:
            sys.path.insert(0, entry)
    cwd = options.get("cwd")
    if cwd and os.path.isdir(cwd):
        os.chdir(cwd)
    _fixup_main_module(options.get("main_path"))


#: The parent script currently installed as ``__main__``/``__mp_main__``.
#: A persistent ``--serve`` worker outlives its first parent; tracking the
#: path (rather than just "a fixup happened") lets a later parent running a
#: *different* script replace the binding instead of silently unpickling its
#: ``__main__`` tasks against the previous parent's code.
_main_fixup_path: str | None = None


def _fixup_main_module(main_path: Any) -> None:
    """Re-import the parent's ``__main__`` script, as spawned pools do.

    A plan task defined in the parent's top-level script pickles as
    ``__main__.<name>``; this loads that script under ``__mp_main__`` (so
    its ``if __name__ == "__main__"`` guard stays false, exactly the
    :mod:`multiprocessing` spawn convention) and aliases it as
    ``__main__`` for unpickling.  Console entry points and interactive
    parents (no real ``.py`` path) are skipped — their tasks must live in
    importable modules, the same rule every spawn-based pool imposes.
    While the script runs, starting a pool or fleet raises
    :class:`RuntimeError` naming the script and its missing
    ``if __name__ == "__main__":`` guard; the error is reported on stderr
    and the worker keeps serving.
    """
    global _main_fixup_path

    if (not main_path or not str(main_path).endswith(".py")
            or not os.path.exists(main_path)
            or os.path.abspath(main_path) == _main_fixup_path):
        return
    import runpy
    import types

    executors._reimporting_main = os.path.abspath(main_path)
    try:
        namespace = runpy.run_path(main_path, run_name="__mp_main__")
    except BaseException as error:
        print(f"repro-exec-worker: could not load parent main module "
              f"{main_path}: {error}", file=sys.stderr, flush=True)
        return
    finally:
        executors._reimporting_main = None
    module = types.ModuleType("__mp_main__")
    module.__dict__.update(namespace)
    sys.modules["__mp_main__"] = sys.modules["__main__"] = module
    _main_fixup_path = os.path.abspath(main_path)


def _pickled_exception(error: BaseException) -> bytes:
    """The exception as bytes, downgraded when it does not pickle."""
    try:
        return pickle.dumps(error)
    except Exception:
        return pickle.dumps(
            RuntimeError(f"{type(error).__name__}: {error}"))


def _error_diagnostics() -> dict[str, Any]:
    """Who failed and where: rides as the error message's fifth element.

    The parent folds these into the retry-exhaustion note, so the operator
    learns *which* worker gave up and what it was last doing without
    hunting through per-worker log files.
    """
    return {"pid": os.getpid(), "last_span": _last_span_name()}


#: Runs every shard this process executes, one at a time.  Off the session
#: thread: that thread is the connection's only writer, so it must stay
#: free to send heartbeats while a shard runs.  And always the same
#: thread, so a :class:`repro.exec.ChannelRef` — resolved once per thread —
#: is cold-started once per worker.
_shard_thread: concurrent.futures.ThreadPoolExecutor | None = None


def _run_shard(spec, conn: transport.Connection, log: WorkerLog,
               heartbeat_interval: float) -> None:
    """Run one shard on the shard thread, then send its terminal
    ``result``/``error`` frame.

    While the shard runs, the session thread sends ``("heartbeat",)`` every
    ``heartbeat_interval`` seconds (0 disables them).  It is the only
    thread that writes to the connection, so no heartbeat can trail the
    terminal frame, where the parent's next health probe would read it
    instead of its ``pong``.
    """
    global _shard_thread

    if _shard_thread is None:
        _shard_thread = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-shard")
    future = _shard_thread.submit(spec.run)
    while not concurrent.futures.wait(
            [future], timeout=heartbeat_interval or None).done:
        conn.send(("heartbeat",))
    try:
        result = future.result()
    except Exception as error:
        log.log("shard_error", level="error", shard=spec.index,
                error=f"{type(error).__name__}: {error}",
                last_span=_last_span_name())
        message = ("error", spec.index, _pickled_exception(error),
                   traceback.format_exc(), _error_diagnostics())
    else:
        log.log("shard_done", shard=spec.index,
                units_done=len(result.results))
        message = ("result", result)
    conn.send(message)


def serve_connection(conn: transport.Connection,
                     log: WorkerLog | None = None) -> None:
    """Run one parent session over an established connection."""
    if log is None:
        log = WorkerLog()
    conn.send(("hello", {"pid": os.getpid(),
                         "protocol": transport.PROTOCOL_VERSION}))
    log.log("session_start", peer=conn.peer)
    heartbeat_interval = 0.0
    while True:
        try:
            message = conn.recv()
        except transport.TransportClosedError:
            log.log("session_end", peer=conn.peer, reason="closed")
            return
        except transport.TransportError as error:
            # Bad magic / oversized frame: the stream is desynchronized
            # and nothing further on it can be trusted — end the session
            # (the parent sees the close as a worker loss and re-queues).
            log.log("desynchronized_stream", level="error", error=str(error))
            return
        except Exception as error:
            # The frame arrived but its payload would not unpickle (e.g.
            # a task module this worker cannot import).  The framing is
            # intact, so report and keep the session alive; the parent
            # retries the shard elsewhere.
            log.log("unpicklable_frame", level="error", error=str(error))
            conn.send(("error", None, _pickled_exception(error),
                       traceback.format_exc(), _error_diagnostics()))
            continue
        kind = message[0]
        if kind == "init":
            options = message[1]
            heartbeat_interval = float(
                options.get("heartbeat_interval") or 0.0)
            _apply_init(options)
        elif kind == "ping":
            conn.send(("pong",))
        elif kind == "shutdown":
            log.log("session_end", peer=conn.peer, reason="shutdown")
            return
        elif kind == "shard":
            spec = message[1]
            conn.send(("ack", spec.index))
            log.log("shard_start", shard=spec.index, units=len(spec.units),
                    traced=spec.trace is not None)
            _run_shard(spec, conn, log, heartbeat_interval)
        else:
            conn.send(("error", None,
                       _pickled_exception(
                           RuntimeError(f"unknown message kind {kind!r}")),
                       "", _error_diagnostics()))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.worker",
        description="Shard-execution worker for repro.exec.RemoteExecutor.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--connect", metavar="HOST:PORT",
                      help="dial back into a waiting RemoteExecutor")
    mode.add_argument("--serve", metavar="[HOST:]PORT",
                      help="listen and serve parents one at a time "
                           "(port 0 picks a free port)")
    parser.add_argument("--timeout", type=float, default=10.0,
                        help="connect timeout in seconds (--connect mode)")
    parser.add_argument("--once", action="store_true",
                        help="exit after the first parent session "
                             "(--serve mode)")
    parser.add_argument("--log-file", metavar="PATH",
                        help="append structured JSONL events to PATH "
                             "(written from process start, so even a "
                             "pre-handshake death leaves evidence)")
    args = parser.parse_args(argv)

    log = WorkerLog(args.log_file)
    # Logged before any connect: a worker that dies dialing in (or even
    # importing the plan's modules) is otherwise indistinguishable from one
    # that never started.
    log.log("start", argv=list(argv) if argv is not None else sys.argv[1:])
    try:
        if args.connect:
            try:
                conn = transport.connect(args.connect, timeout=args.timeout)
            except transport.TransportError as error:
                log.log("connect_failed", level="error",
                        address=args.connect, error=str(error))
                raise SystemExit(1)
            log.log("connected", address=args.connect)
            try:
                serve_connection(conn, log)
            except transport.TransportError as error:
                # The parent went away; a dial-back worker just exits.
                log.log("parent_lost", peer=conn.peer, error=str(error))
            finally:
                conn.close()
            log.log("exit")
            return

        host, port = transport.parse_address(args.serve)
        sock = transport.listen(host, port)
        host, port = sock.getsockname()[:2]
        address = transport.format_address(host, port)
        # Machine-readable so launch scripts (and tests) can discover the
        # port when --serve was given port 0.
        print(f"repro-exec-worker listening on {address}", flush=True)
        log.log("listening", address=address)
        try:
            while True:
                client, _ = sock.accept()
                conn = transport.Connection.from_socket(client)
                try:
                    serve_connection(conn, log)
                except transport.TransportError as error:
                    # The parent vanished mid-session (crash, or a
                    # connection it cut).  A persistent server outlives
                    # its parents: log and accept the next one.
                    log.log("parent_lost", level="error", peer=conn.peer,
                            error=str(error))
                finally:
                    conn.close()
                if args.once:
                    log.log("exit")
                    return
        except KeyboardInterrupt:  # pragma: no cover - operator shutdown
            pass
        finally:
            sock.close()
    finally:
        log.close()


if __name__ == "__main__":
    main()
