"""Distributed shard execution over a worker fleet (``"remote"`` backend).

:class:`RemoteExecutor` fans a plan's :class:`~repro.exec.ShardSpec`\\ s out
to a fleet of ``python -m repro.exec.worker`` processes over the
length-prefixed transport of :mod:`repro.exec.transport`.  Two topologies:

* **Spawned localhost fleet** (default): the executor listens on an
  ephemeral port and launches ``workers`` subprocesses that dial back in —
  zero configuration, and the shape the CI smoke job runs.
* **Pre-started hosts**: pass ``hosts=["hostA:7070", "hostB:7070"]`` to
  connect to serving workers (``python -m repro.exec.worker --serve``),
  the multi-host deployment shape.

Scheduling is a shared queue of the engine's guided chunks
(:meth:`~repro.exec.MonteCarloPlan.chunks`): each worker's drive thread
pulls the next chunk, in order, whenever its worker goes idle — the only
load balancing there is.  Three robustness mechanisms ride on the queue:

* **Acknowledgement** — a worker acks every shard on receipt, so the parent
  can tell a dispatch that never arrived from a death mid-execution: an
  un-acked dispatch is re-queued without consuming the shard's retry budget.
* **Bounded retry** — a shard whose worker raised or died is re-queued up to
  ``max_retries`` times; exhaustion re-raises the original worker exception
  with the worker traceback attached as a note.
* **Heartbeats** — a worker running a shard beacons every
  ``heartbeat_interval`` seconds; a worker silent past ``heartbeat_timeout``
  (wedged, preempted, partitioned) is drained exactly like a death, so a
  silent stall can never hold the sweep hostage.

A run's fleet is fixed once it starts: workers that die or time out are
drained mid-run and the sweep completes on the survivors, and
:meth:`RemoteExecutor.map_shards` replaces them before the next run.

None of this can change the numbers: shard results are deterministic
functions of the plan (randomness is anchored per unit), so retries,
chunking and fleet size leave the output bit-identical to
:class:`~repro.exec.SerialExecutor` — the same contract every other backend
honours, enforced by ``tests/exec/test_executor_conformance.py`` and
``tests/exec/test_elastic.py``.

Contexts holding a :class:`~repro.exec.ChannelRef` ship a checkpoint path
instead of a live model; each worker cold-starts the channel from the
on-disk zoo (:mod:`repro.artifacts`) once and reuses it across its shards.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
from collections import deque
from pathlib import Path
from typing import Any

from repro.exec.executors import (Executor, _check_not_reimporting_main,
                                  register_executor)
from repro.exec.plan import ShardResult, ShardSpec
from repro.exec.transport import (
    PROTOCOL_VERSION,
    Connection,
    TransportConnectError,
    TransportError,
    TransportTimeoutError,
    connect,
    listen,
)
from repro.obs import context as obs_context
from repro.obs import trace as obs_trace

__all__ = ["RemoteExecutor", "RemoteExecutorError"]


def _worker_label(worker: Any) -> str:
    """A human-readable fleet-member id for trace events and notes."""
    process = getattr(worker, "process", None)
    if process is not None:
        return f"pid {process.pid}"
    address = getattr(worker, "address", None)
    if address:
        return str(address)
    conn = getattr(worker, "conn", None)
    if conn is not None:
        return str(conn.peer)
    return "?"


class RemoteExecutorError(RuntimeError):
    """Fleet-level failure: every worker lost with shards still incomplete."""


class _Worker:
    """One fleet member: its connection plus, when spawned, its process."""

    def __init__(self, conn: Connection,
                 process: subprocess.Popen | None = None,
                 address: str | None = None):
        self.conn = conn
        self.process = process
        self.address = address
        self.alive = True
        #: True while a shard is out on this worker (set by its drive thread).
        self.busy = False

    def dead(self) -> bool:
        return (not self.alive or self.conn.closed
                or (self.process is not None
                    and self.process.poll() is not None))

    def close(self, shutdown: bool = True) -> None:
        self.alive = False
        graceful = shutdown and not self.conn.closed
        if graceful:
            try:
                self.conn.send(("shutdown",))
            except TransportError:
                graceful = False
        self.conn.close()
        if self.process is not None:
            if not graceful:
                # A worker torn down without a goodbye may be unable to
                # exit on its own — a SIGSTOPped (preempted) process never
                # sees the closed socket.
                self.process.kill()
            try:
                self.process.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck
                self.process.kill()
                self.process.wait()


class _ShardScheduler:
    """Thread-safe in-order shard queue with acknowledgement-aware retry.

    One instance serves one ``map_shards`` call; each worker's drive thread
    pulls work via :meth:`next_shard` and reports through
    :meth:`completed` / :meth:`errored` / :meth:`worker_lost`.
    """

    def __init__(self, shards: list[ShardSpec], *, max_retries: int):
        self.max_retries = max_retries
        self._cond = threading.Condition()
        self._pending = deque(shards)
        self._total = len(shards)
        self._results: dict[int, ShardResult] = {}
        self._failures: dict[int, list[tuple[BaseException, str]]] = {}
        self._registered = 0
        self.fatal_error: BaseException | None = None
        self.fatal_note: str | None = None
        self.stats = {"dispatches": 0, "acks": 0, "retries": 0,
                      "unacked_redispatches": 0, "worker_deaths": 0,
                      "heartbeats": 0, "heartbeat_timeouts": 0}

    # -- worker lifecycle --------------------------------------------------

    def register_worker(self) -> None:
        with self._cond:
            self._registered += 1
            obs_context.record_fleet_size(self._registered)
            self._cond.notify_all()

    def deregister_worker(self) -> None:
        with self._cond:
            self._registered -= 1
            if self._registered == 0 and not self._finished():
                incomplete = self._total - len(self._results)
                self.fatal_error = RemoteExecutorError(
                    f"every remote worker was lost with {incomplete} "
                    f"shard(s) incomplete")
                if self._failures:
                    last = list(self._failures.values())[-1][-1]
                    self.fatal_note = ("last worker failure:\n" + last[1])
            self._cond.notify_all()

    # -- dispatch ----------------------------------------------------------

    def _finished(self) -> bool:
        return len(self._results) == self._total or self.fatal_error is not None

    def next_shard(self) -> ShardSpec | None:
        """Block until there is a shard to dispatch (None: run is over).

        Shards leave the queue in order; a worker with nothing to pull waits
        for a retry to re-queue one or for the run to end.
        """
        with self._cond:
            while not self._finished():
                if self._pending:
                    self.stats["dispatches"] += 1
                    return self._pending.popleft()
                self._cond.wait()
            return None

    # -- outcomes ----------------------------------------------------------

    def acked(self) -> None:
        with self._cond:
            self.stats["acks"] += 1

    def heartbeat(self) -> None:
        with self._cond:
            self.stats["heartbeats"] += 1

    def completed(self, result: ShardResult) -> None:
        with self._cond:
            self._results[result.index] = result
            self._cond.notify_all()

    def errored(self, worker: _Worker, spec: ShardSpec,
                error: BaseException, worker_traceback: str,
                diagnostics: dict | None = None) -> None:
        with self._cond:
            self._record_failure(worker, spec, error, worker_traceback,
                                 diagnostics)
            self._cond.notify_all()

    def worker_lost(self, worker: _Worker, spec: ShardSpec,
                    error: TransportError, acked: bool = True,
                    timed_out: bool = False) -> None:
        """The transport to ``worker`` died (or went silent), mid-shard.

        This is where the per-shard acknowledgement pays off: a dispatch
        the worker never acked provably never started, so it is re-queued
        without consuming the shard's retry budget — only deaths *after*
        the ack (the shard may have side effects or be poison) count as
        failures.  ``timed_out`` marks a heartbeat timeout — a worker that
        went silent rather than one whose stream died; it is drained
        exactly like a death.
        """
        with self._cond:
            self.stats["worker_deaths"] += 1
            if timed_out:
                self.stats["heartbeat_timeouts"] += 1
                obs_trace.event("exec.heartbeat_timeout",
                                worker=_worker_label(worker),
                                shard=spec.index)
            obs_trace.event("exec.worker_death",
                            worker=_worker_label(worker), shard=spec.index,
                            acked=acked)
            if acked:
                self._record_failure(
                    worker, spec, error,
                    f"worker connection lost mid-shard: {error}")
            else:
                self._pending.appendleft(spec)
                self.stats["unacked_redispatches"] += 1
                obs_trace.event("exec.requeue_unacked", shard=spec.index,
                                worker=_worker_label(worker))
            self._cond.notify_all()

    def _record_failure(self, worker: _Worker, spec: ShardSpec,
                        error: BaseException, worker_traceback: str,
                        diagnostics: dict | None = None) -> None:
        failures = self._failures.setdefault(spec.index, [])
        failures.append((error, worker_traceback))
        if len(failures) <= self.max_retries:
            self._pending.appendleft(spec)
            self.stats["retries"] += 1
            obs_trace.event("exec.retry", shard=spec.index,
                            attempt=len(failures),
                            worker=_worker_label(worker),
                            error=f"{type(error).__name__}: {error}")
        elif self.fatal_error is None:
            self.fatal_error = error
            culprit = ""
            if diagnostics:
                culprit = (
                    f" [worker pid {diagnostics.get('pid')}, last span "
                    f"{diagnostics.get('last_span')!r}]")
            self.fatal_note = (
                f"shard {spec.index} failed on {len(failures)} worker "
                f"attempt(s) (retry budget {self.max_retries}); last "
                f"worker traceback{culprit}:\n{worker_traceback}")

    # -- completion --------------------------------------------------------

    def wait(self) -> None:
        with self._cond:
            while not self._finished() and self._registered > 0:
                self._cond.wait()

    def ordered_results(self) -> list[ShardResult]:
        with self._cond:
            return [self._results[index] for index in sorted(self._results)]


class RemoteExecutor(Executor):
    """Execute shards on a worker fleet over the socket transport.

    Parameters
    ----------
    workers:
        Size of the spawned localhost fleet (ignored when ``hosts`` names
        the fleet explicitly).
    hosts:
        Addresses of pre-started serving workers
        (``python -m repro.exec.worker --serve host:port``); when given the
        executor connects instead of spawning.
    max_retries:
        How many times a failed shard (worker exception or death) is
        re-dispatched before the original error is re-raised.
    heartbeat_interval:
        Seconds between a running worker's heartbeats (0 disables them).
    heartbeat_timeout:
        Seconds of mid-shard silence after which a worker is declared
        stalled and drained like a death (its shard re-queued under the
        usual retry budget).  Only armed while heartbeats are enabled.
    connect_timeout:
        Seconds to wait for a worker to come up / accept before raising
        :class:`~repro.exec.transport.TransportConnectError`.
    worker_log_dir:
        Directory for per-worker structured JSONL logs (spawned fleet
        only): each worker is launched with ``--log-file`` pointing at
        ``worker-<n>.jsonl`` inside it, so even a death before the
        handshake leaves evidence on disk.  Created if missing.

    The fleet persists across :func:`~repro.exec.run_plan` calls (dead
    members are replaced on the next call) and is torn down by
    :meth:`close`.  ``last_run_stats`` exposes the previous run's dispatch /
    ack / retry / death / heartbeat counters.
    """

    name = "remote"

    def __init__(self, workers: int | None = None,
                 hosts: list[str] | None = None, max_retries: int = 2,
                 heartbeat_interval: float = 0.25,
                 heartbeat_timeout: float = 10.0,
                 connect_timeout: float = 10.0,
                 worker_log_dir: str | os.PathLike | None = None):
        self.hosts = list(hosts) if hosts is not None else None
        if self.hosts is not None:
            if not self.hosts:
                raise ValueError("hosts must name at least one worker")
            workers = len(self.hosts)
        super().__init__(workers)
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if heartbeat_interval < 0 or heartbeat_timeout <= 0:
            raise ValueError("heartbeat_interval must be >= 0 and "
                             "heartbeat_timeout positive")
        if 0 < heartbeat_timeout <= heartbeat_interval:
            raise ValueError("heartbeat_timeout must exceed "
                             "heartbeat_interval")
        self.max_retries = max_retries
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.connect_timeout = connect_timeout
        self.worker_log_dir = (Path(worker_log_dir)
                               if worker_log_dir is not None else None)
        self.last_run_stats: dict[str, int] = {}
        self._workers: list[_Worker] = []
        self._listener: socket.socket | None = None
        self._spawned = 0

    # -- fleet management --------------------------------------------------

    def _ensure_fleet(self) -> None:
        """Replace dead members so the fleet is at full strength.

        Reused connections are ping-probed: a worker that exited since the
        last run (a ``--once`` server, a crashed host) leaves the local
        socket looking open, and only a round-trip proves it still serves.
        """
        _check_not_reimporting_main()
        for worker in self._workers:
            if worker.dead() or not self._responds(worker):
                worker.close(shutdown=False)
        self._workers = [w for w in self._workers if not w.dead()]
        if self.hosts is not None:
            connected = {w.address for w in self._workers}
            last_error: Exception | None = None
            for address in self.hosts:
                if address in connected:
                    continue
                try:
                    self._workers.append(self._connect_host(address))
                except TransportError as error:
                    last_error = error
            if not self._workers:
                raise TransportConnectError(
                    f"no remote worker reachable among {self.hosts}: "
                    f"{last_error}") from last_error
        else:
            while len(self._workers) < self.workers:
                self._workers.append(self._spawn_worker())

    def _responds(self, worker: _Worker) -> bool:
        """Round-trip a ping over a reused connection (bounded wait)."""
        if worker.dead():
            return False
        try:
            worker.conn.settimeout(self.connect_timeout)
            worker.conn.send(("ping",))
            reply = worker.conn.recv()
            worker.conn.settimeout(None)
            return reply[0] == "pong"
        except TransportError:
            return False

    def _connect_host(self, address: str) -> _Worker:
        conn = connect(address, timeout=self.connect_timeout)
        self._handshake(conn)
        return _Worker(conn, address=address)

    def _spawn_worker(self) -> _Worker:
        if self._listener is None:
            self._listener = listen()
        port = self._listener.getsockname()[1]
        command = [sys.executable, "-m", "repro.exec.worker",
                   "--connect", f"127.0.0.1:{port}",
                   "--timeout", str(self.connect_timeout)]
        if self.worker_log_dir is not None:
            self.worker_log_dir.mkdir(parents=True, exist_ok=True)
            self._spawned += 1
            command += ["--log-file", str(self.worker_log_dir
                                          / f"worker-{self._spawned}.jsonl")]
        process = subprocess.Popen(command, env=self._worker_env())
        self._listener.settimeout(self.connect_timeout)
        try:
            client, _ = self._listener.accept()
        except socket.timeout:
            process.kill()
            raise TransportConnectError(
                f"spawned worker (pid {process.pid}) did not connect within "
                f"{self.connect_timeout:.1f}s") from None
        conn = Connection.from_socket(client, peer=f"worker pid "
                                                   f"{process.pid}")
        self._handshake(conn)
        return _Worker(conn, process=process)

    @staticmethod
    def _worker_env() -> dict[str, str]:
        """The child environment, with this package importable via ``-m``."""
        import repro

        env = dict(os.environ)
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = package_root + (
                os.pathsep + existing if existing else "")
        return env

    def _handshake(self, conn: Connection) -> None:
        conn.settimeout(self.connect_timeout)
        try:
            hello = conn.recv()
        except TransportError as error:
            conn.close()
            raise TransportConnectError(
                f"worker at {conn.peer} never completed the handshake: "
                f"{error}") from error
        if hello[0] != "hello" or hello[1].get("protocol") != PROTOCOL_VERSION:
            conn.close()
            raise TransportError(
                f"worker at {conn.peer} speaks protocol "
                f"{hello[1].get('protocol') if hello[0] == 'hello' else '?'} "
                f"but this executor needs {PROTOCOL_VERSION}")
        # '' on sys.path means the current directory at interpreter start;
        # resolve it so the worker (whose cwd may drift) sees the same path.
        sys_path = [entry if entry else os.getcwd() for entry in sys.path]
        main_path = getattr(sys.modules.get("__main__"), "__file__", None)
        conn.send(("init", {"sys_path": sys_path, "cwd": os.getcwd(),
                            "main_path": main_path,
                            "heartbeat_interval": self.heartbeat_interval}))
        conn.settimeout(None)

    # -- execution ---------------------------------------------------------

    def map_shards(self, shards: list[ShardSpec]) -> list[ShardResult]:
        traced = obs_trace.is_enabled()
        scheduler = _ShardScheduler(shards, max_retries=self.max_retries)
        self._ensure_fleet()
        traffic_before = self._transport_totals() if traced else {}
        threads = []
        for worker in self._workers:
            scheduler.register_worker()
            threads.append((threading.Thread(target=self._drive_worker,
                                             args=(worker, scheduler),
                                             daemon=True), worker))
        for thread, _ in threads:
            thread.start()
        scheduler.wait()
        self._drain(threads, cut=scheduler.fatal_error is not None)
        self.last_run_stats = dict(scheduler.stats)
        if traced:
            after = self._transport_totals()
            obs_context.record_fleet_stats(
                scheduler.stats,
                {key: after[key] - traffic_before.get(key, 0)
                 for key in after})
        if scheduler.fatal_error is not None:
            error = scheduler.fatal_error
            if scheduler.fatal_note and hasattr(error, "add_note"):
                error.add_note(scheduler.fatal_note)
            raise error
        return scheduler.ordered_results()

    def _transport_totals(self) -> dict[str, int]:
        """Lifetime traffic summed over the current fleet's connections."""
        totals = {"bytes_sent": 0, "bytes_received": 0,
                  "messages_sent": 0, "messages_received": 0}
        for worker in self._workers:
            for key in totals:
                totals[key] += getattr(worker.conn, key, 0)
        return totals

    def _drain(self, threads: list[tuple[threading.Thread, _Worker]],
               cut: bool) -> None:
        """Join the drive threads.  With ``cut`` (a fatal error decided the
        run) first cut the connections of workers still running a shard:
        their results would be thrown away."""
        if cut:
            for _, worker in threads:
                if worker.busy:
                    # Shut the socket down so the blocked recv in the drive
                    # thread returns.  close() would deadlock here — it
                    # contends on the buffered reader's lock.
                    worker.alive = False
                    worker.conn.shutdown()
        for thread, _ in threads:
            thread.join()

    def _drive_worker(self, worker: _Worker,
                      scheduler: _ShardScheduler) -> None:
        watchdog = (self.heartbeat_timeout
                    if self.heartbeat_interval > 0 else None)
        try:
            while True:
                spec = scheduler.next_shard()
                if spec is None:
                    return
                acked = False
                worker.busy = True
                try:
                    worker.conn.send(("shard", spec))
                    # While a shard is out, the worker is never legitimately
                    # silent for long: acks are immediate and heartbeats
                    # periodic.  Arm the watchdog so a silent stall surfaces
                    # as a timeout instead of hanging the drive thread.
                    if watchdog is not None:
                        worker.conn.settimeout(watchdog)
                    try:
                        while True:
                            message = worker.conn.recv()
                            kind = message[0]
                            if kind == "ack":
                                scheduler.acked()
                                acked = True
                            elif kind == "heartbeat":
                                scheduler.heartbeat()
                            elif kind == "result":
                                scheduler.completed(message[1])
                                break
                            elif kind == "error":
                                scheduler.errored(
                                    worker, spec,
                                    self._unpickle(message[2]), message[3],
                                    message[4])
                                break
                            else:
                                raise TransportError(
                                    f"unexpected {kind!r} message from "
                                    f"{worker.conn.peer}")
                    finally:
                        worker.busy = False
                        if watchdog is not None:
                            worker.conn.settimeout(None)
                except TransportTimeoutError as error:
                    # The worker went silent past the heartbeat timeout.
                    # The timed-out read may have stopped mid-frame, so the
                    # stream is unusable — drain the worker like a death.
                    worker.alive = False
                    worker.conn.shutdown()
                    scheduler.worker_lost(worker, spec, error, acked=acked,
                                          timed_out=True)
                    return
                except TransportError as error:
                    worker.alive = False
                    scheduler.worker_lost(worker, spec, error, acked=acked)
                    return
        finally:
            scheduler.deregister_worker()

    @staticmethod
    def _unpickle(payload: bytes) -> BaseException:
        import pickle

        try:
            error = pickle.loads(payload)
        except Exception as unpickle_error:
            return RuntimeError(f"worker exception did not unpickle: "
                                f"{unpickle_error}")
        if isinstance(error, BaseException):
            return error
        return RuntimeError(f"worker sent a non-exception failure payload: "
                            f"{error!r}")

    def close(self) -> None:
        for worker in self._workers:
            worker.close()
        self._workers = []
        if self._listener is not None:
            self._listener.close()
            self._listener = None


register_executor("remote")(RemoteExecutor)
