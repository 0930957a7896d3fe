"""Fleet battery: deaths, heartbeats and worker sessions under guided chunks.

The contract under test is the same as everywhere else in ``tests/exec/``:
**bit-identical reducers under any schedule** — a worker killed mid-chunk
and a heartbeat-timed-out (silently partitioned) worker shrink the fleet
mid-run, and must leave the output exactly equal to the serial reference.
Every run here uses the engine's default guided chunks.
"""

from __future__ import annotations

import os
import threading
import time

from repro.exec import MonteCarloPlan, RemoteExecutor, run_plan


def _stall_once(unit, rng, *, flag):
    """Silence the hosting worker the first time unit 0 runs anywhere.

    The worker's transport is patched to drop every outbound frame — the
    process stays alive and its socket open, but heartbeats and results
    stop flowing, the shape of a network partition or a preempted spot
    instance.  (A literal SIGSTOP would be the same shape, but this
    container's supervisor SIGCONTs stopped processes, so the partition is
    simulated at the transport layer instead.)  Only the heartbeat timeout
    can unstick the sweep.
    """
    value = float(unit) + float(rng.random())
    if int(unit) == 0 and not os.path.exists(flag):
        open(flag, "w").close()
        from repro.exec import transport

        def _blackhole(self, message):
            return None  # frames vanish; the socket stays open and silent

        transport.Connection.send = _blackhole
    return value


def _die_once_heavy(unit, rng, *, flag):
    """Slow units plus one worker suicide mid-chunk."""
    value = float(unit) + float(rng.random())
    if int(unit) == 3 and not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(17)
    time.sleep(0.02)
    return value


def _worker_pid(unit, rng, *, seconds):
    time.sleep(float(seconds))
    return os.getpid()


def _sleep_then(unit, rng, *, seconds, fail):
    """Sleep past a few heartbeat intervals, then return or raise."""
    time.sleep(float(seconds))
    if fail:
        raise ValueError(f"failed unit {unit}")
    return float(unit) + float(rng.random())


def _thread_ident(unit, rng):
    return threading.get_ident()


class _ScriptedConnection:
    """An in-memory worker connection: replays parent frames, records the
    worker's frames and the threads that sent them."""

    peer = "scripted"

    def __init__(self, incoming):
        self._incoming = list(incoming)
        self._lock = threading.Lock()
        self.sent = []
        self.senders = set()

    def send(self, message):
        with self._lock:
            self.senders.add(threading.get_ident())
            self.sent.append(message)

    def recv(self):
        from repro.exec import transport

        if not self._incoming:
            raise transport.TransportClosedError("script exhausted")
        return self._incoming.pop(0)


def _serve_script(*shards, heartbeat_interval):
    """Run one worker session over ``shards``, pinging after each."""
    from repro.exec.worker import serve_connection

    incoming = [("init", {"heartbeat_interval": heartbeat_interval})]
    for shard in shards:
        incoming += [("shard", shard), ("ping",)]
    conn = _ScriptedConnection(incoming)
    serve_connection(conn)
    return conn


class TestWorkerDeath:
    def test_worker_death_under_guided_chunks(self, tmp_path):
        """A post-ack death inside the first (largest) chunk: the chunk is
        retried whole and no unit is double-counted."""
        flag = tmp_path / "died"
        plan = MonteCarloPlan(task=_die_once_heavy, units=tuple(range(10)),
                              seed=31, context={"flag": str(flag)})
        flag.touch()
        reference = run_plan(plan, executor="serial")
        flag.unlink()
        executor = RemoteExecutor(workers=2, max_retries=2,
                                  heartbeat_interval=0.05)
        try:
            results = run_plan(plan, executor=executor)
        finally:
            executor.close()
        assert results == reference
        assert executor.last_run_stats["worker_deaths"] >= 1
        assert executor.last_run_stats["retries"] >= 1


class TestHeartbeats:
    def test_silent_worker_drained_and_output_identical(self, tmp_path):
        """A silently stalled (partitioned) worker is detected by heartbeat
        timeout and drained like a death; the sweep completes bit-identical
        on the survivor."""
        flag = tmp_path / "stalled"
        plan = MonteCarloPlan(task=_stall_once, units=tuple(range(8)),
                              seed=37, context={"flag": str(flag)})
        flag.touch()
        reference = run_plan(plan, executor="serial")
        flag.unlink()
        executor = RemoteExecutor(workers=2, max_retries=2,
                                  heartbeat_interval=0.05,
                                  heartbeat_timeout=0.75)
        try:
            results = run_plan(plan, executor=executor)
        finally:
            executor.close()
        assert results == reference
        assert executor.last_run_stats["heartbeat_timeouts"] >= 1
        assert executor.last_run_stats["worker_deaths"] >= 1

    def test_late_heartbeat_never_fails_the_health_probe(self):
        """Regression: a heartbeat sent after a shard's result used to be
        read by the next run's ping probe instead of ``pong``, so a healthy
        worker was killed and respawned.  Ten back-to-back runs must keep
        the same two workers."""
        plan = MonteCarloPlan(task=_worker_pid, units=tuple(range(8)),
                              seed=71, context={"seconds": 0.02})
        executor = RemoteExecutor(workers=2, heartbeat_interval=0.02)
        pids = set()
        try:
            for _ in range(10):
                pids.update(run_plan(plan, executor=executor,
                                     num_shards=8))
        finally:
            executor.close()
        assert len(pids) == 2


class TestWorkerSession:
    """One worker session, driven in-process over a scripted connection."""

    def _sleeper(self, fail):
        plan = MonteCarloPlan(task=_sleep_then, units=(0, 1), seed=73,
                              context={"seconds": 0.05, "fail": fail})
        [shard] = plan.chunks(1)
        return shard

    def test_no_heartbeat_trails_a_result(self):
        conn = _serve_script(self._sleeper(fail=False),
                             heartbeat_interval=0.01)
        kinds = [message[0] for message in conn.sent]
        assert kinds[:2] == ["hello", "ack"]
        assert "heartbeat" in kinds
        assert kinds[kinds.index("result"):] == ["result", "pong"]
        assert conn.senders == {threading.get_ident()}

    def test_no_heartbeat_trails_an_error(self):
        conn = _serve_script(self._sleeper(fail=True),
                             heartbeat_interval=0.01)
        kinds = [message[0] for message in conn.sent]
        assert "heartbeat" in kinds
        assert kinds[kinds.index("error"):] == ["error", "pong"]
        assert conn.senders == {threading.get_ident()}

    def test_shards_run_on_one_thread_off_the_session_thread(self):
        """Every shard of a worker runs on one thread (so per-thread state,
        the channel-reference resolve memo, is built once per worker) that
        is not the session thread (the main thread of a worker process)."""
        plan = MonteCarloPlan(task=_thread_ident, units=tuple(range(6)),
                              seed=79)
        chunks = plan.chunks(3)
        conn = _serve_script(*chunks, heartbeat_interval=0.01)
        results = [message[1] for message in conn.sent
                   if message[0] == "result"]
        assert [result.index for result in results] == [
            chunk.index for chunk in chunks]
        idents = {ident for result in results for ident in result.results}
        assert len(idents) == 1
        assert idents != {threading.get_ident()}
