"""Fault injection for the remote executor.

The distributed backend must stay on the determinism contract *under
failure*: a worker killed mid-chunk, a fleet that cannot be reached, a
worker speaking another protocol version, and a shard that fails past its
retry budget all have pinned behaviours — bit-identical output where the
run survives, a typed error carrying the original worker traceback where it
cannot.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.exec import (
    MonteCarloPlan,
    RemoteExecutor,
    RemoteExecutorError,
    ShardResult,
    TransportClosedError,
    TransportConnectError,
    TransportError,
    run_plan,
)
from repro.exec import transport
from repro.exec.remote import _ShardScheduler


def _die_once(unit, rng, *, flag):
    """Kill the hosting worker the first time unit 0 runs anywhere."""
    value = float(unit) + float(rng.random())
    if int(unit) == 0 and not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(17)
    return value


def _value(unit, rng):
    return float(unit) + float(rng.random())


def _boom(unit, rng):
    """Deterministic task failure on unit 2, every attempt."""
    if int(unit) == 2:
        raise ValueError("boom at unit 2")
    return float(unit)


def _slow_or_fail(unit, rng, *, marks, seconds):
    """Unit 0 runs for ``seconds`` after leaving a ``<pid>`` marker; unit 1
    fails as soon as unit 0 is running."""
    if int(unit) == 0:
        open(os.path.join(marks, str(os.getpid())), "w").close()
        time.sleep(float(seconds))
        return 0.0
    deadline = time.monotonic() + 10.0
    while not os.listdir(marks) and time.monotonic() < deadline:
        time.sleep(0.01)
    raise ValueError("fails at once")


def _plan(task, units=8, **context):
    return MonteCarloPlan(task=task, units=tuple(range(units)), seed=11,
                          context=context)


class TestWorkerDeath:
    def test_kill_mid_shard_retries_and_stays_bit_identical(self, tmp_path):
        flag = tmp_path / "died"
        plan = _plan(_die_once, flag=str(flag))
        flag.touch()  # serial reference must not kill the test process
        reference = run_plan(plan, executor="serial")
        flag.unlink()

        executor = RemoteExecutor(workers=2, max_retries=2)
        try:
            results = run_plan(plan, executor=executor)
        finally:
            executor.close()
        assert results == reference
        assert executor.last_run_stats["worker_deaths"] >= 1
        assert executor.last_run_stats["retries"] >= 1

    def test_fleet_replenished_after_death(self, tmp_path):
        """A later run on the same executor gets a full-strength fleet."""
        flag = tmp_path / "died"
        plan = _plan(_die_once, flag=str(flag))
        executor = RemoteExecutor(workers=2, max_retries=2)
        try:
            run_plan(plan, executor=executor)  # kills one worker
            healthy = _plan(_die_once, flag=str(flag))  # flag now exists
            results = run_plan(healthy, executor=executor)
            assert len(results) == healthy.num_units
            assert executor.last_run_stats["worker_deaths"] == 0
        finally:
            executor.close()


class TestDeadTransport:
    def test_unreachable_fleet_raises_typed_error_fast(self):
        plan = _plan(_boom, units=2)
        executor = RemoteExecutor(hosts=["127.0.0.1:1"], connect_timeout=0.5)
        start = time.monotonic()
        try:
            with pytest.raises(TransportConnectError, match="127.0.0.1:1"):
                run_plan(plan, executor=executor)
        finally:
            executor.close()
        assert time.monotonic() - start < 10.0  # typed error, not a hang


def _serve_fake_worker(protocol):
    """A one-shot worker that announces ``protocol`` at handshake.

    Returns the address it listens on; the serving thread answers one
    connection with a ``hello`` frame and then waits for the parent to hang
    up.
    """
    listener = transport.listen()
    address = transport.format_address(*listener.getsockname()[:2])

    def serve():
        client, _ = listener.accept()
        listener.close()
        conn = transport.Connection.from_socket(client)
        try:
            conn.send(("hello", {"pid": os.getpid(), "protocol": protocol}))
            conn.recv()
        except TransportError:
            pass
        finally:
            conn.close()

    threading.Thread(target=serve, daemon=True).start()
    return address


class TestHandshake:
    @staticmethod
    def _assert_refused_as_host(protocol):
        address = _serve_fake_worker(protocol)
        plan = _plan(_value, units=2)
        executor = RemoteExecutor(hosts=[address], connect_timeout=5.0)
        try:
            with pytest.raises(TransportError, match=f"protocol {protocol} "):
                run_plan(plan, executor=executor)
        finally:
            executor.close()

    def test_other_protocol_version_refused_as_host(self):
        self._assert_refused_as_host(transport.PROTOCOL_VERSION + 1)

    def test_older_protocol_version_refused_as_host(self):
        self._assert_refused_as_host(transport.PROTOCOL_VERSION - 1)


def _complete(scheduler, shard):
    result = ShardResult(index=shard.index, start=shard.start,
                         results=[1.0] * len(shard.units))
    scheduler.completed(result)
    return result


class TestSchedulerEdgeCases:
    def test_chunks_leave_the_queue_in_order(self):
        chunks = _plan(_boom, units=10).chunks(2)
        scheduler = _ShardScheduler(chunks, max_retries=0)
        pulled = [scheduler.next_shard() for _ in chunks]
        assert pulled == chunks
        results = [_complete(scheduler, chunk) for chunk in reversed(pulled)]
        assert scheduler.next_shard() is None
        assert scheduler.ordered_results() == results[::-1]

    def test_unacked_dispatch_requeues_without_consuming_budget(self):
        """A death before the ack means the chunk never started: re-queue it
        at the head of the queue, even with a zero retry budget."""
        chunks = _plan(_boom, units=4).chunks(2)  # 1, 1, 1, 1 units
        scheduler = _ShardScheduler(chunks, max_retries=0)
        lost_worker = object()
        first = scheduler.next_shard()
        assert first is chunks[0]
        scheduler.worker_lost(lost_worker, first,
                              TransportClosedError("died pre-ack"),
                              acked=False)
        assert scheduler.fatal_error is None
        assert scheduler.stats["unacked_redispatches"] == 1
        assert scheduler.stats["retries"] == 0
        # Re-queued ahead of the chunks never dispatched.
        pulled = [scheduler.next_shard() for _ in chunks]
        assert pulled == chunks
        results = [_complete(scheduler, chunk) for chunk in pulled]
        assert scheduler.ordered_results() == results

    def test_death_in_ack_to_start_window_consumes_budget(self):
        """A death *after* the ack — even before the first unit ran — counts
        against the retry budget: the shard reached the worker, so it may be
        poison."""
        chunks = _plan(_boom, units=4).chunks(2)
        scheduler = _ShardScheduler(chunks, max_retries=1)
        doomed = object()
        first = scheduler.next_shard()
        scheduler.acked()
        scheduler.worker_lost(doomed, first,
                              TransportClosedError("died between ack and "
                                                   "first unit"),
                              acked=True)
        assert scheduler.fatal_error is None
        assert scheduler.stats["retries"] == 1
        assert scheduler.next_shard() is first

    def test_errored_chunk_retries_ahead_of_undispatched_chunks(self):
        chunks = _plan(_boom, units=4).chunks(2)  # 1, 1, 1, 1 units
        scheduler = _ShardScheduler(chunks, max_retries=1)
        first = scheduler.next_shard()
        scheduler.errored(object(), first, ValueError("boom"), "tb")
        assert scheduler.fatal_error is None
        assert scheduler.stats["retries"] == 1
        assert [scheduler.next_shard() for _ in chunks] == chunks

    def test_idle_worker_pulls_a_requeued_chunk(self):
        """A worker with nothing to pull blocks until a failed chunk is
        re-queued, then takes it; it is released once the run is over."""
        chunks = _plan(_boom, units=2).chunks(2)  # 1, 1 units
        scheduler = _ShardScheduler(chunks, max_retries=1)
        first, second = scheduler.next_shard(), scheduler.next_shard()
        pulled = []

        def idle_worker():
            while (spec := scheduler.next_shard()) is not None:
                pulled.append(spec)
                _complete(scheduler, spec)

        waiter = threading.Thread(target=idle_worker)
        waiter.start()
        waiter.join(timeout=0.1)
        assert waiter.is_alive() and not pulled
        scheduler.errored(object(), first, ValueError("boom"), "tb")
        _complete(scheduler, second)
        waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert pulled == [first]
        assert [result.index for result in scheduler.ordered_results()] == [
            0, 1]

    def test_losing_every_worker_is_fatal(self):
        chunks = _plan(_boom, units=4).chunks(2)
        scheduler = _ShardScheduler(chunks, max_retries=2)
        scheduler.register_worker()
        scheduler.register_worker()
        first = scheduler.next_shard()
        scheduler.worker_lost(object(), first,
                              TransportClosedError("gone"), acked=True)
        scheduler.deregister_worker()
        assert scheduler.fatal_error is None  # one worker is left
        scheduler.deregister_worker()
        assert isinstance(scheduler.fatal_error, RemoteExecutorError)
        assert "4 shard(s) incomplete" in str(scheduler.fatal_error)
        assert scheduler.fatal_note.startswith("last worker failure:\n")
        assert "worker connection lost mid-shard" in scheduler.fatal_note
        scheduler.wait()  # returns: no worker is left to wait for
        assert scheduler.next_shard() is None

    def test_death_in_ack_to_start_window_fatal_without_budget(self):
        chunks = _plan(_boom, units=4).chunks(2)
        scheduler = _ShardScheduler(chunks, max_retries=0)
        worker = object()
        first = scheduler.next_shard()
        scheduler.acked()
        scheduler.worker_lost(worker, first,
                              TransportClosedError("died post-ack"),
                              acked=True)
        assert scheduler.fatal_error is not None
        assert scheduler.next_shard() is None  # the run is decided


class TestWorkerMainFixup:
    def test_new_parent_script_replaces_previous_main(self, tmp_path):
        """A persistent ``--serve`` worker must rebind ``__main__`` when a
        parent running a *different* script connects, instead of resolving
        its tasks against the first parent's code."""
        import sys

        from repro.exec import worker

        script_a = tmp_path / "parent_a.py"
        script_a.write_text("MARKER = 'a'\n")
        script_b = tmp_path / "parent_b.py"
        script_b.write_text("MARKER = 'b'\n")
        saved_main = sys.modules.get("__main__")
        saved_mp = sys.modules.get("__mp_main__")
        saved_path = worker._main_fixup_path
        try:
            worker._fixup_main_module(str(script_a))
            assert sys.modules["__main__"].MARKER == "a"
            installed = sys.modules["__mp_main__"]
            worker._fixup_main_module(str(script_a))  # same parent: no-op
            assert sys.modules["__mp_main__"] is installed
            worker._fixup_main_module(str(script_b))  # new parent: rebind
            assert sys.modules["__main__"].MARKER == "b"
        finally:
            worker._main_fixup_path = saved_path
            for name, saved in (("__mp_main__", saved_mp),
                                ("__main__", saved_main)):
                if saved is None:
                    sys.modules.pop(name, None)
                else:
                    sys.modules[name] = saved

    _CAMPAIGN = (
        "import numpy as np\n"
        "from repro.channel import build_channel\n"
        "from repro.ecc import LDPCCode, evaluate_ldpc_over_channel\n"
        "from repro.exec import RemoteExecutor\n"
        "from repro.flash import BlockGeometry\n"
        "\n"
        "def main():\n"
        "    executor = RemoteExecutor(workers=1)\n"
        "    code = LDPCCode.regular(252, rng=np.random.default_rng(1))\n"
        "    channel = build_channel('simulator',\n"
        "                            geometry=BlockGeometry(32, 32),\n"
        "                            rng=np.random.default_rng(0))\n"
        "    result = evaluate_ldpc_over_channel(\n"
        "        code, channel, 7000, num_codewords=16, seed=3,\n"
        "        executor=executor)\n"
        "    print('FER', result.frame_error_rate)\n"
        "    executor.close()\n"
        "\n")

    def _run_script(self, tmp_path, tail):
        import subprocess
        import sys
        from pathlib import Path

        import repro

        script = tmp_path / "campaign.py"
        script.write_text(self._CAMPAIGN + tail)
        env = dict(os.environ, PYTHONPATH=str(
            Path(repro.__file__).resolve().parent.parent))
        return subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=120)

    def test_unguarded_script_runs_once_and_names_the_guard(self, tmp_path):
        """Re-imported by the worker, a script with no ``__main__`` guard
        may not start a fleet of its own: the worker reports the error and
        keeps serving, so the parent's campaign prints once."""
        done = self._run_script(tmp_path, "main()\n")
        assert done.returncode == 0, done.stderr
        assert done.stdout.count("FER") == 1
        assert "started a worker pool or fleet" in done.stderr
        assert 'if __name__ == "__main__":' in done.stderr

    def test_guarded_script_runs_once_without_warning(self, tmp_path):
        done = self._run_script(tmp_path,
                                "if __name__ == '__main__':\n    main()\n")
        assert done.returncode == 0, done.stderr
        assert done.stdout.count("FER") == 1
        assert "repro-exec-worker" not in done.stderr

    def test_a_pool_is_refused_during_the_reimport(self, monkeypatch):
        """The process pool refuses to start, as the fleet does."""
        from repro.exec import executors

        monkeypatch.setattr(executors, "_reimporting_main", "campaign.py")
        executor = executors.ProcessExecutor(workers=2)
        with pytest.raises(RuntimeError, match="campaign.py.*__main__"):
            executor.map_shards([None, None])
        assert executor._pool is None


class TestFleetHealthProbe:
    def test_dead_serve_worker_detected_on_reuse(self):
        """A serving worker killed between runs must surface as a typed
        connect error on the next run (the ping probe catches the silently
        half-open connection), not a mid-sweep stall."""
        import subprocess
        import sys

        process = subprocess.Popen(
            [sys.executable, "-m", "repro.exec.worker",
             "--serve", "127.0.0.1:0"],
            stdout=subprocess.PIPE, text=True)
        plan = _plan(_value, units=4)
        try:
            address = process.stdout.readline().split()[-1]
            executor = RemoteExecutor(hosts=[address], connect_timeout=1.0)
            try:
                first = run_plan(plan, executor=executor)
                assert len(first) == plan.num_units
                process.terminate()
                process.wait(timeout=10)
                with pytest.raises(TransportConnectError):
                    run_plan(plan, executor=executor)
            finally:
                executor.close()
        finally:
            process.kill()
            process.wait(timeout=10)


class TestFatalErrorCut:
    def test_cut_serve_host_answers_the_next_parent_mid_chunk(self,
                                                              tmp_path):
        """A fatal error raises at once and cuts the --serve host still
        running a chunk.  That host takes the next parent's handshake while
        the abandoned chunk still runs, and runs the new parent's chunk
        after it."""
        import subprocess
        import sys

        processes = [subprocess.Popen(
            [sys.executable, "-m", "repro.exec.worker", "--serve",
             "127.0.0.1:0"], stdout=subprocess.PIPE, text=True)
            for _ in range(2)]
        try:
            addresses = {process.pid: process.stdout.readline().split()[-1]
                         for process in processes}
            plan = _plan(_slow_or_fail, units=2, marks=str(tmp_path),
                         seconds=5.0)
            executor = RemoteExecutor(hosts=list(addresses.values()),
                                      max_retries=0)
            start = time.monotonic()
            try:
                with pytest.raises(ValueError, match="fails at once"):
                    run_plan(plan, executor=executor, num_shards=2)
                assert time.monotonic() - start < 3.0
            finally:
                executor.close()
            [busy_pid] = [int(name) for name in os.listdir(tmp_path)]
            quick = _plan(_value, units=2)
            again = RemoteExecutor(hosts=[addresses[busy_pid]],
                                   connect_timeout=2.0)
            try:
                assert run_plan(quick, executor=again) == run_plan(
                    quick, executor="serial")
            finally:
                again.close()
        finally:
            for process in processes:
                process.kill()
                process.wait(timeout=10)


class TestRetryBudget:
    def test_exhaustion_surfaces_original_error_and_worker_traceback(self):
        plan = _plan(_boom, units=4)
        executor = RemoteExecutor(workers=2, max_retries=1)
        try:
            with pytest.raises(ValueError, match="boom at unit 2") as info:
                run_plan(plan, executor=executor)
        finally:
            executor.close()
        # max_retries=1 means two attempts total before giving up.
        assert executor.last_run_stats["retries"] == 1
        notes = "\n".join(getattr(info.value, "__notes__", ()))
        assert "retry budget 1" in notes
        assert "_boom" in notes  # the worker-side traceback rode along
