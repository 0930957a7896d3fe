"""Pluggable shard executors, selected by name like channel backends.

``build_executor(name, workers)`` mirrors :func:`repro.channel.build_channel`:
consumers name an execution backend in configuration and never touch pool
plumbing.  Three backends exist:

* ``"serial"`` — run every shard in-process (the reference path);
* ``"process"`` — a :class:`concurrent.futures.ProcessPoolExecutor` pool;
  shards are pickled to workers and their results pickled back;
* ``"remote"`` — a worker fleet over the socket transport
  (:class:`repro.exec.RemoteExecutor`): spawned localhost subprocesses by
  default, or pre-started ``python -m repro.exec.worker --serve`` hosts,
  with per-shard acknowledgement, bounded retry and heartbeats.

Pool and fleet workers pull the engine's guided chunks
(:meth:`~repro.exec.MonteCarloPlan.chunks`) in order as they go idle; that
is the only load balancing.

``"auto"`` picks ``"serial"`` for one worker and ``"process"`` otherwise.
Because plan randomness is anchored per unit, every backend produces
bit-identical results — the choice is purely a throughput decision.
"""

from __future__ import annotations

import concurrent.futures
import os
from typing import Callable

from repro.exec.plan import ShardResult, ShardSpec

__all__ = ["Executor", "SerialExecutor", "ProcessExecutor",
           "EXECUTOR_REGISTRY", "register_executor", "build_executor"]


#: The parent script a fleet worker is re-importing as ``__mp_main__``
#: (:mod:`repro.exec.worker` sets it while the script runs), else ``None``.
_reimporting_main: str | None = None


def _check_not_reimporting_main() -> None:
    """Refuse to start a pool or fleet inside a worker's re-import of its
    parent's script, as :mod:`multiprocessing`'s spawn start method does:
    an unguarded script would otherwise re-run its whole body in every
    worker and start a fleet of its own there."""
    if _reimporting_main is not None:
        raise RuntimeError(
            f"{_reimporting_main} started a worker pool or fleet while a "
            "fleet worker was importing it as its parent's main module; "
            "start pools and fleets only under the script's "
            "'if __name__ == \"__main__\":' guard")


class Executor:
    """Base class of every shard executor."""

    name = "base"

    def __init__(self, workers: int | None = None):
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers if workers is not None \
            else max(1, os.cpu_count() or 1)

    def map_shards(self, shards: list[ShardSpec]) -> list[ShardResult]:
        """Run every shard; return their results in shard order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources.  Pool executors keep their worker pool
        alive across :func:`~repro.exec.run_plan` calls (an ECC sweep runs
        one plan per code, channel and P/E count — re-forking every time
        would dominate small campaigns), so a long-lived caller that builds
        its own executor should close it when done.  The engine closes
        executors it built itself from a name."""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """Run every shard in the calling process (the reference path)."""

    name = "serial"

    def __init__(self, workers: int | None = None):
        super().__init__(1 if workers is None else workers)

    def map_shards(self, shards: list[ShardSpec]) -> list[ShardResult]:
        return [shard.run() for shard in shards]


class ProcessExecutor(Executor):
    """Process-pool execution via :mod:`concurrent.futures`.

    Each shard is pickled to a worker together with its context (pickled
    once per run and unpickled once per worker, see
    :class:`~repro.exec.ShardSpec`); the worker returns the shard's per-unit
    results.
    """

    name = "process"

    def __init__(self, workers: int | None = None):
        super().__init__(workers)
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None

    def map_shards(self, shards: list[ShardSpec]) -> list[ShardResult]:
        if len(shards) == 1 and self._pool is None:
            # One shard gains nothing from a pool; skip the fork entirely.
            return [shards[0].run()]
        if self._pool is None:
            _check_not_reimporting_main()
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers)
        return list(self._pool.map(ShardSpec.run, shards))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


#: Executor classes keyed by backend name (mirrors ``CHANNEL_REGISTRY``).
EXECUTOR_REGISTRY: dict[str, Callable[..., Executor]] = {}


def register_executor(name: str):
    """Decorator registering an executor class under ``name``."""
    def decorator(factory: Callable[..., Executor]):
        if name in EXECUTOR_REGISTRY:
            raise ValueError(f"executor backend {name!r} already registered")
        EXECUTOR_REGISTRY[name] = factory
        return factory
    return decorator


register_executor("serial")(SerialExecutor)
register_executor("process")(ProcessExecutor)
# "remote" registers itself at the bottom of repro.exec.remote (which
# imports this module, so the registration cannot live here); the package
# __init__ imports both, keeping the registry complete for any consumer.


def build_executor(name: str = "auto",
                   workers: int | None = None) -> Executor:
    """Instantiate an execution backend by registry name.

    ``"auto"`` resolves to :class:`SerialExecutor` when ``workers`` is absent
    or 1 (no pool overhead for the common case) and to
    :class:`ProcessExecutor` otherwise.  An already-built :class:`Executor`
    passes through unchanged, so every ``executor=`` argument accepts either
    spelling.
    """
    if isinstance(name, Executor):
        return name
    if name == "auto":
        name = "serial" if workers is None or workers <= 1 else "process"
    if name not in EXECUTOR_REGISTRY:
        raise ValueError(f"unknown executor backend {name!r}; available: "
                         f"{sorted(EXECUTOR_REGISTRY)} (or 'auto')")
    return EXECUTOR_REGISTRY[name](workers=workers)
