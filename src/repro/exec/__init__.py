"""Sharded Monte-Carlo execution engine (plan -> shards -> results).

The BCH/LDPC frame-error campaigns (:mod:`repro.ecc.evaluate`) run through
this package, and so can any custom study:

1. describe the sweep as a :class:`MonteCarloPlan` (a picklable task over
   independent units plus a seed and shared context);
2. pick an execution backend by name via :func:`build_executor`
   (``"serial"``, ``"process"``, ``"remote"``, or ``"auto"``);
3. :func:`run_plan` cuts the units into guided chunks that the workers pull
   in order, runs them, and returns the per-unit results in unit order.

Randomness is anchored per unit (:func:`unit_rng`, ``SeedSequence(seed,
spawn_key=(i,))``), so sharded execution is **bit-identical** to serial for
a fixed seed — the worker count is a pure throughput knob.  See README.md
for the architecture diagram and a scaling how-to.
"""

from repro.exec.plan import (
    ChannelRef,
    MonteCarloPlan,
    ShardResult,
    ShardSpec,
    stable_seed,
    unit_rng,
)
from repro.exec.executors import (
    EXECUTOR_REGISTRY,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    build_executor,
    register_executor,
)
from repro.exec.remote import RemoteExecutor, RemoteExecutorError
from repro.exec.transport import (
    TransportClosedError,
    TransportConnectError,
    TransportError,
    TransportTimeoutError,
)
from repro.exec.engine import run_plan

__all__ = [
    "MonteCarloPlan",
    "ShardSpec",
    "ShardResult",
    "ChannelRef",
    "stable_seed",
    "unit_rng",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "RemoteExecutor",
    "RemoteExecutorError",
    "TransportError",
    "TransportConnectError",
    "TransportClosedError",
    "TransportTimeoutError",
    "EXECUTOR_REGISTRY",
    "register_executor",
    "build_executor",
    "run_plan",
]
