"""The sharded Monte-Carlo engine: plan -> shards -> reduce.

:func:`run_plan` is the single entry point every sweep in this repository
goes through — the time-aware constrained-code selector, the BCH/LDPC
frame-error campaigns, and the figure drivers.  It guarantees:

* **Determinism** — per-unit :class:`numpy.random.SeedSequence` splitting
  and unit-ordered reduction make the output bit-identical for any executor,
  worker count and chunking (test-enforced in ``tests/exec/``).
* **Load balance** — by default the units are cut into guided chunks
  (:meth:`~repro.exec.MonteCarloPlan.chunks`) that pool and fleet workers
  pull in order as they go idle; a serial run gets one chunk.

A shard sends back its per-unit results and, when traced, its obs envelope.
Condition-cache entries a pool or fleet worker computes stay in that worker;
an artifact every shard needs is computed in the parent and passed in the
plan context (as :func:`repro.ecc.evaluate_ldpc_over_channel` does with its
density table).
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.exec.executors import Executor, build_executor
from repro.exec.plan import MonteCarloPlan
from repro.exec.reducers import Reducer
from repro.obs import context as obs_context
from repro.obs import trace as obs_trace

__all__ = ["run_plan"]


def run_plan(plan: MonteCarloPlan, reducer: Reducer | None = None,
             executor: str | Executor | None = None,
             workers: int | None = None,
             num_shards: int | None = None) -> Any:
    """Execute a Monte-Carlo plan and reduce its per-unit results.

    Parameters
    ----------
    plan:
        The sweep to run.
    reducer:
        Folds the per-unit results (in unit order) into the final value;
        when omitted the raw per-unit result list is returned.
    executor:
        An executor backend name (``"auto"``, ``"serial"``, ``"process"``,
        ``"remote"``), a built :class:`Executor`, or None
        for ``"auto"``.  A caller-provided instance keeps its worker pool
        (or remote fleet) alive across calls; name-built backends are
        closed when the call returns.
    workers:
        Worker count for pool executors (defaults to the CPU count).
    num_shards:
        Cut the plan into this many balanced contiguous shards instead of
        the default guided chunks (``ceil(remaining units / (2 *
        workers))`` each, one chunk for one worker).  A pure throughput
        knob: results are bit-identical for any value.
    """
    owns_backend = not isinstance(executor, Executor)
    backend = executor if isinstance(executor, Executor) \
        else build_executor(executor if executor is not None else "auto",
                            workers)
    # With tracing enabled the whole call runs under an ``exec.plan`` span
    # and every shard is stamped with its trace context; workers' span and
    # metric envelopes merge back below.  Disabled, plan_scope yields None
    # and nothing else here runs.
    with obs_context.plan_scope(plan, backend.name,
                                backend.workers) as trace_ctx:
        try:
            shards = (plan.chunks(backend.workers) if num_shards is None
                      else plan.shards(num_shards))
            if trace_ctx is not None:
                shards = [dataclasses.replace(shard, trace=trace_ctx)
                          for shard in shards]
            shard_results = backend.map_shards(shards)
        finally:
            if owns_backend:
                # A backend built for this one call must not leak its worker
                # pool; caller-provided executors keep theirs for reuse.
                backend.close()
        if trace_ctx is not None:
            obs_context.merge_shard_envelopes(shard_results)
        results = [result for shard_result in shard_results
                   for result in shard_result.results]
        with obs_trace.span("exec.reduce"):
            return reducer.reduce(results) if reducer is not None \
                else results
