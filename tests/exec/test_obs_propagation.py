"""Observability conformance across executors, and under faults.

The tracing contract mirrors the determinism contract: the executor is a
pure throughput knob, so a traced run must produce the same span *tree*
(modulo timing and process ids) and the same merged metric totals on every
backend.  Under faults the accounting must stay exact: a dead worker's
envelope never comes home and the retry's does, so merged totals count
every unit exactly once.
"""

from __future__ import annotations

import os

import pytest

from repro.exec import (
    MonteCarloPlan,
    RemoteExecutor,
    build_executor,
    run_plan,
)
from repro.obs import metrics, trace

BACKENDS = ("serial", "process", "remote")
WORKERS = 2

TREE_SPANS = {"exec.plan", "exec.shard", "exec.reduce", "task.unit"}


def _traced_unit(unit, rng, *, scale):
    """A task that emits its own span and metric per unit."""
    with trace.span("task.unit", unit=int(unit)):
        metrics.get_registry().inc("task.units")
        return scale * float(unit) + float(rng.random())


def _die_traced(unit, rng, *, flag):
    """Kill the hosting worker the first time unit 0 runs anywhere."""
    with trace.span("task.unit", unit=int(unit)):
        metrics.get_registry().inc("task.units")
        value = float(unit) + float(rng.random())
    if int(unit) == 0 and not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(17)
    return value


def _boom(unit, rng):
    if int(unit) == 2:
        raise ValueError("boom at unit 2")
    return float(unit)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    trace.disable_tracing()
    metrics.process_registry().reset()
    yield
    trace.disable_tracing()
    metrics.process_registry().reset()


def _span_tree(records):
    """Multiset of (name, parent-name) edges for the propagation spans."""
    names = {r["span"]: r["name"] for r in records if r["type"] == "span"}
    edges = {}
    for record in records:
        if record["type"] != "span":
            continue
        name = record["name"]
        if name not in TREE_SPANS:
            continue
        parent = names.get(record.get("parent"))
        edges[(name, parent)] = edges.get((name, parent), 0) + 1
    return edges


def _traced_run(plan, executor, num_shards=4):
    metrics.process_registry().reset()
    with trace.tracing() as tracer:
        results = run_plan(plan, executor=executor, num_shards=num_shards)
    return results, tracer.records, metrics.process_registry().totals()


class TestConformance:
    @pytest.fixture(scope="class")
    def plan(self):
        return MonteCarloPlan(task=_traced_unit, units=tuple(range(12)),
                              seed=42, context={"scale": 0.5})

    @pytest.fixture(scope="class")
    def reference(self, plan):
        return run_plan(plan, executor="serial", num_shards=4)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_span_tree_and_metric_totals_identical(self, backend_name, plan,
                                                   reference):
        executor = build_executor(backend_name, workers=WORKERS)
        try:
            results, records, totals = _traced_run(plan, executor)
        finally:
            executor.close()
        assert results == reference  # tracing must not perturb the numbers
        assert _span_tree(records) == {
            ("exec.plan", None): 1,
            ("exec.shard", "exec.plan"): 4,
            ("exec.reduce", "exec.plan"): 1,
            ("task.unit", "exec.shard"): 12,
        }
        assert totals["task.units"] == 12

    def test_untraced_run_counts_metrics_but_opens_no_spans(self, plan,
                                                            reference):
        # Metrics are always-on (plain counter bumps); spans are what the
        # tracing switch gates — an untraced run must hit only NOOP_SPAN.
        metrics.process_registry().reset()
        assert run_plan(plan, executor="serial", num_shards=4) == reference
        assert metrics.process_registry().totals() == {"task.units": 12}
        assert trace.span("probe") is trace.NOOP_SPAN


class TestFaultAccounting:
    def test_killed_worker_keeps_totals_exact(self, tmp_path):
        flag = tmp_path / "died"
        plan = MonteCarloPlan(task=_die_traced, units=tuple(range(8)),
                              seed=11, context={"flag": str(flag)})
        flag.touch()
        reference = run_plan(plan, executor="serial")
        flag.unlink()

        executor = RemoteExecutor(workers=2, max_retries=2)
        try:
            results, records, totals = _traced_run(plan, executor)
            stats = executor.last_run_stats
        finally:
            executor.close()
        assert results == reference
        assert stats["worker_deaths"] >= 1
        # The dead attempt's envelope never came home, the retry's did:
        # merged totals still count every unit exactly once.
        assert totals["task.units"] == plan.num_units
        event_names = [r["name"] for r in records if r["type"] == "event"]
        assert "exec.worker_death" in event_names
        assert "exec.retry" in event_names

    def test_exhaustion_note_names_the_worker(self):
        plan = MonteCarloPlan(task=_boom, units=tuple(range(4)), seed=1)
        executor = RemoteExecutor(workers=2, max_retries=1)
        try:
            with pytest.raises(ValueError, match="boom at unit 2") as info:
                run_plan(plan, executor=executor)
        finally:
            executor.close()
        notes = "\n".join(getattr(info.value, "__notes__", ()))
        assert "worker pid" in notes
        assert "last span" in notes

    def test_worker_log_files_record_lifecycle(self, tmp_path):
        plan = MonteCarloPlan(task=_traced_unit, units=tuple(range(4)),
                              seed=3, context={"scale": 1.0})
        logdir = tmp_path / "wlogs"
        executor = RemoteExecutor(workers=2, worker_log_dir=logdir)
        try:
            run_plan(plan, executor=executor)
        finally:
            executor.close()
        import json

        logs = sorted(logdir.glob("worker-*.jsonl"))
        assert len(logs) == 2
        for path in logs:
            events = [json.loads(line)["event"]
                      for line in path.read_text().splitlines()]
            assert events[0] == "start"  # pre-connect: death evidence
            assert "connected" in events
            assert "session_start" in events
            assert events[-1] == "exit"
