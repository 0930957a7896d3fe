"""Self-tests of the end-to-end benchmark harness (no workload is run)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs

from e2ebench import harness, layers
from e2ebench.run import END_TO_END

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "e2ebench" / "run.py"


def _span(span_id, name, t0, dur, parent=None, **extra):
    return {"type": "span", "trace": "t", "span": span_id, "parent": parent,
            "name": name, "t0": t0, "dur": dur, "pid": 1, "tid": 1, **extra}


def test_importing_the_entry_point_runs_nothing(tmp_path):
    # Remote fleet workers re-import the parent's __main__ file under the
    # name __mp_main__; that import must not start a workload.
    code = (f"import sys, runpy; sys.path[:0] = [{str(ROOT)!r}, "
            f"{str(ROOT / 'src')!r}]; "
            "import e2ebench.run, e2ebench.workloads, e2ebench.layers; "
            f"runpy.run_path({str(RUN)!r}, run_name='__mp_main__')")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "campaign_quick",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_speed_clock_charges_each_instant_at_the_interpolated_speed():
    clock = harness.SpeedClock()
    clock.times, clock.factors = [0.0, 10.0], [1.0, 0.5]
    # The speed falls linearly from 1.0 to 0.5 between the ticks ...
    assert clock.scaled(0.0, 10.0) == pytest.approx(7.5)
    assert clock.scaled(2.0, 4.0) == pytest.approx(2.0 * 0.85)
    # ... and holds the nearest tick's value outside them.
    assert clock.scaled(-2.0, 0.0) == pytest.approx(2.0)
    assert clock.scaled(10.0, 12.0) == pytest.approx(1.0)
    assert clock.scaled(-1.0, 11.0) == pytest.approx(1.0 + 7.5 + 0.5)
    assert clock.scaled(5.0, 5.0) == 0.0


def test_speed_clock_ticks_are_not_work():
    clock = harness.SpeedClock()
    clock.min_interval = 0.0
    start = clock.now()
    clock.tick()
    clock.tick()
    assert len(clock.times) == 2 and clock.paused > 0.0
    assert clock.now() - start < 0.2 * clock.paused
    assert all(factor > 0 for factor in clock.factors)


def test_speed_clock_throttles_and_an_inert_clock_never_ticks():
    clock = harness.SpeedClock()
    clock.min_interval = 60.0
    clock.tick()
    clock.tick()
    assert len(clock.times) == 1
    clock.tick(force=True)
    assert len(clock.times) == 2
    inert = harness.SpeedClock(calibrate=False)
    inert.tick(force=True)
    assert inert.times == [] and inert.paused == 0.0
    assert inert.scaled(1.0, 3.5) == 2.5


def test_self_time_of_nested_spans():
    records = [
        _span("r", "bench.unit", 0.0, 10.0),
        _span("a", "train.step", 1.0, 3.0, parent="r"),
        _span("a1", "train.forward", 2.0, 1.0, parent="a"),
        _span("b", "ecc.campaign", 5.0, 4.0, parent="r"),
        _span("x", "train.step", 20.0, 1.0),  # outside the root's tree
    ]
    _, exclusive = layers.exclusive_times(records)
    assert exclusive == pytest.approx({"r": 3.0, "a": 2.0, "a1": 1.0,
                                       "b": 4.0})
    wall, table = layers.self_time_table(records)
    assert wall == 10.0
    assert table["train"] == pytest.approx(3.0)
    assert table["ecc"] == pytest.approx(4.0)
    assert table["unattributed"] == pytest.approx(3.0)
    assert sum(table.values()) == pytest.approx(wall)


def test_concurrent_worker_shards_count_once():
    records = [
        _span("r", "bench.unit", 0.0, 10.0),
        _span("p", "exec.plan", 1.0, 8.0, parent="r", attrs={"workers": 2}),
        _span("s1", "exec.shard", 2.0, 4.0, parent="p"),
        _span("s2", "exec.shard", 3.0, 5.0, parent="p", abandoned=True),
    ]
    wall, table = layers.self_time_table(records)
    assert table["exec"] == pytest.approx(8.0)
    assert table["unattributed"] == pytest.approx(2.0)
    assert sum(table.values()) == pytest.approx(wall)
    metrics = layers.exec_metrics(records)
    assert metrics["exec.shard_busy_s"] == pytest.approx(4.0)
    assert metrics["exec.abandoned_s"] == pytest.approx(5.0)
    assert metrics["exec.useful_frac"] == pytest.approx(4.0 / 9.0)
    assert metrics["exec.idle_frac"] == pytest.approx((16.0 - 9.0) / 16.0)
    assert metrics["exec.tail_wait_s"] == pytest.approx(3.0)


class _Probe:
    def call(self, value):
        return value + 1

    def items(self):
        yield from (1, 2)


def test_wrappers_record_spans_and_restore_the_originals():
    call, items = vars(_Probe)["call"], vars(_Probe)["items"]
    targets = [layers.Target(_Probe, "call", "data.generate"),
               layers.Target(_Probe, "items", "data.batch", kind="iter")]
    with obs.tracing() as tracer:
        with layers.instrumented(targets):
            assert vars(_Probe)["call"] is not call
            assert _Probe().call(1) == 2
            assert list(_Probe().items()) == [1, 2]
    assert vars(_Probe)["call"] is call and vars(_Probe)["items"] is items
    names = [record["name"] for record in tracer.records
             if record["type"] == "span"]
    # One span per next(), the final exhausting call included.
    assert names == ["data.generate"] + ["data.batch"] * 3


def test_default_wrappers_restore_every_binding_even_on_error():
    import repro.experiments
    import repro.experiments.fig2
    from repro.channel.protocol import ChannelModel
    from repro.core.trainer import Trainer

    from e2ebench import workloads

    before = (Trainer.train_step, ChannelModel.read_voltages,
              repro.experiments.run_fig2, repro.experiments.fig2.run_fig2,
              workloads.run_fig2, workloads.fidelity)
    with pytest.raises(RuntimeError):
        with layers.instrumented():
            assert workloads.run_fig2 is not before[4]
            assert repro.experiments.run_fig2 is workloads.run_fig2
            raise RuntimeError("stage failed")
    after = (Trainer.train_step, ChannelModel.read_voltages,
             repro.experiments.run_fig2, repro.experiments.fig2.run_fig2,
             workloads.run_fig2, workloads.fidelity)
    assert all(old is new for old, new in zip(before, after))


def test_benchmark_spec_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
