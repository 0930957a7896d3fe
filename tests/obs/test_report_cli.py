"""Trace files end-to-end: sink, schema validation, summary, CLI export."""

from __future__ import annotations

import json

import pytest

from repro.obs import cli, report, sink, trace


@pytest.fixture(autouse=True)
def _clean_process_registry():
    """The process registry is a real singleton; keep tests independent."""
    from repro.obs import metrics

    metrics.process_registry().reset()
    yield
    metrics.process_registry().reset()


def _make_trace(path):
    """A small real trace: nested spans, a scheduler event, kernel metrics
    and one adopted worker span."""
    with trace.tracing(str(path), trace_id="t-test") as tracer:
        with trace.span("exec.plan", units=4):
            with trace.span("exec.shard", shard=0, start=0, units=2):
                pass
            with trace.span("exec.shard", shard=1, start=2, units=2):
                pass
            trace.event("exec.retry", shard=1, attempt=1)
        from repro.obs import metrics

        metrics.get_registry().observe("nn.kernel.matmul", 0.25)
        metrics.get_registry().observe("nn.kernel.matmul", 0.75)
        tracer.adopt([{"type": "span", "trace": "t-test", "span": "x-9",
                       "parent": None, "name": "exec.shard", "t0": 1.0,
                       "dur": 0.5, "pid": 999, "tid": 1,
                       "attrs": {"shard": 1, "units": 2}}])
    return path


@pytest.fixture
def trace_file(tmp_path):
    return _make_trace(tmp_path / "run.jsonl")


class TestSinkAndSchema:
    def test_trace_file_validates_clean(self, trace_file):
        count, errors = sink.validate_trace(trace_file)
        assert errors == []
        assert count >= 5  # meta + 3 spans + event + metrics + adopted

    def test_corrupted_line_fails_validation(self, trace_file):
        with open(trace_file, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
            handle.write(json.dumps({"type": "span", "trace": "t"}) + "\n")
        count, errors = sink.validate_trace(trace_file)
        assert any("invalid JSON" in error for error in errors)
        assert any("missing field" in error for error in errors)

    def test_unknown_record_type_rejected(self):
        assert sink.validate_record({"type": "mystery"}) \
            == ["unknown record type 'mystery'"]


class TestSummarize:
    def test_phase_breakdown_and_timeline(self, trace_file):
        summary = report.summarize(sink.read_trace(trace_file))
        assert summary["trace"] == "t-test"
        assert summary["spans"]["exec.plan"]["count"] == 1
        assert summary["spans"]["exec.shard"]["count"] == 3
        assert len(summary["shards"]) == 3
        assert summary["events"] == {"exec.retry": 1}
        assert summary["kernels"][0]["kernel"] == "matmul"
        assert summary["kernels"][0]["calls"] == 2

    def test_a_second_session_replaces_the_first(self, trace_file):
        """A session truncates its path and starts an empty metrics
        registry: the file summarizes to the second session's trace id and
        counts only."""
        from repro.obs import metrics

        with trace.tracing(str(trace_file), trace_id="t-second"):
            with trace.span("exec.plan", units=1):
                pass
            metrics.get_registry().observe("nn.kernel.matmul", 0.5)
        records = sink.read_trace(trace_file)
        assert [r["trace"] for r in records if r["type"] == "meta"] \
            == ["t-second"]
        assert {r["trace"] for r in records} == {"t-second"}
        summary = report.summarize(records)
        assert summary["trace"] == "t-second"
        assert list(summary["spans"]) == ["exec.plan"]
        assert summary["spans"]["exec.plan"]["count"] == 1
        assert summary["events"] == {}
        assert summary["kernels"][0]["calls"] == 1

    def test_format_summary_mentions_the_load_bearing_facts(self, trace_file):
        text = report.format_summary(
            report.summarize(sink.read_trace(trace_file)))
        assert "exec.plan" in text
        assert "shard timeline" in text
        assert "exec.retry=1" in text
        assert "matmul" in text


class TestChromeExport:
    def test_export_loads_and_spans_are_complete_events(self, trace_file):
        exported = report.chrome_trace(sink.read_trace(trace_file))
        assert json.loads(json.dumps(exported)) == exported
        phases = {event["ph"] for event in exported["traceEvents"]}
        assert phases == {"X", "i"}
        adopted = [event for event in exported["traceEvents"]
                   if event["ph"] == "X" and event["pid"] == 999]
        assert len(adopted) == 1  # the worker span lands on the timeline
        for event in exported["traceEvents"]:
            assert event["ts"] >= 0  # all times relative to the origin


class TestCli:
    def test_summarize_human_and_json(self, trace_file, capsys):
        assert cli.main(["summarize", str(trace_file)]) == 0
        human = capsys.readouterr().out
        assert "shard timeline" in human
        assert cli.main(["summarize", str(trace_file), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["trace"] == "t-test"
        assert "event_detail" not in summary

    def test_chrome_writes_file(self, trace_file, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        assert cli.main(["chrome", str(trace_file), "-o", str(out)]) == 0
        exported = json.loads(out.read_text())
        assert exported["traceEvents"]

    def test_validate_ok_and_failure(self, trace_file, capsys):
        assert cli.main(["validate", str(trace_file)]) == 0
        assert "schema ok" in capsys.readouterr().out
        with open(trace_file, "a", encoding="utf-8") as handle:
            handle.write("{broken\n")
        assert cli.main(["validate", str(trace_file)]) == 1
        assert "INVALID" in capsys.readouterr().err
