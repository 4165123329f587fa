"""Schema tests for the Chrome-trace/Perfetto exporter.

The Trace Event Format contract that Perfetto/chrome://tracing actually
enforce: a JSON object with a ``traceEvents`` list, complete events with
``name``/``ph``/``ts``/``dur``/``pid``/``tid``, counter events carrying
``args.value``, and metadata events naming the processes.  These tests
pin that shape (plus the one-pid-per-worker layout) so an export always
loads in the viewers.
"""

import io
import json

import pytest

from repro import telemetry
from repro.telemetry import events
from repro.telemetry.export import (
    build_chrome_trace,
    export_chrome_trace,
    main,
    read_span_dump,
)


#: A registry counter sample as the ``_meta`` trailer names it.
HITS = "repro_cache_requests_total{kind=trace,result=hit}"


@pytest.fixture(autouse=True)
def _clean_telemetry(monkeypatch):
    monkeypatch.setenv("REPRO_SPANS", "1")
    telemetry.reset()
    yield
    telemetry.reset()


def _span_dump_lines():
    """A realistic dump: local spans + a merged worker snapshot + meta."""
    with telemetry.span("run_apps", apps=2):
        with telemetry.span("simulate"):
            pass
    worker = {
        "pid": 4242,
        "phases": {"simulate": [1, 0.5, 0.5]},
        "spans": [{
            "name": "simulate", "dur_s": 0.5, "self_s": 0.5,
            "start_unix": 1000.25,
        }],
        "dropped_spans": 0,
    }
    telemetry.merge_snapshot(worker)
    buf = io.StringIO()
    telemetry.dump_spans(buf)
    buf.write(json.dumps({
        "_meta": {"pid": 99, "counters": {HITS: 3}},
    }) + "\n")
    return buf.getvalue().splitlines(keepends=True)


class TestReadSpanDump:
    def test_splits_spans_and_meta(self):
        roots, metas = read_span_dump(_span_dump_lines())
        assert [r["name"] for r in roots] == ["run_apps", "simulate"]
        assert metas == [{"pid": 99, "counters": {HITS: 3}}]

    def test_tolerates_garbage_lines(self):
        roots, metas = read_span_dump(
            ["not json\n", "\n", '{"no_name": 1}\n',
             '{"name": "x", "dur_s": 0.1}\n'])
        assert len(roots) == 1 and metas == []


class TestChromeTraceSchema:
    def test_top_level_shape(self):
        roots, metas = read_span_dump(_span_dump_lines())
        trace = build_chrome_trace(roots, metas)
        assert isinstance(trace["traceEvents"], list)
        assert trace["displayTimeUnit"] == "ms"
        json.dumps(trace)  # JSON-serializable end to end

    def test_complete_events_have_required_fields(self):
        roots, metas = read_span_dump(_span_dump_lines())
        trace = build_chrome_trace(roots, metas)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert xs, "no complete events emitted"
        for event in xs:
            assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid"}
            assert event["ts"] >= 0 and event["dur"] >= 0

    def test_one_pid_per_worker_with_process_names(self):
        roots, metas = read_span_dump(_span_dump_lines())
        trace = build_chrome_trace(roots, metas)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        # The merged worker span carries pid=4242; local spans pid=0.
        assert {e["pid"] for e in xs} == {0, 4242}
        names = {e["pid"]: e["args"]["name"]
                 for e in trace["traceEvents"] if e["ph"] == "M"}
        assert names[0] == "parent"
        assert names[4242] == "worker-4242"

    def test_meta_counters_become_counter_tracks(self):
        roots, metas = read_span_dump(_span_dump_lines())
        trace = build_chrome_trace(roots, metas)
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert any(e["name"] == HITS
                   and e["args"]["value"] == 3 for e in counters)

    def test_event_stream_counter_tracks_and_instants(self):
        roots, metas = read_span_dump(_span_dump_lines())
        stream = [
            {"ts": 1000.5, "pid": 7, "kind": "sweep.cell.done",
             "instructions": 500},
            {"ts": 1000.6, "pid": 7, "kind": "sweep.cell.done",
             "instructions": 250},
            {"ts": 1000.7, "pid": 7, "kind": "dispatch.attempt",
             "outcome": "worker-died", "task": "Music|google-tablet"},
        ]
        trace = build_chrome_trace(roots, metas, events=stream)
        done = [e for e in trace["traceEvents"]
                if e["ph"] == "C" and e["name"] == "cells_done"]
        assert [e["args"]["value"] for e in done] == [1, 2]
        instr = [e for e in trace["traceEvents"]
                 if e["ph"] == "C" and e["name"] == "instructions"]
        assert [e["args"]["value"] for e in instr] == [500, 750]
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "dispatch.attempt"
        assert instants[0]["args"]["outcome"] == "worker-died"

    def test_legacy_spans_without_start_pack_sequentially(self):
        roots = [{
            "name": "root", "dur_s": 1.0,
            "children": [
                {"name": "a", "dur_s": 0.4},
                {"name": "b", "dur_s": 0.5},
            ],
        }]
        trace = build_chrome_trace(roots, [])
        by_name = {e["name"]: e for e in trace["traceEvents"]
                   if e["ph"] == "X"}
        assert by_name["a"]["ts"] == by_name["root"]["ts"]
        assert by_name["b"]["ts"] == pytest.approx(
            by_name["a"]["ts"] + 0.4e6)


class TestExportCli:
    def test_cli_writes_perfetto_loadable_json(self, tmp_path):
        spans = tmp_path / "spans.jsonl"
        spans.write_text("".join(_span_dump_lines()))
        log = tmp_path / "events.jsonl"
        events.set_path(str(log))
        events.emit("sweep.cell.done", instructions=10)
        events.set_path(None)
        out = tmp_path / "trace.json"
        assert main([str(spans), "--events", str(log),
                     "-o", str(out)]) == 0
        trace = json.loads(out.read_text())
        assert isinstance(trace["traceEvents"], list)
        assert {e["ph"] for e in trace["traceEvents"]} >= {"X", "M"}

    def test_cli_missing_input_fails_cleanly(self, tmp_path):
        assert main([str(tmp_path / "nope.jsonl")]) == 2

    def test_export_function_counts_events(self, tmp_path):
        out = io.StringIO()
        written = export_chrome_trace(_span_dump_lines(), out)
        assert written == len(
            json.loads(out.getvalue())["traceEvents"])

    def test_spans_env_path_dump_feeds_exporter(self, tmp_path,
                                                monkeypatch):
        """REPRO_SPANS=<path> dump (spans + _meta trailer) round-trips,
        and a metrics-registry counter becomes a counter track."""
        import importlib

        # telemetry.spans (the accessor function) shadows the submodule
        spans_mod = importlib.import_module("repro.telemetry.spans")

        dump = tmp_path / "spans.jsonl"
        monkeypatch.setenv("REPRO_SPANS", str(dump))
        with telemetry.span("work"):
            pass
        telemetry.inc("repro_cache_requests_total", 2,
                      kind="trace", result="hit")
        spans_mod._dump_spans_at_exit()
        roots, metas = read_span_dump(
            dump.read_text().splitlines(keepends=True))
        assert [r["name"] for r in roots] == ["work"]
        assert metas[0]["counters"] == {HITS: 2}
        tracks = [e for e in build_chrome_trace(roots, metas)["traceEvents"]
                  if e["ph"] == "C"]
        assert [(e["name"], e["args"]["value"]) for e in tracks] == \
            [(HITS, 2)]
