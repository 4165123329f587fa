"""Schema tests for the Chrome-trace/Perfetto exporter.

The Trace Event Format contract that Perfetto/chrome://tracing actually
enforce: a JSON object with a ``traceEvents`` list, complete events with
``name``/``ph``/``ts``/``dur``/``pid``/``tid``, counter events carrying
``args.value``, and metadata events naming the processes.  These tests
pin that shape (plus the one-pid-per-worker layout) for traces built
from a ``REPRO_EVENTS`` log alone, so an export always loads in the
viewers.
"""

import io
import json
import os

import pytest

from repro import telemetry
from repro.telemetry import events
from repro.telemetry import manifest as tmanifest
from repro.telemetry.export import (
    build_chrome_trace,
    export_chrome_trace,
    main,
)


#: A registry counter sample as ``counters_flat`` names it.
HITS = "repro_cache_requests_total{kind=trace,result=hit}"
#: The pid of a fleet worker whose lines are appended to the log.
WORKER = 4242


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()
    events.set_path(None)


def _record_run():
    tmanifest.record_run(
        "run_apps", apps=["Music"], schemes=["baseline"],
        configs=["google-tablet"], walk_blocks=120, seeds={"Music": 17},
        wall_s=0.5,
    )


@pytest.fixture
def log(tmp_path):
    """A realistic event log: parent spans, one worker's span and cell
    lines under another pid, and the parent's ``run.recorded``."""
    path = tmp_path / "events.jsonl"
    events.set_path(str(path))
    with telemetry.span("run_apps", apps=2):
        with telemetry.span("simulate"):
            pass
    events.set_path("")
    start = json.loads(path.read_text().splitlines()[0])["start_unix"]
    with open(path, "a") as handle:
        for seq, record in enumerate([
            {"kind": "span", "name": "simulate", "start_unix": start,
             "dur_s": 0.5, "self_s": 0.5, "attrs": None},
            {"kind": "sweep.cell.done", "instructions": 500},
            {"kind": "sweep.cell.done", "instructions": 250},
            {"kind": "dispatch.attempt", "outcome": "worker-died",
             "task": "Music|google-tablet"},
        ], start=1):
            record.update(ts=start + 0.1 * seq, pid=WORKER, seq=seq)
            handle.write(json.dumps(record) + "\n")
    telemetry.inc("repro_cache_requests_total", 3,
                  kind="trace", result="hit")
    events.set_path(str(path))
    _record_run()
    events.set_path("")
    return path


def _trace(path):
    return build_chrome_trace(events.iter_events(str(path)))


class TestChromeTraceSchema:
    def test_top_level_shape(self, log):
        trace = _trace(log)
        assert isinstance(trace["traceEvents"], list)
        assert trace["displayTimeUnit"] == "ms"
        json.dumps(trace)  # JSON-serializable end to end

    def test_complete_events_have_required_fields(self, log):
        xs = [e for e in _trace(log)["traceEvents"] if e["ph"] == "X"]
        assert sorted(e["name"] for e in xs) == \
            ["run_apps", "simulate", "simulate"]
        for event in xs:
            assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid"}
            assert event["ts"] >= 0 and event["dur"] >= 0
        (root,) = [e for e in xs if e["name"] == "run_apps"]
        assert root["args"] == {"apps": 2}

    def test_one_pid_per_worker_with_process_names(self, log):
        trace = _trace(log)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        parent = os.getpid()
        assert {e["pid"] for e in xs} == {parent, WORKER}
        names = {e["pid"]: e["args"]["name"]
                 for e in trace["traceEvents"] if e["ph"] == "M"}
        assert names == {parent: "parent", WORKER: f"worker-{WORKER}"}

    def test_meta_counters_become_counter_tracks(self, log):
        """The run's metadata event, ``run.recorded``, carries the
        registry counters; each becomes a counter track on the parent."""
        (recorded,) = [r for r in events.iter_events(str(log))
                       if r["kind"] == "run.recorded"]
        assert recorded["run"] == "run_apps"
        assert recorded["counters"] == {HITS: 3}
        counters = [e for e in _trace(log)["traceEvents"]
                    if e["ph"] == "C" and e["name"] == HITS]
        assert [(e["pid"], e["args"]["value"]) for e in counters] == \
            [(os.getpid(), 3)]

    def test_event_stream_counter_tracks_and_instants(self, log):
        trace = _trace(log)
        done = [e for e in trace["traceEvents"]
                if e["ph"] == "C" and e["name"] == "cells_done"]
        assert [e["args"]["value"] for e in done] == [1, 2]
        assert {e["pid"] for e in done} == {os.getpid()}
        instr = [e for e in trace["traceEvents"]
                 if e["ph"] == "C" and e["name"] == "instructions"]
        assert [e["args"]["value"] for e in instr] == [500, 750]
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "dispatch.attempt"
        assert instants[0]["pid"] == WORKER
        assert instants[0]["args"]["outcome"] == "worker-died"

    def test_first_writer_is_parent_without_run_recorded(self):
        trace = build_chrome_trace([
            {"ts": 2.0, "pid": 8, "kind": "span", "name": "simulate",
             "start_unix": 1.5, "dur_s": 0.5},
            {"ts": 1.0, "pid": 7, "kind": "sweep.cell.cached"},
        ])
        names = {e["pid"]: e["args"]["name"]
                 for e in trace["traceEvents"] if e["ph"] == "M"}
        assert names == {7: "parent", 8: "worker-8"}
        (span,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert (span["ts"], span["dur"]) == (0.5e6, 0.5e6)


class TestExportCli:
    def test_cli_writes_perfetto_loadable_json(self, log, tmp_path):
        out = tmp_path / "trace.json"
        assert main([str(log), "-o", str(out)]) == 0
        trace = json.loads(out.read_text())
        assert isinstance(trace["traceEvents"], list)
        assert {e["ph"] for e in trace["traceEvents"]} >= \
            {"X", "M", "C", "i"}

    def test_cli_missing_input_fails_cleanly(self, tmp_path):
        assert main([str(tmp_path / "nope.jsonl")]) == 2

    def test_export_function_counts_events(self, log):
        out = io.StringIO()
        with open(log) as handle:
            written = export_chrome_trace(handle, out)
        assert written == len(
            json.loads(out.getvalue())["traceEvents"])

    def test_tolerates_garbage_lines(self, log):
        with open(log) as handle:
            lines = handle.readlines()
        out = io.StringIO()
        export_chrome_trace(
            ["not json\n", "\n", '{"no_kind": 1}\n'] + lines, out)
        assert json.loads(out.getvalue()) == _trace(log)
