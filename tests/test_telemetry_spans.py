"""Tests for the span core of repro.telemetry: the phase table, the
``span`` events it writes to the event log, and how its snapshot
carries the metrics registry across processes."""

import os
import time

import pytest

from repro import telemetry
from repro.telemetry import events


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


class TestSpanTree:
    def test_nested_self_vs_cumulative(self):
        with telemetry.span("outer"):
            time.sleep(0.01)
            with telemetry.span("inner"):
                time.sleep(0.02)
        stats = telemetry.phase_stats()
        outer, inner = stats["outer"], stats["inner"]
        assert outer["calls"] == 1 and inner["calls"] == 1
        # outer's cumulative covers inner; its self time does not.
        assert outer["total_s"] >= inner["total_s"]
        assert outer["self_s"] == pytest.approx(
            outer["total_s"] - inner["total_s"], rel=0.05, abs=0.005)
        assert inner["self_s"] == pytest.approx(inner["total_s"])

    def test_recursive_same_name_self_does_not_double_count(self):
        started = time.perf_counter()
        with telemetry.phase("simulate"):
            with telemetry.phase("simulate"):
                with telemetry.phase("simulate"):
                    time.sleep(0.01)
        wall = time.perf_counter() - started
        stats = telemetry.phase_stats()["simulate"]
        assert stats["calls"] == 3
        # Cumulative triple-counts the nested time (legacy behaviour)...
        assert stats["total_s"] > 2 * 0.01
        # ...but self time stays within the real wall clock.
        assert stats["self_s"] <= wall * 1.05

    def test_span_yields_live_span_for_attrs(self):
        with telemetry.span("work", app="Music") as current:
            current.attrs["blocks"] = 120
        assert current.attrs == {"app": "Music", "blocks": 120}

    def test_spanned_decorator(self):
        @telemetry.spanned("decorated.run")
        def figure(x):
            return x * 2

        assert figure(21) == 42
        assert telemetry.phase_stats()["decorated.run"]["calls"] == 1


class TestSpanEvents:
    def test_nested_spans_emit_one_event_each(self, tmp_path):
        log = tmp_path / "events.jsonl"
        events.set_path(str(log))
        try:
            with telemetry.span("root", app="Music"):
                time.sleep(0.01)
                with telemetry.span("child"):
                    time.sleep(0.01)
                with telemetry.span("child"):
                    pass
        finally:
            events.set_path(None)
        records = [r for r in events.iter_events(str(log))
                   if r["kind"] == "span"]
        assert [r["name"] for r in records] == ["child", "child", "root"]
        first, second, root = records
        assert root["attrs"] == {"app": "Music"}
        assert root["pid"] == os.getpid()
        assert root["start_unix"] <= first["start_unix"] \
            <= second["start_unix"] <= root["ts"]
        # self time is the duration minus the children's, exactly as
        # the phase table records it
        assert root["self_s"] == \
            root["dur_s"] - (0.0 + first["dur_s"] + second["dur_s"])
        assert first["self_s"] == first["dur_s"]
        assert telemetry.phase_stats()["root"]["self_s"] == root["self_s"]

    def test_nothing_written_without_sink(self, tmp_path, monkeypatch):
        monkeypatch.delenv(events.ENV_EVENTS, raising=False)
        monkeypatch.chdir(tmp_path)
        events.set_path(None)
        with telemetry.span("root"):
            with telemetry.span("child"):
                pass
        assert list(tmp_path.iterdir()) == []
        assert events._fd is None
        # the phase table is all a process keeps
        assert set(telemetry.snapshot()) == {"phases", "metrics"}


class TestSnapshotMerge:
    def test_counters_and_phases_merge(self):
        telemetry.inc("repro_cache_requests_total", 3,
                      kind="stats", result="hit")
        with telemetry.phase("simulate"):
            pass
        snap = telemetry.snapshot()
        telemetry.reset()
        telemetry.inc("repro_cache_requests_total",
                      kind="stats", result="hit")
        telemetry.merge_snapshot(snap)
        telemetry.merge_snapshot(snap)
        assert telemetry.metrics.REGISTRY.value(
            "repro_cache_requests_total", kind="stats", result="hit") == 7
        assert telemetry.phase_stats()["simulate"]["calls"] == 2

    def test_merge_none_and_empty_are_noops(self):
        telemetry.merge_snapshot(None)
        telemetry.merge_snapshot({})
        assert telemetry.metrics.REGISTRY.counters_flat() == {}
        assert telemetry.phase_stats() == {}

    def test_legacy_two_field_phase_cells(self):
        # Snapshots from older writers may lack the self-time field.
        telemetry.merge_snapshot({"phases": {"simulate": [2, 1.5]}})
        stats = telemetry.phase_stats()["simulate"]
        assert stats["calls"] == 2
        assert stats["self_s"] == pytest.approx(1.5)


class TestReport:
    def test_report_has_self_column_and_counter(self):
        """The report is the phase table; a counter shows up in the
        registry's exposition, never as a second table in the report."""
        with telemetry.phase("fig10"):
            with telemetry.phase("simulate"):
                pass
        telemetry.inc("repro_cache_requests_total",
                      kind="trace", result="hit")
        text = telemetry.report()
        assert "self" in text.splitlines()[1]
        assert "fig10" in text and "simulate" in text
        assert "repro_cache_requests_total" not in text
        assert 'repro_cache_requests_total{kind="trace",result="hit"} 1' \
            in telemetry.render_prometheus()
