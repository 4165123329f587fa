"""Tests for the hierarchical span core of repro.telemetry (and how it
carries the metrics registry across processes)."""

import io
import json
import time

import pytest

from repro import telemetry
from repro.telemetry import Span


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


class TestRetention:
    def test_trees_retained_only_when_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPANS", raising=False)
        with telemetry.span("root"):
            pass
        assert telemetry.spans() == []

        monkeypatch.setenv("REPRO_SPANS", "1")
        with telemetry.span("root"):
            with telemetry.span("child"):
                pass
        roots = telemetry.spans()
        assert [r.name for r in roots] == ["root"]
        assert [c.name for c in roots[0].children] == ["child"]

    def test_dump_spans_jsonl(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPANS", "1")
        with telemetry.span("root", app="Music"):
            with telemetry.span("child"):
                pass
        buf = io.StringIO()
        assert telemetry.dump_spans(buf) == 1
        record = json.loads(buf.getvalue())
        assert record["name"] == "root"
        assert record["attrs"] == {"app": "Music"}
        assert record["children"][0]["name"] == "child"
        rebuilt = Span.from_dict(record)
        assert rebuilt.name == "root"
        assert rebuilt.children[0].name == "child"
        assert rebuilt.self_time <= rebuilt.cumulative


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

    def test_merge_tags_worker_spans_with_pid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPANS", "1")
        with telemetry.span("worker-root"):
            pass
        snap = telemetry.snapshot()
        snap["pid"] = 4242
        telemetry.reset()
        telemetry.merge_snapshot(snap)
        (root,) = telemetry.spans()
        assert root.attrs["pid"] == 4242

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
