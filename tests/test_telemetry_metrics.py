"""Tests for the typed metrics registry and the structured event stream."""

import io
import json
import os

import pytest

from repro import telemetry
from repro.telemetry import events, metrics
from repro.telemetry.metrics import (
    LATENCY_BUCKETS_S,
    MetricsError,
    MetricsRegistry,
    WIDTH_BUCKETS,
    parse_prometheus,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.reset()
    events.set_path("")
    yield
    telemetry.reset()
    events.set_path(None)


class TestRegistryInstruments:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.inc("repro_t_total", outcome="ok")
        reg.inc("repro_t_total", outcome="ok")
        reg.inc("repro_t_total", 3, outcome="error")
        assert reg.value("repro_t_total", outcome="ok") == 2
        assert reg.value("repro_t_total", outcome="error") == 3
        assert reg.total("repro_t_total") == 5

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.inc("repro_t_total", a="1", b="2")
        reg.inc("repro_t_total", b="2", a="1")
        assert reg.value("repro_t_total", a="1", b="2") == 2

    def test_gauge_keeps_last_value(self):
        reg = MetricsRegistry()
        reg.set_gauge("repro_workers", 4)
        reg.set_gauge("repro_workers", 2)
        assert reg.value("repro_workers") == 2

    def test_histogram_buckets_and_sum(self):
        reg = MetricsRegistry()
        reg.observe("repro_width", 3, buckets=WIDTH_BUCKETS)
        reg.observe("repro_width", 100, buckets=WIDTH_BUCKETS)
        family = reg.families()["repro_width"]
        cell = family.samples[()]
        # 3 lands in the le=4 bucket (index 2), 100 overflows to +Inf.
        assert cell[2] == 1
        assert cell[len(WIDTH_BUCKETS)] == 1
        assert cell[-2] == 2 and cell[-1] == 103

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.inc("repro_t_total")
        with pytest.raises(MetricsError):
            reg.set_gauge("repro_t_total", 1)

    def test_invalid_metric_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricsError):
            reg.inc("bad name")

    def test_counters_flat_prefix_filter(self):
        reg = MetricsRegistry()
        reg.inc("repro_cells_total", status="done")
        reg.inc("repro_other_total")
        flat = reg.counters_flat("repro_cells")
        assert flat == {"repro_cells_total{status=done}": 1}


class TestSnapshotMerge:
    def test_counters_sum_histograms_sum_gauges_max(self):
        a = MetricsRegistry()
        a.inc("repro_t_total", 2, outcome="ok")
        a.set_gauge("repro_workers", 4)
        a.observe("repro_wall", 0.01)
        b = MetricsRegistry()
        b.merge(a.snapshot())
        b.merge(a.snapshot())
        b.set_gauge("repro_workers", 1)
        b.merge(a.snapshot())
        assert b.value("repro_t_total", outcome="ok") == 6
        assert b.value("repro_workers") == 4  # max, not last
        cell = b.families()["repro_wall"].samples[()]
        assert cell[-2] == 3

    def test_merge_is_order_independent(self):
        parts = []
        for i in range(3):
            reg = MetricsRegistry()
            reg.inc("repro_t_total", i + 1, shard=str(i))
            # binary-exact values so summation order can't perturb the sum
            reg.observe("repro_wall", 0.25 * (i + 1))
            reg.set_gauge("repro_workers", i)
            parts.append(reg.snapshot())
        fwd, rev = MetricsRegistry(), MetricsRegistry()
        for snap in parts:
            fwd.merge(snap)
        for snap in reversed(parts):
            rev.merge(snap)
        def canon(snap):
            # sample insertion order tracks merge order; values must not
            return {name: dict(fam, samples=sorted(fam["samples"]))
                    for name, fam in snap.items()}

        assert canon(fwd.snapshot()) == canon(rev.snapshot())

    def test_merge_skips_type_conflicts(self):
        a = MetricsRegistry()
        a.inc("repro_t_total", 5)
        b = MetricsRegistry()
        b.set_gauge("repro_t_total", 1)
        b.merge(a.snapshot())  # conflicting family skipped, not mangled
        assert b.value("repro_t_total") == 1

    def test_metrics_ride_the_span_snapshot_channel(self):
        metrics.REGISTRY.inc("repro_t_total", outcome="ok")
        snap = telemetry.snapshot()
        telemetry.reset()
        assert metrics.REGISTRY.total("repro_t_total") == 0
        telemetry.merge_snapshot(snap)
        telemetry.merge_snapshot(snap)
        assert metrics.REGISTRY.value("repro_t_total", outcome="ok") == 2

    def test_reset_clears_registry(self):
        metrics.REGISTRY.inc("repro_t_total")
        telemetry.reset()
        assert metrics.REGISTRY.total("repro_t_total") == 0


class TestPrometheusExposition:
    def test_render_and_parse_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("repro_t_total", 2, help="Help text.", outcome="ok")
        reg.set_gauge("repro_workers", 3)
        reg.observe("repro_wall", 0.005, buckets=LATENCY_BUCKETS_S)
        text = reg.render_prometheus()
        assert "# HELP repro_t_total Help text." in text
        assert "# TYPE repro_t_total counter" in text
        assert "# TYPE repro_workers gauge" in text
        assert "# TYPE repro_wall histogram" in text
        parsed = parse_prometheus(text)
        assert parsed['repro_t_total{outcome="ok"}'] == 2
        assert parsed["repro_workers"] == 3
        assert parsed["repro_wall_count"] == 1
        assert parsed["repro_wall_sum"] == pytest.approx(0.005)

    def test_histogram_buckets_are_cumulative_with_inf(self):
        reg = MetricsRegistry()
        reg.observe("repro_width", 3, buckets=(1, 4, 8))
        reg.observe("repro_width", 100, buckets=(1, 4, 8))
        parsed = parse_prometheus(reg.render_prometheus())
        assert parsed['repro_width_bucket{le="1"}'] == 0
        assert parsed['repro_width_bucket{le="4"}'] == 1
        assert parsed['repro_width_bucket{le="8"}'] == 1
        assert parsed['repro_width_bucket{le="+Inf"}'] == 2


class TestManifestIntegration:
    def test_metrics_block_is_outside_config_hash(self, tmp_path,
                                                  monkeypatch):
        from repro.cache import reset_cache
        from repro.telemetry import manifest as tmanifest

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reset_cache()
        kwargs = dict(apps=["Music"], schemes=["baseline"],
                      configs=["google-tablet"], walk_blocks=120,
                      seeds={"Music": 17}, wall_s=0.5)
        quiet = tmanifest.build_manifest("run_apps", **kwargs)
        metrics.REGISTRY.inc("repro_cells_total", 4, status="done")
        loud = tmanifest.build_manifest("run_apps", **kwargs)
        # telemetry is provenance, never identity
        assert quiet["config_hash"] == loud["config_hash"]
        assert quiet["metrics"] == {}
        assert "repro_cells_total" in loud["metrics"]
        reset_cache()

    def test_write_manifest_drops_prometheus_snapshot(self, tmp_path,
                                                      monkeypatch):
        from repro.cache import reset_cache
        from repro.telemetry import manifest as tmanifest

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reset_cache()
        metrics.REGISTRY.inc("repro_cells_total", 2, status="done",
                             help="Sweep cells by status.")
        path = tmanifest.record_run(
            "run_apps", apps=["Music"], schemes=["baseline"],
            configs=["google-tablet"], walk_blocks=120,
            seeds={"Music": 17}, wall_s=0.5)
        exposition = (path.parent / tmanifest.METRICS).read_text()
        parsed = parse_prometheus(exposition)
        assert parsed['repro_cells_total{status="done"}'] == 2
        reset_cache()


class TestPerfShimRemoved:
    """Tombstone: ``repro.perf`` was a deprecated alias of
    :mod:`repro.telemetry` and has been deleted after a deprecation
    cycle.  These tests pin the removal so the name never silently
    comes back."""

    def test_importing_repro_perf_raises(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.perf  # noqa: F401

    def test_no_in_repo_reference_to_perf_remains(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent / "src"
        offenders = []
        for path in root.rglob("*.py"):
            text = path.read_text()
            if "from repro import perf" in text \
                    or "import repro.perf" in text \
                    or "from repro.perf import" in text:
                offenders.append(str(path))
        assert offenders == []


class TestEventStream:
    def test_disabled_by_default_is_noop(self, tmp_path, monkeypatch):
        monkeypatch.delenv(events.ENV_EVENTS, raising=False)
        events.set_path(None)
        assert not events.enabled()
        events.emit("sweep.cell.done", app="Music")  # must not raise

    def test_emit_appends_jsonl_with_envelope(self, tmp_path):
        log = tmp_path / "events.jsonl"
        events.set_path(str(log))
        events.emit("sweep.cell.done", app="Music", instructions=42)
        events.emit("dispatch.quarantine", task="Music|google-tablet")
        records = list(events.iter_events(str(log)))
        assert [r["kind"] for r in records] == \
            ["sweep.cell.done", "dispatch.quarantine"]
        first = records[0]
        assert first["app"] == "Music" and first["instructions"] == 42
        assert first["pid"] == os.getpid()
        assert first["seq"] == 1 and records[1]["seq"] == 2
        assert isinstance(first["ts"], float)

    def test_env_knob_activates_stream(self, tmp_path, monkeypatch):
        log = tmp_path / "events.jsonl"
        events.set_path(None)
        monkeypatch.setenv(events.ENV_EVENTS, str(log))
        assert events.active_path() == str(log)
        events.emit("cache.hit", artifact="trace")
        assert len(list(events.iter_events(str(log)))) == 1

    def test_iter_events_skips_torn_lines(self):
        stream = io.StringIO(
            json.dumps({"kind": "a", "ts": 1.0}) + "\n"
            + '{"kind": "torn", "ts": 1.'  # no newline, mid-write
        )
        assert [r["kind"] for r in events.iter_events(stream)] == ["a"]

    def test_unwritable_sink_degrades_to_disabled(self, tmp_path):
        events.set_path(str(tmp_path))  # a directory: open() fails
        events.emit("sweep.cell.done")  # must not raise
        assert not events.enabled()


class TestLiveProgress:
    def test_summary_aggregation(self, tmp_path):
        from repro.telemetry.live import summarize

        log = tmp_path / "events.jsonl"
        events.set_path(str(log))
        events.emit("sweep.cell.done", instructions=100)
        events.emit("sweep.cell.done", instructions=50)
        events.emit("sweep.cell.cached")
        events.emit("dispatch.attempt", outcome="worker-died")
        events.emit("dispatch.attempt", outcome="ok")
        events.emit("dispatch.quarantine", task="t")
        events.emit("batch.fallback", reason="clpt")
        progress = summarize(str(log))
        assert progress.done == 2
        assert progress.instructions == 150
        assert progress.cached == 1
        assert progress.retried == 1
        assert progress.worker_deaths == 1
        assert progress.quarantined == 1
        assert progress.fallbacks == 1
        assert "cells 2 done" in progress.line()

    def test_follow_keeps_a_line_read_half_written(self, tmp_path):
        """``follow`` can read a line the writer has not finished; the
        event must count once the rest of the line lands."""
        import threading

        from repro.telemetry.live import follow

        line = json.dumps({"ts": 1.0, "pid": 1, "seq": 1,
                           "kind": "sweep.cell.done",
                           "instructions": 10}) + "\n"
        log = tmp_path / "events.jsonl"
        log.write_text(line + line[:20])

        def finish_line():
            with open(log, "a") as handle:
                handle.write(line[20:])

        writer = threading.Timer(0.3, finish_line)
        writer.start()
        try:
            progress = follow(str(log), io.StringIO(), interval_s=0.05,
                              max_wall_s=1.0)
        finally:
            writer.join(timeout=5.0)
        assert not writer.is_alive()
        assert progress.done == 2
        assert progress.instructions == 20

    def test_live_cli_one_shot(self, tmp_path, capsys):
        from repro.telemetry.live import main

        log = tmp_path / "events.jsonl"
        events.set_path(str(log))
        events.emit("sweep.cell.done", instructions=7)
        events.set_path("")
        assert main([str(log)]) == 0
        out = capsys.readouterr().out
        assert "cells done" in out and "instructions" in out

    def test_live_cli_empty_log_exits_nonzero(self, tmp_path):
        from repro.telemetry.live import main

        log = tmp_path / "empty.jsonl"
        log.write_text("")
        assert main([str(log)]) == 1
