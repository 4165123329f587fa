"""Cross-process telemetry: worker snapshots must reach the parent.

Regression tests for the parallel runner silently dropping telemetry
phases/metrics recorded inside worker processes: fleet totals (e.g.
``simulate`` call counts) must match the serial run's, even when every
remote attempt crashes and the cell quarantines to the parent.  With
execution behind the ``EXECUTORS`` registry, the same exactly-once
discipline is asserted for the fleet — including a fleet whose workers
are being killed by the fault injector mid-sweep.
"""

import os
import time

import pytest

from repro import telemetry
from repro.cache import reset_cache
from repro.dispatch import CellTimeoutError
from repro.experiments.runner import (
    clear_cache,
    last_dispatch_report,
    run_apps,
)
from repro.registry import SCHEME_RECIPES
from repro.telemetry.manifest import load_manifest, manifest_dir

APPS = ("Music", "Email")
WALK = 120


def _exploding_recipe(ctx, max_length, profiled_fraction):
    """Touch the workload (a real `generate` phase) and then blow up —
    module-level so fleet workers can unpickle the AppContext that
    references it."""
    ctx.workload
    raise ValueError("scheme recipe exploded (test crash injection)")


def _sleeping_recipe(ctx, max_length, profiled_fraction):
    """Hangs the cell long enough for the wall-clock deadline to fire."""
    ctx.workload
    time.sleep(30.0)
    return []


@pytest.fixture(autouse=True)
def _fresh_state(tmp_path, monkeypatch):
    """Fresh telemetry, in-process memo, and disk cache per test, so
    every scheme genuinely runs (and runs in the workers)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reset_cache()
    clear_cache()
    telemetry.reset()
    yield
    telemetry.reset()
    clear_cache()
    reset_cache()


def _simulate_calls() -> int:
    return telemetry.phase_stats().get("simulate", {}).get("calls", 0)


def _cache_misses():
    """``{"repro_cache_requests_total{kind=..,result=miss}": n}``."""
    flat = telemetry.metrics.REGISTRY.counters_flat(
        "repro_cache_requests_total")
    return {name: value for name, value in flat.items()
            if "result=miss" in name}


class TestWorkerMerge:
    def test_parallel_matches_serial_phase_counts(self, tmp_path,
                                                  monkeypatch):
        """REPRO_JOBS=2: phases executed inside workers appear in the
        parent with the same call counts as a serial run."""
        run_apps(APPS, ("baseline",), jobs=1, walk_blocks=WALK)
        serial_calls = _simulate_calls()
        assert serial_calls == len(APPS)
        serial_misses = _cache_misses()
        assert serial_misses

        # Fresh everything, then the same grid through the fleet.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache2"))
        reset_cache()
        clear_cache()
        telemetry.reset()
        results = run_apps(APPS, ("baseline",), jobs=2, walk_blocks=WALK)
        assert all(results[name] for name in APPS)

        assert "run_apps.parallel" in telemetry.phase_stats()
        assert _simulate_calls() == serial_calls
        merged = _cache_misses()
        for name, value in serial_misses.items():
            assert merged.get(name, 0) >= value

    def test_worker_phase_time_is_nonzero(self):
        run_apps(APPS, ("baseline",), jobs=2, walk_blocks=WALK)
        stats = telemetry.phase_stats()
        assert stats.get("simulate", {}).get("total_s", 0.0) > 0.0
        assert stats.get("generate", {}).get("calls", 0) >= len(APPS)

    def test_unknown_scheme_fails_fast_with_suggestion(self):
        """A typo'd scheme now fails in the probe, before any generation,
        and the error names the nearest registered recipe."""
        with pytest.raises(ValueError, match="critic"):
            run_apps(APPS, ("crtic",), jobs=1, walk_blocks=WALK)
        assert telemetry.phase_stats().get("generate", {}) \
            .get("calls", 0) == 0


class TestPerExecutorTelemetry:
    """Exactly-once telemetry for every registered execution backend."""

    def _serial_reference(self, tmp_path, monkeypatch, schemes,
                          raises=None):
        """Phase totals from a plain jobs=1 run, then fresh state."""
        if raises is None:
            run_apps(APPS, schemes, jobs=1, walk_blocks=WALK)
        else:
            with pytest.raises(ValueError, match=raises):
                run_apps(APPS, schemes, jobs=1, walk_blocks=WALK)
        reference = telemetry.phase_stats()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache2"))
        reset_cache()
        clear_cache()
        telemetry.reset()
        return reference

    @pytest.mark.parametrize("executor", ["fleet"])
    def test_simulate_counts_match_serial(self, tmp_path, monkeypatch,
                                          executor):
        serial = self._serial_reference(tmp_path, monkeypatch,
                                        ("baseline",))
        results = run_apps(APPS, ("baseline",), jobs=2, walk_blocks=WALK,
                           executor=executor)
        assert all(results[name] for name in APPS)
        report = last_dispatch_report()
        assert report is not None
        assert report.executor == f"{executor}@1"
        phases = telemetry.phase_stats()
        for phase in ("simulate", "generate"):
            assert phases.get(phase, {}).get("calls", 0) \
                == serial.get(phase, {}).get("calls", 0), phase

    def test_fleet_retried_cell_counted_exactly_once(self, tmp_path,
                                                     monkeypatch):
        """Fault injection forces retries; a retried cell's spans must
        land in the parent exactly once — the successful attempt's.

        Kill-only faults with the disk cache off keep the accounting
        exact: each SIGKILLed attempt takes its whole process (and its
        memo and telemetry) with it, so the successful retry in a fresh
        worker recomputes — and reports — the full cell.  (With ``drop``
        faults or a shared cache, a retry may legitimately *undercount*
        by reusing the doomed attempt's work; the double-count direction
        is what this test guards.)  Seed 7 kills both cells' first two
        attempts and lets the third through."""
        monkeypatch.setenv("REPRO_CACHE", "0")
        reset_cache()
        serial = self._serial_reference(tmp_path, monkeypatch,
                                        ("baseline",))
        monkeypatch.setenv("REPRO_DISPATCH_FAULTS", "kill:0.6;seed=7")
        results = run_apps(APPS, ("baseline",), jobs=2, walk_blocks=WALK,
                           executor="fleet")
        assert all(results[name] for name in APPS)
        report = last_dispatch_report()
        assert report.to_dict()["retries"] >= 1, \
            "fault plan injected nothing; pick a hotter seed"
        assert report.faults == "kill:0.6;seed=7"
        phases = telemetry.phase_stats()
        for phase in ("simulate", "generate"):
            assert phases.get(phase, {}).get("calls", 0) \
                == serial.get(phase, {}).get("calls", 0), phase

    @pytest.mark.parametrize("executor", ["fleet"])
    def test_crashed_worker_totals_match_serial(self, tmp_path,
                                                monkeypatch, executor):
        """The exploding-recipe regression, per backend: every remote
        attempt crashes, the cell quarantines to the parent, and the
        parent's totals still match a plain serial run's."""
        with SCHEME_RECIPES.scoped("explode-after-work",
                                   _exploding_recipe):
            serial = self._serial_reference(
                tmp_path, monkeypatch, ("explode-after-work",),
                raises="recipe exploded")
            with pytest.raises(ValueError, match="recipe exploded"):
                run_apps(APPS, ("explode-after-work",), jobs=2,
                         walk_blocks=WALK, executor=executor)
            report = last_dispatch_report()
            assert report.to_dict()["quarantined"], \
                "poison cells should have been quarantined"
            assert telemetry.phase_stats() \
                .get("generate", {}).get("calls", 0) \
                == serial.get("generate", {}).get("calls", 0)


class TestMetricsExactlyOnce:
    """The typed metrics registry must obey the same exactly-once
    discipline as phase stats: a fleet sweep under fault injection ends
    with counters bit-equal to an inline run's, because only the
    successful attempt's snapshot is merged."""

    def _counters(self):
        from repro.telemetry import metrics

        flat = metrics.REGISTRY.counters_flat("repro_cells_total")
        flat.update(
            metrics.REGISTRY.counters_flat("repro_sim_instructions_total"))
        return flat

    def _inline_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        reset_cache()
        run_apps(APPS, ("baseline",), jobs=1, walk_blocks=WALK)
        reference = self._counters()
        assert reference.get("repro_cells_total{status=done}") == len(APPS)
        assert reference.get("repro_sim_instructions_total{}", 0) > 0
        clear_cache()
        telemetry.reset()
        return reference

    @pytest.mark.parametrize("faults", ["kill:0.6;seed=7",
                                        "corrupt:0.9;seed=3"])
    def test_fleet_faulted_counters_bit_equal_inline(self, monkeypatch,
                                                     faults):
        """Killed attempts die with their registry; corrupted payloads
        are discarded snapshot and all.  Either way the retry's snapshot
        is the only one merged, so cell and instruction totals match the
        inline run exactly — not approximately."""
        inline = self._inline_reference(monkeypatch)
        monkeypatch.setenv("REPRO_DISPATCH_FAULTS", faults)
        results = run_apps(APPS, ("baseline",), jobs=2, walk_blocks=WALK,
                           executor="fleet")
        assert all(results[name] for name in APPS)
        assert last_dispatch_report().to_dict()["retries"] >= 1, \
            "fault plan injected nothing; pick a hotter seed"
        assert self._counters() == inline

    def test_events_narrate_attempts_metrics_stay_exact(self, tmp_path,
                                                        monkeypatch):
        """Events and metrics deliberately disagree under retries: the
        event log keeps every attempt (including the doomed ones), while
        the metrics registry counts each cell once."""
        from repro.telemetry import events

        inline = self._inline_reference(monkeypatch)
        log = tmp_path / "events.jsonl"
        monkeypatch.setenv(events.ENV_EVENTS, str(log))
        events.set_path(None)  # re-read the env
        monkeypatch.setenv("REPRO_DISPATCH_FAULTS", "kill:0.6;seed=7")
        try:
            run_apps(APPS, ("baseline",), jobs=2, walk_blocks=WALK,
                     executor="fleet")
        finally:
            events.set_path("")
        attempts = [r for r in events.iter_events(str(log))
                    if r["kind"] == "dispatch.attempt"]
        outcomes = {r["outcome"] for r in attempts}
        assert "worker-died" in outcomes and "ok" in outcomes
        assert len([r for r in attempts if r["outcome"] == "ok"]) \
            == len(APPS)
        assert len(attempts) > len(APPS)  # doomed attempts stay logged
        assert self._counters() == inline
        worker_spans = [r for r in events.iter_events(str(log))
                        if r["kind"] == "span" and r["name"] == "simulate"
                        and r["pid"] != os.getpid()]
        assert worker_spans, "fleet workers wrote no simulate spans"


class TestCellDeadline:
    def test_wedged_cell_raises_structured_timeout(self, monkeypatch):
        """A cell that stops making wall-clock progress fails loudly
        with the cell id in the error instead of hanging the run."""
        monkeypatch.setenv("REPRO_DISPATCH_TIMEOUT", "0.5")
        with SCHEME_RECIPES.scoped("sleep-forever", _sleeping_recipe):
            with pytest.raises(CellTimeoutError,
                               match="Music.google-tablet") as excinfo:
                run_apps(("Music",), ("sleep-forever",), jobs=1,
                         walk_blocks=WALK, engine="inline")
        assert excinfo.value.task_id == "Music|google-tablet"
        report = last_dispatch_report()
        assert report.to_dict()["timeouts"] >= 1


class TestRunManifest:
    def test_run_apps_writes_manifest(self):
        run_apps(APPS, ("baseline",), jobs=1, walk_blocks=WALK)
        manifest = load_manifest(str(manifest_dir() / "last_run.json"))
        assert manifest["kind"] == "run_apps"
        assert manifest["apps"] == sorted(APPS)
        assert manifest["walk_blocks"] == WALK
        assert set(manifest["seeds"]) == set(APPS)
        assert manifest["wall_s"] > 0
        assert manifest["phases"].get("simulate", {}).get("calls") \
            == len(APPS)
        assert manifest["cache"]["misses"] > 0

    def test_warm_run_manifest_shows_cache_hits(self):
        run_apps(APPS, ("baseline",), jobs=1, walk_blocks=WALK)
        clear_cache()  # drop the in-process memo, keep the disk cache
        run_apps(APPS, ("baseline",), jobs=1, walk_blocks=WALK)
        manifest = load_manifest(str(manifest_dir() / "last_run.json"))
        assert manifest["cache"]["hits"] >= len(APPS)
        log = (manifest_dir() / "manifests.jsonl").read_text()
        assert len(log.strip().splitlines()) == 2
