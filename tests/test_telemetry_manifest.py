"""Tests for run manifests."""

import json

import pytest

from repro import telemetry
from repro.cache import reset_cache
from repro.telemetry import manifest as tmanifest


@pytest.fixture(autouse=True)
def _fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reset_cache()
    telemetry.reset()
    yield
    telemetry.reset()
    reset_cache()


class TestManifest:
    def _record(self):
        with telemetry.phase("simulate"):
            pass
        telemetry.inc("repro_cache_requests_total", 2,
                      kind="stats", result="hit")
        return tmanifest.record_run(
            "run_apps",
            apps=["Music"],
            schemes=["baseline"],
            configs=["google-tablet"],
            walk_blocks=120,
            seeds={"Music": 17},
            wall_s=1.25,
        )

    def test_record_run_writes_last_run_and_log(self):
        path = self._record()
        assert path is not None and path.name == tmanifest.LAST_RUN
        manifest = tmanifest.load_manifest(str(path))
        assert manifest["kind"] == "run_apps"
        assert manifest["apps"] == ["Music"]
        assert manifest["seeds"] == {"Music": 17}
        assert manifest["wall_s"] == 1.25
        assert "counters" not in manifest
        assert manifest["metrics"]["repro_cache_requests_total"][
            "samples"] == [[[["kind", "stats"], ["result", "hit"]], 2]]
        assert manifest["phases"]["simulate"]["calls"] == 1
        assert len(manifest["config_hash"]) == 64
        log = path.parent / tmanifest.LOG
        assert json.loads(log.read_text()) == manifest

    def test_config_hash_tracks_invocation(self):
        base = dict(apps=["Music"], schemes=["baseline"],
                    configs=["google-tablet"], walk_blocks=120,
                    seeds={"Music": 17}, wall_s=0.0)
        a = tmanifest.build_manifest("run_apps", **base)
        b = tmanifest.build_manifest("run_apps", **base)
        changed = tmanifest.build_manifest(
            "run_apps", **{**base, "walk_blocks": 700})
        assert a["config_hash"] == b["config_hash"]
        assert a["config_hash"] != changed["config_hash"]

    def test_load_manifest_takes_last_jsonl_line(self, tmp_path):
        log = tmp_path / "manifests.jsonl"
        log.write_text('{"wall_s": 1}\n{"wall_s": 2}\n')
        assert tmanifest.load_manifest(str(log))["wall_s"] == 2

    def test_disabled_cache_skips_manifest(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        reset_cache()
        assert self._record() is None
