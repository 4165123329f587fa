"""Tests for the content-addressed artifact cache and its runner wiring."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cache as cache_mod
from repro.cache import ArtifactCache, artifact_key
from repro.cpu import GOOGLE_TABLET, simulate
from repro.experiments.runner import app_context, clear_cache, run_apps
from repro.profiler import FinderConfig, find_critic_profile
from repro.workloads import generate, get_profile


@pytest.fixture
def store(tmp_path):
    return ArtifactCache(root=str(tmp_path), enabled=True)


@pytest.fixture(scope="module")
def workload():
    return generate(get_profile("Email"), walk_blocks=60)


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """Route the process-wide cache at a fresh directory for one test."""
    monkeypatch.setenv(cache_mod.ENV_DIR, str(tmp_path))
    monkeypatch.delenv(cache_mod.ENV_ENABLE, raising=False)
    cache_mod.reset_cache()
    clear_cache()
    yield tmp_path
    cache_mod.reset_cache()
    clear_cache()


class TestArtifactKey:
    def test_deterministic(self):
        profile = get_profile("Email")
        assert artifact_key("trace", profile=profile) \
            == artifact_key("trace", profile=profile)

    def test_walk_blocks_changes_key(self):
        profile = get_profile("Email")
        assert artifact_key("trace", profile=profile.scaled(0.5)) \
            != artifact_key("trace", profile=profile)

    def test_scheme_changes_key(self):
        profile = get_profile("Email")
        assert artifact_key("trace", profile=profile, scheme="critic") \
            != artifact_key("trace", profile=profile, scheme="baseline")

    def test_schema_bump_changes_key(self, monkeypatch):
        profile = get_profile("Email")
        before = artifact_key("trace", profile=profile)
        monkeypatch.setattr(cache_mod, "SCHEMA_VERSION",
                            cache_mod.SCHEMA_VERSION + 1)
        assert artifact_key("trace", profile=profile) != before

    def test_kind_changes_key(self):
        profile = get_profile("Email")
        assert artifact_key("trace", profile=profile) \
            != artifact_key("stats", profile=profile)

    def test_rejects_unserializable_params(self):
        with pytest.raises(TypeError):
            artifact_key("trace", fn=lambda: None)


class TestArtifactStore:
    def test_trace_round_trip(self, store, workload):
        trace = workload.trace()
        key = artifact_key("trace", profile=workload.profile)
        assert store.load_trace(key) is None
        store.store_trace(key, trace)
        loaded = store.load_trace(key)
        assert loaded is not None
        assert len(loaded) == len(trace)
        assert dataclasses.asdict(simulate(loaded)) \
            == dataclasses.asdict(simulate(trace))

    def test_profile_round_trip(self, store, workload):
        profile = find_critic_profile(
            workload.trace(), workload.program, FinderConfig(),
            app_name="Email",
        )
        key = artifact_key("critic_profile", profile=workload.profile)
        store.store_profile(key, profile)
        loaded = store.load_profile(key)
        assert loaded is not None
        assert loaded.records == profile.records
        assert loaded.profiled_instructions == profile.profiled_instructions

    def test_stats_round_trip(self, store, workload):
        stats = simulate(workload.trace())
        key = artifact_key("stats", profile=workload.profile,
                           config=GOOGLE_TABLET)
        store.store_stats(key, stats)
        loaded = store.load_stats(key)
        assert loaded is not None
        assert dataclasses.asdict(loaded) == dataclasses.asdict(stats)

    def test_schema_bump_invalidates(self, store, workload, monkeypatch):
        stats = simulate(workload.trace())
        key = artifact_key("stats", profile=workload.profile)
        store.store_stats(key, stats)
        monkeypatch.setattr(cache_mod, "SCHEMA_VERSION",
                            cache_mod.SCHEMA_VERSION + 1)
        # both the key and the on-disk namespace move
        assert store.load_stats(artifact_key(
            "stats", profile=workload.profile)) is None

    def test_disabled_store_is_noop(self, tmp_path, workload):
        store = ArtifactCache(root=str(tmp_path), enabled=False)
        stats = simulate(workload.trace())
        store.store_stats("0" * 64, stats)
        assert store.load_stats("0" * 64) is None
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_artifact_is_a_miss(self, store, workload):
        key = artifact_key("trace", profile=workload.profile)
        path = store.path_for("trace", key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not a trace\n")
        assert store.load_trace(key) is None

    def test_clear(self, store, workload):
        stats = simulate(workload.trace())
        store.store_stats("ab" * 32, stats)
        assert store.clear() == 1
        assert store.load_stats("ab" * 32) is None

    def test_clear_deletes_but_never_counts_orphan_tmp_files(
            self, store, workload):
        """An interrupted atomic write leaves a ``.tmp-*`` orphan next
        to the artifacts.  ``clear()`` must sweep it away, but the
        return value counts artifacts — the orphan was never one."""
        stats = simulate(workload.trace())
        store.store_stats("ab" * 32, stats)
        artifact = store.path_for("stats", "ab" * 32)
        orphan = artifact.parent / ".tmp-1234-abandoned"
        orphan.write_bytes(b"partial write")
        assert store.clear() == 1  # the stats artifact, not the orphan
        assert not orphan.exists()
        assert not artifact.exists()


_WRITER = """
import sys
from repro.cache import ArtifactCache
store = ArtifactCache(root=sys.argv[1], enabled=True)
text = sys.argv[3] * 200000
torn = 0
for _ in range(25):
    store.put("stats", sys.argv[2], text)
    seen = store.get("stats", sys.argv[2])
    if seen is None or len(seen) != len(text) or len(set(seen)) != 1:
        torn += 1
print(torn)
"""


class TestDiskStore:
    def test_paths_byte_identical_to_schema_v3_layout(self, store,
                                                      tmp_path):
        key = "ab" + "0" * 62
        assert store.path_for("stats", key) == \
            tmp_path / f"v{cache_mod.SCHEMA_VERSION}" / "stats" / "ab" \
            / f"{key}.json"
        assert store.path_for("trace", key).suffix == ".trace"
        assert store.backend_spec() == f"local:{tmp_path}"

    def test_root_precedence(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache_mod.ENV_DIR, str(tmp_path / "env"))
        assert ArtifactCache(root=str(tmp_path / "arg")).root == \
            tmp_path / "arg"
        assert ArtifactCache().root == tmp_path / "env"
        monkeypatch.delenv(cache_mod.ENV_DIR)
        assert ArtifactCache().root == \
            Path(os.path.expanduser("~/.cache/repro"))

    def test_roundtrip_skips_tmp_files(self, store):
        key = "aa" + "1" * 62
        store.put("stats", key, "{}")
        orphan = store.path_for("stats", key).parent / ".tmp-orphan.json"
        orphan.write_text("torn")
        assert store.get("stats", key) == "{}"
        assert store.get("stats", "aa" + "2" * 62) is None
        assert store.clear() == 1  # the artifact, never the orphan

    def test_two_process_writes_are_atomic(self, store, tmp_path):
        """Two processes hammering the same key: readers must only ever
        observe one writer's complete text, never a torn mix."""
        key = "cd" + "3" * 62
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "src")
        env = dict(os.environ, PYTHONPATH=src)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER, str(tmp_path), key,
                 marker],
                env=env, stdout=subprocess.PIPE, text=True)
            for marker in ("A", "B")
        ]
        torn = []
        for _ in range(2000):
            text = store.get("stats", key)
            if text is not None and (len(text) != 200000
                                     or len(set(text)) != 1):
                torn.append(len(text))
        outs = [proc.communicate(timeout=120)[0].strip()
                for proc in procs]
        assert all(proc.returncode == 0 for proc in procs)
        assert torn == []
        assert outs == ["0", "0"]  # writers never read torn text either
        assert store.get("stats", key) in ("A" * 200000, "B" * 200000)
        parent = store.path_for("stats", key).parent
        assert [p for p in parent.iterdir()
                if p.name.startswith(".tmp-")] == []


class TestRunnerWiring:
    def test_warm_stats_identical_and_hit(self, isolated_cache):
        cold = app_context("Email", 60).stats("critic")
        assert cache_mod.get_cache().hits == 0
        clear_cache()
        cache_mod.reset_cache()
        warm = app_context("Email", 60).stats("critic")
        assert cache_mod.get_cache().hits >= 1
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)

    def test_changed_walk_blocks_misses(self, isolated_cache):
        app_context("Email", 60).stats("baseline")
        clear_cache()
        cache_mod.reset_cache()
        app_context("Email", 80).stats("baseline")
        cache = cache_mod.get_cache()
        assert cache.hits == 0
        assert cache.misses >= 1

    def test_changed_scheme_misses(self, isolated_cache):
        app_context("Email", 60).stats("critic")
        clear_cache()
        cache_mod.reset_cache()
        app_context("Email", 60).stats("hoist")
        cache = cache_mod.get_cache()
        assert cache.misses >= 2  # the hoist trace + stats are new
        assert cache.hits >= 1    # the critic-profile artifact is reused

    def test_run_apps_matches_stats_and_seeds_memo(self, isolated_cache):
        results = run_apps(["Email", "Maps"], ("baseline", "critic"),
                           walk_blocks=60)
        for name in ("Email", "Maps"):
            ctx = app_context(name, 60)
            for scheme in ("baseline", "critic"):
                cell = results[name][(scheme, GOOGLE_TABLET.name)]
                assert ctx._stats[(scheme, GOOGLE_TABLET.name)] is cell
                assert dataclasses.asdict(ctx.stats(scheme)) \
                    == dataclasses.asdict(cell)

    def test_run_apps_serial_fallback(self, isolated_cache):
        serial = run_apps(["Email"], ("baseline",), jobs=1, walk_blocks=60)
        assert serial["Email"][("baseline", GOOGLE_TABLET.name)].cycles > 0

    def test_corrupt_trace_blob_rematerializes_identically(
            self, isolated_cache):
        """A trace blob that fails to parse bumps the corrupt counter,
        degrades to a miss, and the runner re-materializes the trace to
        bit-identical stats (and rewrites a blob that loads)."""
        from repro import telemetry

        cold = app_context("Email", 60).stats("critic")
        root = isolated_cache / f"v{cache_mod.SCHEMA_VERSION}"
        blobs = sorted((root / "trace").rglob("*.trace"))
        assert blobs
        for blob in blobs:
            text = blob.read_text()
            blob.write_text(text[:len(text) // 2])  # a torn column line
        for stats_blob in (root / "stats").rglob("*.json"):
            stats_blob.unlink()
        clear_cache()
        cache_mod.reset_cache()
        registry = telemetry.metrics.REGISTRY
        before = registry.value("repro_cache_corrupt_total",
                                kind="trace") or 0
        warm = app_context("Email", 60).stats("critic")
        after = registry.value("repro_cache_corrupt_total", kind="trace")
        assert after is not None and after > before
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)
        store = cache_mod.get_cache()
        rewritten = [blob for blob in blobs
                     if store.load_trace(blob.stem) is not None]
        assert rewritten
