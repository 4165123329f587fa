"""Tests for the batched simulation engine (``repro.cpu.batch``).

The engine's contract is *bit-identity*: a batch must produce exactly
the ``SimStats`` the inline simulator produces cell by cell, whatever
mix of fast-path and fallback cells the batch contains.  These tests
exercise that contract on kernel corner cases (over-subscribed and
shrunken L2s, the per-cell fallbacks), plus the memoization-sharing and
heterogeneous-grouping guarantees, engine selection, the manifest's
per-run batch block, and the loud numpy error.  The 56-cell golden
comparison runs under both engines in ``tests/test_golden_stats.py``;
the engine x executor x cache x family x front matrix, with the
no-compiler row, is ``tests/test_identity_matrix.py``.
"""

import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro import telemetry
from repro.cache import reset_cache
from repro.cpu import _batchkernel as bk
from repro.cpu import batch as batch_mod
from repro.cpu import pipeline
from repro.cpu.batch import last_batch_report, simulate_batch
from repro.cpu.config import (
    GOOGLE_TABLET,
    config_backend_prio,
    config_critical_prefetch,
    config_efetch,
    config_perfect_br,
)
from repro.cpu.pipeline import simulate
from repro.experiments import runner
from repro.experiments.fig11 import MECHANISMS
from repro.registry import (
    HARDWARE_CONFIGS,
    PREFETCHERS,
    SCHEME_RECIPES,
    SIMULATORS,
    RegistryError,
)
from repro.registry.protocols import PrefetcherBase
from repro.telemetry.manifest import LAST_RUN, load_manifest, manifest_dir
from repro.trace.dependence import compute_consumers, compute_producers
from repro.trace.dynamic import Trace
from repro.workloads import ALL_PROFILES

WALK = 100


@pytest.fixture(autouse=True)
def _fresh_state(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reset_cache()
    runner.clear_cache()
    yield
    runner.clear_cache()
    reset_cache()


def _fresh_trace(name="Music", blocks=WALK, scheme="baseline"):
    """A ``Trace`` object no prior test memoized against.

    The weak memos (``pipeline._trace_tables``, ``batch._arrays``) are
    keyed by Trace identity; copying the entries into a new object gives
    each test a clean memoization slate.
    """
    src = runner.app_context(name, blocks).scheme_trace(scheme)
    return Trace(src.entries, name=src.name, program_name=src.program_name)


def _inline(trace, config, **kwargs):
    return simulate(trace, config, engine="inline", **kwargs)


class TestBitIdentity:
    def test_batch_matches_inline_grid(self):
        trace = _fresh_trace()
        configs = [GOOGLE_TABLET, config_efetch(), config_perfect_br(),
                   config_backend_prio()]
        batch = simulate_batch(trace, configs)
        for config, stats in zip(configs, batch):
            assert stats.to_dict() == _inline(trace, config).to_dict(), \
                config.name
        report = last_batch_report()
        assert report["width"] == len(configs)
        assert report["fast"] == len(configs)
        assert report["fallbacks"] == []

    def test_over_subscribed_l2_sets_run_on_the_kernel(self):
        """Acrobat@80 over-subscribes L2 sets (the inline simulator
        reports L2 misses and DRAM reads); the kernel models those sets
        and the DRAM rows behind them instead of falling back."""
        configs = [HARDWARE_CONFIGS.create(name) for name in (
            "google-tablet", "2xFD", "4xI$", "EFetch", "PerfectBr",
            "BackendPrio", "AllHW", "trrip-icache")]
        cells = []
        for scheme in ("baseline", "critic"):
            trace = _fresh_trace("Acrobat", 80, scheme)
            batch = simulate_batch(trace, configs, validate=True)
            assert last_batch_report()["fast"] == len(configs), scheme
            for config, stats in zip(configs, batch):
                assert stats.to_dict() == _inline(
                    trace, config, validate=True).to_dict(), \
                    (scheme, config.name)
            cells += batch
        assert any(stats.l2_misses > 0 for stats in cells)
        assert any(stats.dram_reads > 0 for stats in cells)

    def test_shrunken_l2_replays_i_side_misses_and_fills(self):
        """Tiny L2s make i-side demand lookups miss to DRAM and let
        prefetch fills (fetch- and call-observing) reorder and evict
        lines of over-subscribed sets: the kernel replays each at the
        fetch point inline performs it."""
        both = config_efetch().with_components(
            prefetchers=("critical-nextline",))
        configs = [
            replace(base, name=f"{base.name}-l2-{kib}k-{ways}w",
                    memory=replace(base.memory, l2_bytes=kib * 1024,
                                   l2_assoc=ways, icache_bytes=4096))
            for base in (config_efetch(), both)
            for kib, ways in ((4, 1), (8, 2))
        ]
        trace = _fresh_trace()
        batch = simulate_batch(trace, configs, validate=True)
        assert last_batch_report()["fast"] == len(configs)
        for config, stats in zip(configs, batch):
            assert stats.to_dict() == _inline(
                trace, config, validate=True).to_dict(), config.name

    def test_no_compiler_runs_every_cell_inline(self, tmp_path,
                                                monkeypatch):
        """A host without a C compiler degrades to inline, names the
        reason per cell, and builds no profiles."""
        monkeypatch.setenv("CC", "false")
        monkeypatch.setenv("REPRO_BATCH_KERNEL_DIR", str(tmp_path))
        monkeypatch.setattr(bk, "_ckernel", False)
        trace = _fresh_trace()
        configs = [GOOGLE_TABLET, config_efetch()]
        stats = simulate_batch(trace, configs)
        for config, cell in zip(configs, stats):
            assert cell.to_dict() == _inline(trace, config).to_dict(), \
                config.name
        report = last_batch_report()
        assert [reason for _, reason in report["fallbacks"]] == \
            ["no C kernel"] * len(configs)
        assert report["kernel"] == "none"
        assert trace not in batch_mod._arrays

    def test_batch_counts_telemetry(self):
        trace = _fresh_trace()
        telemetry.reset()
        simulate_batch(trace, [GOOGLE_TABLET, config_efetch()])
        registry = telemetry.metrics.REGISTRY
        fast = registry.value("repro_batch_cells_total", path="fast") or 0
        fallback = registry.value("repro_batch_cells_total",
                                  path="fallback") or 0
        assert fast + fallback == 2


class TestMemoizationSharing:
    def test_kernel_cells_build_columns_once_and_no_trace_tables(
            self, monkeypatch):
        """A batch whose cells all run on the kernel builds the trace's
        numpy columns once, shared by every cell, and never the inline
        ``_TraceTables``; a later inline run builds those itself."""
        trace = _fresh_trace()
        builds = []
        real = pipeline._TraceTables

        class Counting(real):
            def __init__(self, t):
                builds.append(t)
                super().__init__(t)

        monkeypatch.setattr(pipeline, "_TraceTables", Counting)
        batch = simulate_batch(
            trace, [GOOGLE_TABLET, config_efetch(), config_backend_prio()])
        assert last_batch_report()["fast"] == 3
        assert builds == []
        arrays = batch_mod._arrays[trace]
        simulate_batch(trace, [GOOGLE_TABLET])
        assert batch_mod._arrays[trace] is arrays

        inline_stats = _inline(trace, GOOGLE_TABLET)
        assert len(builds) == 1
        assert inline_stats.to_dict() == batch[0].to_dict()

    def test_profiles_shared_within_and_across_batches(self):
        trace = _fresh_trace()
        configs = [GOOGLE_TABLET, config_backend_prio(), config_efetch()]
        simulate_batch(trace, configs)
        memo = batch_mod._arrays[trace].profiles
        bp_keys = [k for k in memo if k[0] == "bp"]
        mem_keys = [k for k in memo if k[0] == "mem"]
        # All three configs share one branch profile; google-tablet and
        # backend-prio share a memory profile, efetch gets its own.
        assert len(bp_keys) == 1
        assert len(mem_keys) == 2
        # A second batch over the same trace is a pure memo hit.
        keys = set(memo)
        simulate_batch(trace, configs)
        assert set(batch_mod._arrays[trace].profiles) == keys


class _LoadSpy(PrefetcherBase):
    """Custom registry prefetcher that observes loads (never issues):
    the batch engine cannot vectorize it and must fall back inline."""

    name = "load-spy"

    def __init__(self):
        self.issued = 0

    def observe_load(self, pc, addr, critical):
        return []


class TestHeterogeneousGrouping:
    def test_mixed_traces_and_custom_prefetcher_match_inline(
            self, tmp_path, monkeypatch):
        """Satellite: a sweep mixing two traces and a non-vectorizable
        custom prefetcher splits into per-trace batch groups plus inline
        fallbacks, and matches a pure-inline sweep bitwise — including
        the manifest ``config_hash``."""
        apps = ("Music", "Email")
        configs = (GOOGLE_TABLET,
                   GOOGLE_TABLET.with_components(prefetchers=("load-spy",)))
        grids = {}
        hashes = {}
        identities = {}
        with PREFETCHERS.scoped("load-spy", lambda config: _LoadSpy()):
            for engine in ("batch", "inline"):
                # Private cache per leg: the second leg must recompute,
                # not read the first leg's artifacts.
                monkeypatch.setenv("REPRO_CACHE_DIR",
                                   str(tmp_path / engine))
                reset_cache()
                runner.clear_cache()
                grids[engine] = runner.run_apps(
                    apps, schemes=("baseline",), jobs=1, configs=configs,
                    walk_blocks=WALK, engine=engine,
                )
                if engine == "batch":
                    report = last_batch_report()
                manifest = load_manifest(str(manifest_dir() / LAST_RUN))
                hashes[engine] = manifest["config_hash"]
                identities[engine] = manifest["engine"]

        for app in apps:
            for key, stats in grids["inline"][app].items():
                assert grids["batch"][app][key].to_dict() == \
                    stats.to_dict(), (app, key)
        # Engine identity is recorded in the manifest but excluded from
        # the config hash (engines are bit-identical provenance).
        assert hashes["batch"] == hashes["inline"]
        assert identities["batch"] == "batch@1"
        assert identities["inline"] == "inline@1"
        # The batch groups really did exist — and the custom prefetcher
        # cell really did take the inline fallback.
        assert report["width"] == len(configs)
        assert report["fast"] == 1
        [(config_name, reason)] = report["fallbacks"]
        assert config_name == configs[1].name
        assert "load-observing" in reason


class TestFallbacks:
    def test_max_cycles_falls_back_bit_identically(self):
        trace = _fresh_trace()
        batch, = simulate_batch(trace, [GOOGLE_TABLET], max_cycles=500)
        assert last_batch_report()["fallbacks"] == \
            [(GOOGLE_TABLET.name, "max-cycles")]
        assert batch.to_dict() == \
            _inline(trace, GOOGLE_TABLET, max_cycles=500).to_dict()

    def test_cold_start_falls_back_bit_identically(self):
        trace = _fresh_trace()
        batch, = simulate_batch(trace, [GOOGLE_TABLET], warm=False)
        assert last_batch_report()["fallbacks"] == \
            [(GOOGLE_TABLET.name, "cold-start")]
        assert batch.to_dict() == \
            _inline(trace, GOOGLE_TABLET, warm=False).to_dict()

    def test_load_observing_prefetcher_falls_back(self):
        trace = _fresh_trace()
        config = config_critical_prefetch()
        batch, = simulate_batch(trace, [config])
        [(name, reason)] = last_batch_report()["fallbacks"]
        assert name == config.name
        assert "load-observing" in reason
        assert batch.to_dict() == _inline(trace, config).to_dict()

    @pytest.mark.parametrize("status, reason", [
        (2, "kernel deadlock"), (3, "kernel ring overflow")])
    def test_kernel_status_falls_back_bit_identically(
            self, status, reason, monkeypatch):
        """A cell whose kernel call reports a deadlock or a ring
        overflow is redone inline; the batch's other cells keep their
        kernel results."""
        trace = _fresh_trace()
        configs = [GOOGLE_TABLET, config_efetch(), config_backend_prio()]
        real = bk.run_cell
        calls = []

        def stub(fn, sh, cs):
            calls.append(cs)
            return status if len(calls) == 2 else real(fn, sh, cs)

        monkeypatch.setattr(bk, "run_cell", stub)
        batch = simulate_batch(trace, configs)
        report = last_batch_report()
        assert report["fallbacks"] == [(configs[1].name, reason)]
        assert report["fast"] == 2
        for config, stats in zip(configs, batch):
            assert stats.to_dict() == _inline(trace, config).to_dict(), \
                config.name


class TestCellMemory:
    def test_a_wide_batch_holds_one_cell_at_a_time(self):
        """On memoized columns and profiles, the seven Fig-11 configs in
        one batch peak below twice the largest single-config batch:
        each cell's state is dropped before the next cell is built."""
        trace = _fresh_trace("Email", WALK, "critic")
        configs = [HARDWARE_CONFIGS.create(name)
                   for name in ("google-tablet",) + MECHANISMS]
        simulate_batch(trace, configs)  # memoize columns and profiles

        def peak(cells):
            tracemalloc.start()
            try:
                simulate_batch(trace, cells)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        single = max(peak([config]) for config in configs)
        wide = peak(configs)
        assert last_batch_report()["fast"] == len(configs)
        assert wide < 2 * single, (wide, single)


class TestManifestBatchBlock:
    def test_block_covers_only_its_own_run(self):
        """The registry is process-cumulative; a run's manifest block is
        the part its own batches added."""
        telemetry.reset()
        runner.run_apps(["Music"], jobs=1, walk_blocks=60, engine="batch",
                        configs=(GOOGLE_TABLET, config_critical_prefetch()))
        first = load_manifest(str(manifest_dir() / LAST_RUN))["batch"]
        assert first["cells_by_path"] == {"fallback": 1, "fast": 1}
        runner.run_apps(["Email"], jobs=1, walk_blocks=60, engine="batch")
        second = load_manifest(str(manifest_dir() / LAST_RUN))["batch"]
        assert second["cells_by_path"] == {"fast": 1}
        assert second["fallbacks_by_reason"] == {}
        assert second["groups_by_kernel"] == {"c": 1}
        assert second["group_width"]["count"] == 1
        assert second["group_width"]["buckets"]["1"] == 1


class TestEngineSelection:
    def test_registry_lists_both_engines(self):
        assert "inline" in SIMULATORS.names()
        assert "batch" in SIMULATORS.names()
        assert SIMULATORS.identity("batch") == "batch@1"

    def test_engine_kwarg(self):
        trace = _fresh_trace()
        assert simulate(trace, GOOGLE_TABLET, engine="batch").to_dict() \
            == _inline(trace, GOOGLE_TABLET).to_dict()

    def test_unknown_engine_fails_loudly(self):
        trace = _fresh_trace()
        with pytest.raises(RegistryError, match="batch"):
            simulate(trace, GOOGLE_TABLET, engine="bacth")

    def test_batch_fleet_is_sized_by_its_tasks(self):
        """Batch tasks run per app x scheme: two schemes on one config
        are two tasks, so two jobs get a two-worker fleet."""
        runner.run_apps(["Music"], ("baseline", "critic"), jobs=2,
                        configs=(GOOGLE_TABLET,), walk_blocks=60,
                        engine="batch", executor="fleet")
        report = runner.last_dispatch_report()
        assert (report.executor, report.workers) == ("fleet@1", 2)
        assert [result.task_id for result in report.results] == \
            ["Music|baseline|batch", "Music|critic|batch"]


class TestNumpyDependency:
    def test_missing_numpy_names_the_engine(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ImportError) as excinfo:
            batch_mod._require_numpy()
        message = str(excinfo.value)
        assert "batch" in message
        assert "--engine inline" in message
        assert "engine='inline'" in message

    def test_inline_engine_importable_without_numpy(self):
        # The inline path must never touch repro.cpu.batch: listing the
        # registry and creating the inline engine import nothing heavy.
        factory = SIMULATORS.create("inline")
        trace = _fresh_trace(blocks=40)
        stats = factory(trace, GOOGLE_TABLET)
        assert stats.instructions == len(trace)


class TestColumns:
    @pytest.mark.parametrize("app", sorted(ALL_PROFILES))
    def test_columnar_dependence_equals_the_reference(self, app):
        """The batch engine's vectorized producer/consumer CSR maps and
        critical mask equal the reference dependence analysis element by
        element, in order, for every scheme trace of the app."""
        ctx = runner.app_context(app, 60)
        for scheme in SCHEME_RECIPES.names():
            trace = ctx.scheme_trace(scheme)
            cols = batch_mod._build_trace_arrays(np, trace)
            producers = compute_producers(trace)
            consumers = compute_consumers(producers)
            assert cols.prod_ptr.tolist() == [0] + list(
                np.cumsum([len(p) for p in producers])), (app, scheme)
            assert cols.prod_idx.tolist() == [
                p for prods in producers for p in prods], (app, scheme)
            assert cols.cons_ptr.tolist() == [0] + list(
                np.cumsum([len(c) for c in consumers])), (app, scheme)
            assert cols.cons_idx.tolist() == [
                c for cons in consumers for c in cons], (app, scheme)
            assert set(np.flatnonzero(cols.critical).tolist()) == \
                pipeline._TraceTables(trace).default_critical, (app, scheme)


class TestKernelBuild:
    @pytest.mark.parametrize("compiler", ["false", "/nonexistent/cc"])
    def test_failed_build_leaves_no_temp_file(self, compiler, tmp_path,
                                              monkeypatch):
        """A compiler that fails or cannot start yields no kernel and
        leaves nothing behind in the kernel directory."""
        kernel_dir = tmp_path / "kernel"
        monkeypatch.setenv("CC", compiler)
        monkeypatch.setenv("REPRO_BATCH_KERNEL_DIR", str(kernel_dir))
        monkeypatch.setattr(bk, "_ckernel", False)
        assert bk.get_kernel() is None
        assert list(kernel_dir.glob("tmp*.so")) == []

    def test_processes_sharing_a_directory_compile_once(self, tmp_path):
        """Two processes building the kernel into one directory at once
        (a fleet's workers) run the compiler once and both load it."""
        log = tmp_path / "cc.log"
        wrapper = tmp_path / "cc"
        wrapper.write_text(f"#!/bin/sh\necho run >> {log}\n"
                           f"exec cc \"$@\"\n")
        wrapper.chmod(0o755)
        env = dict(os.environ, CC=str(wrapper),
                   REPRO_BATCH_KERNEL_DIR=str(tmp_path / "kernel"),
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        code = ("from repro.cpu import _batchkernel as bk\n"
                "assert bk.get_kernel() is not None\n")
        procs = [subprocess.Popen([sys.executable, "-c", code], env=env)
                 for _ in range(2)]
        assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
        assert log.read_text().split() == ["run"]

    def test_prebuild_writes_only_the_library(self, tmp_path, monkeypatch):
        """The background build compiles under its caller's settings and
        writes only the library: the module's kernel stays unprobed,
        and the next get_kernel loads that build without compiling."""
        monkeypatch.setenv("REPRO_BATCH_KERNEL_DIR", str(tmp_path))
        monkeypatch.setattr(bk, "_ckernel", False)

        def builds():
            return [thread for thread in threading.enumerate()
                    if thread.name == "batchkernel-build"]

        bk.prebuild()
        # later settings do not reach a build in flight
        monkeypatch.setenv("CC", "false")
        for thread in builds():
            thread.join(timeout=120)
        assert bk._ckernel is False
        assert len(list(tmp_path.glob("batchkernel-*.so"))) == 1
        assert list(tmp_path.glob("tmp*.so")) == []
        bk.prebuild()  # the library is on disk: no second build
        assert builds() == []
        assert bk.get_kernel() is not None

    def test_library_name_covers_source_and_flags(self, monkeypatch):
        """A library built from other flags is never picked up."""
        path = bk._so_path("kernels", b"int x;")
        assert bk._so_path("kernels", b"int y;") != path
        monkeypatch.setattr(bk, "_CFLAGS", ("-O2", "-shared", "-fPIC"))
        assert bk._so_path("kernels", b"int x;") != path


def test_start_up_imports_no_numpy_and_builds_no_kernel(tmp_path):
    """Importing the program's entry points, resolving the default
    engine and validating a sweep spec load neither numpy nor the batch
    engine, and compile no kernel: both wait for the first batch cell."""
    code = (
        "import sys\n"
        "import repro.experiments.sweep, repro.experiments.runner\n"
        "import repro.experiments.report, repro.cpu.pipeline\n"
        "import repro.serve.server, repro.dispatch.worker\n"
        "from repro.cpu.engines import resolve_engine\n"
        "from repro.experiments.sweep import SweepSpec\n"
        "assert resolve_engine(None) == 'batch'\n"
        "SweepSpec(apps=('Angrybirds', 'Browser'),\n"
        "          schemes=('baseline',)).validate()\n"
        "print(sorted(m for m in ('numpy', 'repro.cpu.batch',\n"
        "                         'repro.cpu._batchkernel')\n"
        "             if m in sys.modules))\n"
    )
    kernel_dir = tmp_path / "kernel"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, REPRO_BATCH_KERNEL_DIR=str(kernel_dir),
                 PYTHONPATH=os.pathsep.join(p for p in sys.path if p)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["[]"]
    assert not kernel_dir.exists()
