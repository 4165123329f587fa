"""One bit-identity matrix: a grid's ``SimStats`` do not depend on the
path that computed them.

The reproduced result is a cycle-count delta between schemes on one
trace, so it means something only if every way of computing a cell
agrees.  Each leg below runs the same small grid (Music at walk 60,
``baseline`` and ``critic`` on ``google-tablet`` and ``CritLoadPrefetch``,
so every batch leg runs kernel cells *and* one load-observing fallback)
down one path, and compares every cell with a reference computed by the
inline engine on the inline executor with the cache off.

The axes are engine x executor x cache state x front (direct
``run_sweep`` or a served sweep).  ``LEGS`` is a pairwise-covering
table: every pair of values of any two axes appears in at least one leg
(``test_legs_cover_every_pair_of_axis_values`` checks this).  Each leg
also checks that its manifest names the path it took.

The degraded rows (no C compiler, corrupt artifact, killed worker, busy
server) each run the grid down one degraded path and
check the same reference plus the manifest's record of the degradation.

Engine and executor are deliberately kept out of cache keys, so a leg
that shared a cache directory or the in-process memo with an earlier leg
would read that leg's stats back and check nothing: every test gets its
own ``REPRO_CACHE_DIR``, an empty memo and a fresh metrics registry.
"""

import itertools
from contextlib import contextmanager

import pytest

from repro import telemetry
from repro.cache import SCHEMA_VERSION, artifact_key, get_cache, reset_cache
from repro.cpu import _batchkernel as bk
from repro.dispatch import FaultPlan
from repro.experiments import runner
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.registry import HARDWARE_CONFIGS
from repro.serve.client import ServeClient
from repro.telemetry.manifest import LAST_RUN, load_manifest, manifest_dir
from tests.test_serve import FAST, _ServerThread

APP = "Music"
WALK = 60
SCHEMES = ("baseline", "critic")
CONFIGS = ("google-tablet", "CritLoadPrefetch")
CELLS = len(SCHEMES) * len(CONFIGS)

AXES = {
    "engine": ("inline", "batch"),
    "executor": ("inline", "fleet"),
    "cache": ("cold", "warm"),
    "front": ("direct", "served"),
}

#: (engine, executor, cache, front): the first two legs differ on every
#: axis, and the other four mix the axes so that every pair of values
#: meets.
LEGS = (
    ("inline", "inline", "cold", "direct"),
    ("batch", "fleet", "warm", "served"),
    ("inline", "inline", "warm", "served"),
    ("batch", "fleet", "cold", "direct"),
    ("inline", "fleet", "cold", "served"),
    ("batch", "inline", "warm", "direct"),
)


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_DISPATCH_FAULTS", raising=False)
    reset_cache()
    runner.clear_cache()
    telemetry.reset()
    yield
    runner.clear_cache()
    reset_cache()


@pytest.fixture(scope="module")
def reference():
    """``{(scheme, config): to_dict()}`` from the inline engine on the
    inline executor, with the artifact cache off."""
    with pytest.MonkeyPatch.context() as env:
        env.setenv("REPRO_CACHE", "0")
        reset_cache()
        runner.clear_cache()
        ctx = runner.app_context(APP, WALK)
        cells = {
            (scheme, config): ctx.stats(
                scheme, HARDWARE_CONFIGS.create(config),
                engine="inline").to_dict()
            for scheme in SCHEMES for config in CONFIGS
        }
    reset_cache()
    runner.clear_cache()
    return cells


@pytest.fixture(scope="module")
def config_hashes():
    """Every leg's manifest ``config_hash``: the legs must all agree."""
    return set()


def _last_manifest():
    return load_manifest(str(manifest_dir() / LAST_RUN))


def _counter(manifest, name, **labels):
    """One counter sample from a manifest's metrics snapshot (0 if
    absent)."""
    family = manifest["metrics"].get(name, {"samples": []})
    return sum(value for key, value in family["samples"]
               if dict(map(tuple, key)) == labels)


def _sweep_direct(engine="inline", executor="inline"):
    """``(cells, manifest, None)`` of one direct ``run_sweep``."""
    result = run_sweep(SweepSpec(
        apps=(APP,), schemes=SCHEMES, configs=CONFIGS, walk_blocks=WALK,
        jobs=2 if executor == "fleet" else 1, executor=executor,
        engine=engine,
    ))
    cells = {(scheme, config): result.cell(APP, scheme, config).to_dict()
             for scheme in SCHEMES for config in CONFIGS}
    return cells, _last_manifest(), None


def _sweep_served(address, engine):
    """``(cells, manifest, done record)`` of one served sweep."""
    spec = {"apps": [APP], "schemes": list(SCHEMES),
            "configs": list(CONFIGS), "walk_blocks": WALK,
            "engine": engine}
    with ServeClient(address, timeout_s=120) as client:
        records = list(client.sweep(spec))
    cells = {(r["scheme"], r["config"]): r["stats"]
             for r in records if r["type"] == "cell"}
    return cells, _last_manifest(), records[-1]


@contextmanager
def _front(front, engine, executor):
    """A zero-argument callable running the leg's grid once."""
    if front == "direct":
        yield lambda: _sweep_direct(engine, executor)
        return
    server = _ServerThread(
        executor=executor, workers=2 if executor == "fleet" else None,
        wire_port=0, http_port=0, policy=FAST)
    try:
        yield lambda: _sweep_served(server.wire, engine)
    finally:
        server.stop()


def test_legs_cover_every_pair_of_axis_values():
    assert len(LEGS) <= 8
    names = list(AXES)
    for leg in LEGS:
        for name, value in zip(names, leg):
            assert value in AXES[name], (leg, name)
    for (i, a), (j, b) in itertools.combinations(enumerate(names), 2):
        seen = {(leg[i], leg[j]) for leg in LEGS}
        missing = set(itertools.product(AXES[a], AXES[b])) - seen
        assert not missing, (a, b, missing)


@pytest.mark.parametrize("engine,executor,cache,front", LEGS,
                         ids=["-".join(leg) for leg in LEGS])
def test_leg_matches_the_reference(engine, executor, cache, front,
                                   reference, config_hashes):
    with _front(front, engine, executor) as run:
        cells, manifest, done = run()
        if cache == "warm":
            assert cells == reference, "the pass that fills the cache"
            runner.clear_cache()
            reset_cache()
            cells, manifest, done = run()
    assert cells == reference
    assert manifest["engine"] == f"{engine}@1"
    config_hashes.add(manifest["config_hash"])
    assert len(config_hashes) == 1, config_hashes
    if front == "served":
        assert manifest["serve"]["executor"] == executor
        source = "computed" if cache == "cold" else "cached"
        assert done[source] == CELLS, done
        assert done["failed"] == 0
    elif cache == "cold":
        assert manifest["dispatch"]["executor"] == f"{executor}@1"
        assert ("batch" in manifest) == (engine == "batch")
    else:
        assert "dispatch" not in manifest and "batch" not in manifest
        assert manifest["cache"]["misses"] == 0


# -- degraded rows ------------------------------------------------------------


def test_no_c_compiler_runs_every_cell_inline(reference, tmp_path,
                                              monkeypatch):
    monkeypatch.setenv("CC", "false")
    monkeypatch.setenv("REPRO_BATCH_KERNEL_DIR", str(tmp_path / "kernel"))
    monkeypatch.setattr(bk, "_ckernel", False)
    cells, manifest, _ = _sweep_direct(engine="batch")
    assert cells == reference
    assert manifest["engine"] == "batch@1"
    assert manifest["batch"]["fallbacks_by_reason"] == {"no C kernel": CELLS}
    assert manifest["batch"]["cells_by_path"] == {"fallback": CELLS}


def test_corrupt_artifacts_are_recomputed(reference):
    _sweep_direct()
    ctx = runner.app_context(APP, WALK)
    store = get_cache()
    stats_blob = store.path_for("stats", ctx._stats_key(
        "baseline", HARDWARE_CONFIGS.create(CONFIGS[0]), 5, 1.0))
    trace_blob = store.path_for("trace", artifact_key(
        "trace", profile=ctx.app_profile, scheme="baseline"))
    for blob in (stats_blob, trace_blob):
        assert blob.exists(), blob
        blob.write_text("not an artifact\n")
    runner.clear_cache()
    reset_cache()
    telemetry.reset()
    cells, manifest, _ = _sweep_direct()
    assert cells == reference
    assert _counter(manifest, "repro_cache_corrupt_total", kind="stats") >= 1
    assert _counter(manifest, "repro_cache_corrupt_total", kind="trace") >= 1


def test_killed_worker_is_retried(reference, monkeypatch):
    faults = "kill:0.5;seed=11"
    # The seeded plan kills the first attempt of one cell on every run.
    plan = FaultPlan.parse(faults)
    assert any(plan.draw(f"{APP}|{config}", 1) == "kill"
               for config in CONFIGS)
    monkeypatch.setenv("REPRO_DISPATCH_FAULTS", faults)
    cells, manifest, _ = _sweep_direct(executor="fleet")
    assert cells == reference
    dispatch = manifest["dispatch"]
    assert dispatch["executor"] == "fleet@1"
    assert dispatch["faults"] == faults
    assert dispatch["retries"] >= 1
    outcomes = {attempt["outcome"]
                for attempts in dispatch["task_attempts"].values()
                for attempt in attempts}
    assert outcomes & {"worker-died", "no-heartbeat", "lost"}, outcomes


def test_busy_server_turns_the_job_away():
    server = _ServerThread(executor="inline", wire_port=0, http_port=0,
                           max_pending=0)
    try:
        with ServeClient(server.wire) as client:
            client._send({"type": "sweep", "id": "busy",
                          "spec": {"apps": [APP], "walk_blocks": WALK}})
            record = client._recv()
    finally:
        server.stop()
    assert record["type"] == "busy"
    assert record["max_pending"] == 0
    assert "max" in record["error"]
    stats_dir = get_cache().root / f"v{SCHEMA_VERSION}" / "stats"
    assert not stats_dir.exists() or not any(stats_dir.rglob("*.json"))
