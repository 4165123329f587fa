"""Multi-host fleet + shared cache: external TCP workers joining a
broker, the serve front's worker-discovery and cache endpoints, and a
second "host" (a subprocess with its own cache root) answering a whole
sweep from the first host's warm tier.

Everything runs over 127.0.0.1, but through the exact code paths a real
second machine would use: ``python -m repro.dispatch.worker --connect``
subprocesses, the ``join`` discovery message, and the
``remote:HOST:PORT`` cache backend against a live serve wire front.
"""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.cache import SCHEMA_VERSION, reset_cache
from repro.dispatch import RetryPolicy, TaskSpec
from repro.dispatch.fleet import PersistentFleet, parse_bind
from repro.experiments.runner import app_context, clear_cache
from repro.registry import HARDWARE_CONFIGS
from repro.serve import ServeServer
from repro.serve.client import ServeClient, ServeError

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
WALK = 60
FAST = RetryPolicy(timeout_s=60.0, max_attempts=3, backoff_base_s=0.01,
                   backoff_cap_s=0.05, heartbeat_s=0.1)
SPEC = {"apps": ["Music"], "schemes": ["baseline", "critic"],
        "walk_blocks": WALK}


@pytest.fixture(autouse=True)
def _fresh_state(tmp_path, monkeypatch):
    import repro.telemetry as telemetry

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_FLEET_TOKEN", raising=False)
    monkeypatch.delenv("REPRO_FLEET_BIND", raising=False)
    reset_cache()
    clear_cache()
    telemetry.reset()
    yield
    clear_cache()
    reset_cache()


def _spawn_worker(*argv):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.dispatch.worker", *argv],
        env=dict(os.environ, PYTHONPATH=SRC), cwd=REPO,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


# -- module-level task body (pickled by reference into workers) --------------


def _double(x):
    return 2 * x


class TestParseBind:
    def test_shapes(self):
        assert parse_bind("") == ("127.0.0.1", 0)
        assert parse_bind("0.0.0.0") == ("0.0.0.0", 0)
        assert parse_bind("10.1.2.3:7019") == ("10.1.2.3", 7019)
        with pytest.raises(ValueError):
            parse_bind("host:notaport")


class TestExternalWorkers:
    def test_external_worker_joins_and_computes(self):
        fleet = PersistentFleet(jobs=0, policy=FAST,
                                bind="127.0.0.1:0", token="hunter2")
        proc = None
        try:
            host, port = fleet.broker.address
            proc = _spawn_worker("--connect", f"{host}:{port}",
                                 "--worker", "ext-1",
                                 "--token", "hunter2")
            for task_id in ("x1", "x2", "x3"):
                fleet.submit(TaskSpec(id=task_id, fn=_double,
                                      args=(int(task_id[1]),)))
            results = []
            deadline = time.monotonic() + 60
            while len(results) < 3:
                assert time.monotonic() < deadline, "external stalled"
                results.extend(fleet.poll())
                time.sleep(0.02)
            assert {r.task_id: r.value for r in results} == \
                {"x1": 2, "x2": 4, "x3": 6}
            # the external worker is counted, but was never spawned
            assert fleet.workers_external() == 1
            assert fleet.workers_spawned() == 0
        finally:
            fleet.shutdown(grace_s=15.0)
            if proc is not None:
                assert proc.wait(timeout=30) == 0
        assert fleet.workers_external() == 0

    def test_wrong_token_is_denied(self):
        fleet = PersistentFleet(jobs=0, policy=FAST,
                                bind="127.0.0.1:0", token="hunter2")
        try:
            host, port = fleet.broker.address
            proc = _spawn_worker("--connect", f"{host}:{port}",
                                 "--worker", "mallory",
                                 "--token", "wrong")
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 1
            assert "denied" in err
            assert fleet.workers_external() == 0
        finally:
            fleet.shutdown(grace_s=15.0)

    def test_jobs_zero_means_external_only(self):
        fleet = PersistentFleet(jobs=0, policy=FAST, bind="127.0.0.1:0")
        try:
            assert fleet.jobs == 0
            assert fleet.workers_alive() == 0
            assert fleet.workers_spawned() == 0
        finally:
            fleet.shutdown(grace_s=15.0)


class _ServerThread:
    """Run a ServeServer on its own event loop in a daemon thread."""

    def __init__(self, **kwargs) -> None:
        import asyncio

        self._asyncio = asyncio
        self.kwargs = kwargs
        self.server = None
        self.loop = None
        self.error = None
        self.ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self.ready.wait(timeout=60), self.error
        assert self.error is None, self.error

    def _run(self) -> None:
        asyncio = self._asyncio

        async def main():
            try:
                self.server = ServeServer(**self.kwargs)
                await self.server.start()
                self.loop = asyncio.get_running_loop()
            except Exception as exc:
                self.error = exc
                raise
            finally:
                self.ready.set()
            await self.server.serve_forever()

        try:
            asyncio.run(main())
        except Exception:
            pass

    @property
    def wire(self):
        return ("127.0.0.1", self.server.wire_port)

    def stop(self) -> None:
        if self.loop is None or self.server is None \
                or self.loop.is_closed():
            return
        future = self._asyncio.run_coroutine_threadsafe(
            self.server.stop(grace_s=10.0), self.loop)
        future.result(timeout=60)
        self.thread.join(timeout=30)


@pytest.fixture
def inline_server():
    srv = _ServerThread(executor="inline", wire_port=0, http_port=0)
    yield srv
    srv.stop()


def _stats_key(scheme):
    ctx = app_context("Music", WALK)
    config = HARDWARE_CONFIGS.create("google-tablet")
    return ctx._stats_key(scheme, config, 5, 1.0)


class TestServeCacheEndpoint:
    def test_cache_get_round_trip(self, inline_server):
        with ServeClient(inline_server.wire) as client:
            key = _stats_key("baseline")
            cold = client.cache_get("stats", key)
            assert cold["type"] == "cache.blob" and not cold["hit"]
            list(client.sweep(SPEC, job_id="warmup"))
            warm = client.cache_get("stats", key)
            assert warm["hit"]
            stats = json.loads(warm["text"])
            ctx = app_context("Music", WALK)
            assert stats == ctx.stats("baseline").to_dict()

    def test_cache_get_requires_matching_token(self):
        srv = _ServerThread(executor="inline", wire_port=0, http_port=0,
                            token="s3cret")
        try:
            with ServeClient(srv.wire) as client:
                with pytest.raises(ServeError, match="token"):
                    client.cache_get("stats", "0" * 64)
                reply = client.cache_get("stats", "0" * 64,
                                         token="s3cret")
                assert reply["type"] == "cache.blob"
        finally:
            srv.stop()

    def test_join_on_inline_server_is_an_error(self, inline_server):
        with ServeClient(inline_server.wire) as client:
            with pytest.raises(ServeError, match="inline"):
                client.fleet_info()


class TestServeWithExternalWorker:
    def test_discovered_worker_computes_sweep(self):
        """The full multi-host loop: a serve front with *zero* local
        workers, one external worker wired up via ``--discover``, and a
        sweep whose every cold cell executes on that worker."""
        srv = _ServerThread(executor="fleet", workers=0, wire_port=0,
                            http_port=0, fleet_bind="127.0.0.1:0",
                            token="tok", policy=FAST)
        proc = None
        try:
            host, port = srv.wire
            proc = _spawn_worker("--discover", f"{host}:{port}",
                                 "--worker", "ext-b", "--token", "tok")
            with ServeClient(srv.wire, timeout_s=120) as client:
                fleet = client.fleet_info(token="tok")
                assert fleet["type"] == "fleet"
                assert fleet["token_required"] is True
                done = list(client.sweep(SPEC, job_id="ext"))[-1]
            assert done["computed"] == 2 and done["failed"] == 0
            assert srv.server.fleet.workers_spawned() == 0
            # inline re-check: external results are bit-identical
            ctx = app_context("Music", WALK)
            ctx.stats("baseline"), ctx.stats("critic")
        finally:
            srv.stop()
            if proc is not None:
                assert proc.wait(timeout=30) == 0


_HOST_B = """
import json, os
from repro.cache import get_cache
from repro.experiments.runner import app_context
ctx = app_context("Music", %d)
stats = {scheme: ctx.stats(scheme).to_dict()
         for scheme in ("baseline", "critic")}
cache = get_cache()
print(json.dumps({"hits": cache.hits, "misses": cache.misses,
                  "backend": cache.backend_spec(), "stats": stats}))
""" % WALK


class TestSharedWarmTier:
    def test_fresh_host_sweep_served_entirely_from_remote(
            self, inline_server, tmp_path):
        # Host A computes the grid cold.
        with ServeClient(inline_server.wire, timeout_s=120) as client:
            done = list(client.sweep(SPEC, job_id="cold"))[-1]
        assert done["computed"] == 2 and done["failed"] == 0

        # Host B: a fresh cache root, remote read-through to host A.
        root_b = tmp_path / "host-b"
        host, port = inline_server.wire
        env = dict(os.environ, PYTHONPATH=SRC)
        env["REPRO_CACHE_DIR"] = str(root_b)
        env["REPRO_CACHE_BACKEND"] = f"remote:{host}:{port}"
        out = subprocess.run(
            [sys.executable, "-c", _HOST_B], env=env, cwd=REPO,
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)

        # Zero recomputed cells: every stats lookup hit the remote tier.
        assert report["hits"] == 2 and report["misses"] == 0
        assert report["backend"] == f"remote:{host}:{port}"
        # ...bit-identical to host A's own answers.
        ctx = app_context("Music", WALK)
        for scheme in ("baseline", "critic"):
            assert report["stats"][scheme] == \
                ctx.stats(scheme).to_dict()
        # ...and written back into host B's local tier.
        blobs = list((root_b / f"v{SCHEMA_VERSION}" / "stats")
                     .rglob("*.json"))
        assert len(blobs) == 2
