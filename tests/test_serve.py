"""The serve stack: persistent fleet, job engine, wire + HTTP fronts,
sync client, and the load-generator harness.

Server tests run the ``inline`` executor lane (no worker subprocesses)
inside a background thread's event loop; ``TestPersistentFleet``
exercises the persistent fleet with real worker processes.  Everything
routes through a throwaway cache so warm/cold behaviour is
deterministic.  That served stats equal direct ones, on either executor
and engine, is checked by ``tests/test_identity_matrix.py``.
"""

import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.cache import reset_cache
from repro.dispatch import RetryPolicy, TaskSpec
from repro.dispatch.fleet import PersistentFleet
from repro.experiments.runner import AppContext, clear_cache
from repro.loadgen import (
    ClosedLoopEngine,
    OpenLoopEngine,
    SweepGridWorkload,
    parse_mix,
    percentile,
)
from repro.loadgen.base import _mix_pattern
from repro.serve import ServeServer
from repro.serve.client import ServeBusyError, ServeClient, ServeError

WALK = 60
FAST = RetryPolicy(timeout_s=60.0, max_attempts=3, backoff_base_s=0.01,
                   backoff_cap_s=0.05, heartbeat_s=0.1)


@pytest.fixture(autouse=True)
def _fresh_state(tmp_path, monkeypatch):
    import repro.telemetry as telemetry

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reset_cache()
    clear_cache()
    telemetry.reset()  # metrics are process-wide and cumulative
    yield
    clear_cache()
    reset_cache()


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
            except Exception as exc:  # surface in the test thread
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

    @property
    def http(self) -> str:
        return f"http://127.0.0.1:{self.server.http_port}"

    def stop(self) -> None:
        if self.loop is None or self.server is None \
                or self.loop.is_closed():
            return
        future = self._asyncio.run_coroutine_threadsafe(
            self.server.stop(grace_s=10.0), self.loop)
        future.result(timeout=60)
        self.thread.join(timeout=30)


@pytest.fixture
def server():
    srv = _ServerThread(executor="inline", wire_port=0, http_port=0)
    yield srv
    srv.stop()


SPEC = {"apps": ["Music"], "schemes": ["baseline", "critic"],
        "walk_blocks": WALK}


class TestWireFront:
    def test_hello_ping_health(self, server):
        with ServeClient(server.wire) as client:
            welcome = client.hello()
            assert welcome["type"] == "welcome"
            assert welcome["protocol"] == 3
            assert client.ping()
            health = client.health()
            assert health["ok"] and health["status"] == "serving"

    def test_sweep_streams_cells_then_done(self, server):
        with ServeClient(server.wire) as client:
            records = list(client.sweep(SPEC, job_id="t1"))
        kinds = [r["type"] for r in records]
        assert kinds[0] == "accepted" and kinds[-1] == "done"
        assert kinds.count("cell") == 2
        done = records[-1]
        assert done["cells"] == 2 and done["failed"] == 0
        for record in records:
            json.dumps(record)  # every record is JSON-safe

    def test_second_pass_is_fully_cached(self, server):
        with ServeClient(server.wire) as client:
            list(client.sweep(SPEC, job_id="cold"))
            done = list(client.sweep(SPEC, job_id="warm"))[-1]
        assert done["cached"] == done["cells"] == 2
        assert done["computed"] == 0

    def test_bad_spec_rejected_with_did_you_mean(self, server):
        with ServeClient(server.wire) as client:
            with pytest.raises(ServeError, match="did you mean"):
                list(client.sweep({"apps": ["Music"],
                                   "schemes": ["crtic"]}))
            # connection still usable after a rejection
            assert client.ping()

    def test_unknown_app_rejected(self, server):
        with ServeClient(server.wire) as client:
            with pytest.raises(ServeError, match="unknown workload"):
                list(client.sweep({"apps": ["NotAnApp"]}))

    def test_unknown_spec_field_rejected(self, server):
        with ServeClient(server.wire) as client:
            with pytest.raises(ServeError, match="walk_block"):
                list(client.sweep({"apps": ["Music"],
                                   "walk_block": WALK}))

    def test_unknown_message_type_is_answered_not_fatal(self, server):
        from repro.dispatch import wire

        with ServeClient(server.wire) as client:
            client._send({"type": "frobnicate"})
            reply = client._recv()
            assert reply["type"] == "error"
            assert "frobnicate" in reply["error"]
            assert client.ping()

    @pytest.mark.parametrize("kind", ["cache.get", "join"])
    def test_removed_message_types_get_the_generic_error(self, server,
                                                         kind):
        with ServeClient(server.wire) as client:
            client._send({"type": kind, "kind": "stats", "key": "0" * 64,
                          "worker": "w", "token": ""})
            reply = client._recv()
            assert reply["type"] == "error"
            assert reply["error"] == f"unknown message type {kind!r}"
            assert client.ping()


class TestHttpFront:
    def _get(self, url: str):
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, resp.read().decode()

    def test_healthz(self, server):
        status, body = self._get(server.http + "/healthz")
        health = json.loads(body)
        assert status == 200 and health["ok"]
        assert health["executor"] == "inline"

    def test_healthz_enumerates_every_registry(self, server):
        _status, body = self._get(server.http + "/healthz")
        registries = json.loads(body)["registries"]
        assert len(registries) == 7
        assert "critic@1" in registries["schemes"]
        assert "google-tablet@1" in registries["hardware_configs"]

    def test_metrics_exposition(self, server):
        with ServeClient(server.wire) as client:
            list(client.sweep(SPEC, job_id="m1"))
        status, body = self._get(server.http + "/metrics")
        assert status == 200
        assert "# TYPE repro_serve_jobs_total counter" in body
        assert 'repro_serve_cells_total{source="computed"} 2' in body

    def test_sweep_streams_ndjson(self, server):
        request = urllib.request.Request(
            server.http + "/sweep",
            data=json.dumps({"id": "h1", **SPEC}).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=120) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"] == \
                "application/x-ndjson"
            records = [json.loads(line) for line in resp]
        assert [r["type"] for r in records] == \
            ["accepted", "cell", "cell", "done"]
        assert records[-1]["id"] == "h1"

    def test_unknown_route_404s_with_route_list(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            self._get(server.http + "/nope")
        assert info.value.code == 404
        assert "/sweep" in info.value.read().decode()

    def test_non_json_body_400s(self, server):
        request = urllib.request.Request(server.http + "/sweep",
                                         data=b"not json")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400


class TestBackpressure:
    """``--max-pending`` admission control on both fronts."""

    @pytest.fixture
    def busy_server(self):
        # max_pending=0: the pending-job table is always "full", so
        # every submission gets the structured busy reply — the most
        # deterministic way to exercise the backpressure path.
        srv = _ServerThread(executor="inline", wire_port=0, http_port=0,
                            max_pending=0)
        yield srv
        srv.stop()

    def test_wire_front_answers_structured_busy(self, busy_server):
        with ServeClient(busy_server.wire) as client:
            with pytest.raises(ServeBusyError):
                list(client.sweep(SPEC, job_id="nope"))
            # inspect the raw record shape on a second attempt
            client._send({"type": "sweep", "id": "raw", "spec": SPEC})
            record = client._recv()
            assert record["type"] == "busy"
            assert record["id"] == "raw"
            assert record["max_pending"] == 0
            assert "error" in record and "active" in record
            # connection still usable after backpressure
            assert client.ping()

    def test_http_front_answers_503_with_retry_after(self, busy_server):
        request = urllib.request.Request(
            busy_server.http + "/sweep",
            data=json.dumps({"id": "h503", **SPEC}).encode(),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 503
        assert info.value.headers["Retry-After"] == "1"
        body = json.loads(info.value.read().decode())
        assert body["busy"] is True and body["ok"] is False

    def test_healthz_reports_max_pending(self, busy_server):
        with urllib.request.urlopen(busy_server.http + "/healthz",
                                    timeout=30) as resp:
            health = json.loads(resp.read().decode())
        assert health["jobs"]["max_pending"] == 0


class TestCoalescing:
    """Concurrent cold requests for the same cell share one compute."""

    def test_concurrent_cold_full_sweeps_compute_grid_once(self,
                                                           server):
        dones = []
        errors = []

        def submit(job_id):
            try:
                with ServeClient(server.wire, timeout_s=120) as client:
                    dones.append(
                        list(client.sweep(SPEC, job_id=job_id))[-1])
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=submit, args=(f"co{n}",))
                   for n in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert len(dones) == 2
        total = {key: sum(d[key] for d in dones)
                 for key in ("cells", "cached", "computed",
                             "coalesced", "failed")}
        # The 2-cell grid computes exactly once across both jobs; the
        # duplicate cells ride along as coalesced or (if the first job
        # finished a cell before the second looked) cached.
        assert total["failed"] == 0
        assert total["cells"] == 4
        assert total["computed"] == 2
        assert total["cached"] + total["coalesced"] == 2

    def test_cell_finished_after_the_probe_is_not_recomputed(
            self, server, monkeypatch):
        """A job's probe runs off the event loop: another job can finish
        the cell (and retire its in-flight future) after the probe missed
        but before this job claims the cell.  The cell is then in the
        memo and must be served from it, not computed again."""
        spec = dict(SPEC, schemes=["critic"])
        with ServeClient(server.wire) as client:
            list(client.sweep(spec, job_id="first"))
            real = AppContext.cached_stats
            # The second job's probe answers as it would have before the
            # first job finished: a miss.
            stale = [None]

            def probe(ctx, *args, **kwargs):
                return stale.pop() if stale else real(ctx, *args, **kwargs)

            monkeypatch.setattr(AppContext, "cached_stats", probe)
            done = list(client.sweep(spec, job_id="second"))[-1]
        assert done["computed"] == 0
        assert done["cached"] == done["cells"] == 1

    def test_done_record_carries_coalesced_field(self, server):
        with ServeClient(server.wire) as client:
            done = list(client.sweep(SPEC, job_id="solo"))[-1]
        assert done["coalesced"] == 0
        assert done["computed"] == 2


class TestGridPlan:
    """Served jobs plan, group and run cells with the runner's code."""

    def test_served_batch_sweep_groups_like_a_direct_one(
            self, server, tmp_path, monkeypatch):
        import repro.telemetry as telemetry
        from repro.experiments.sweep import SweepSpec, run_sweep

        spec = {"apps": ["Music"], "schemes": ["baseline"],
                "configs": ["google-tablet", "2xFD", "4xI$", "EFetch"],
                "walk_blocks": WALK, "engine": "batch"}

        def groups():
            return sum(telemetry.metrics.REGISTRY.counters_flat(
                "repro_batch_groups_total").values())

        with ServeClient(server.wire) as client:
            done = list(client.sweep(spec))[-1]
        assert done["computed"] == 4
        served = groups()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "direct"))
        reset_cache()
        clear_cache()
        telemetry.reset()
        run_sweep(SweepSpec.from_dict(dict(spec, jobs=1)))
        assert served == groups() == 1

    def test_served_manifest_names_its_own_batch_path(self, server):
        """A served job's manifest carries the ``batch`` block of the
        groups it ran itself (here the default engine's one kernel
        group, with one load-observing fallback) and the ``dispatch``
        block of its tasks; a later job served from the cache ran
        neither."""
        from repro.telemetry.manifest import (
            LAST_RUN,
            load_manifest,
            manifest_dir,
        )

        spec = {"apps": ["Music"], "schemes": ["baseline"],
                "configs": ["google-tablet", "CritLoadPrefetch"],
                "walk_blocks": WALK}
        with ServeClient(server.wire) as client:
            done = list(client.sweep(spec))[-1]
            assert done["computed"] == 2
            manifest = load_manifest(str(manifest_dir() / LAST_RUN))
            assert manifest["kind"] == "serve"
            assert manifest["engine"] == "batch@1"
            assert manifest["batch"]["groups_by_kernel"] == {"c": 1}
            assert manifest["batch"]["fallbacks_by_reason"] == \
                {"load-observing prefetcher": 1}
            assert manifest["batch"]["cells_by_path"] == \
                {"fallback": 1, "fast": 1}
            assert manifest["dispatch"]["executor"] == "inline@1"
            assert manifest["dispatch"]["tasks"] == 1

            assert list(client.sweep(spec))[-1]["cached"] == 2
        again = load_manifest(str(manifest_dir() / LAST_RUN))
        assert "batch" not in again and "dispatch" not in again

    @pytest.mark.parametrize("engine", ["inline", "batch"])
    def test_served_deadlock_fails_its_group_and_names_it(
            self, server, monkeypatch, engine):
        from repro.cpu.pipeline import PipelineDeadlockError

        def stuck(ctx, *args, **kwargs):
            raise PipelineDeadlockError("stuck at cycle 7")

        monkeypatch.setattr(AppContext, "scheme_trace", stuck)
        spec = dict(SPEC, schemes=["baseline"],
                    configs=["google-tablet", "2xFD"], engine=engine)
        with ServeClient(server.wire) as client:
            records = list(client.sweep(spec))
        job = records[0]["job"]
        cells = [r for r in records if r["type"] == "cell"]
        assert len(cells) == records[-1]["failed"] == 2
        for cell in cells:
            group = "Music|baseline|batch" if engine == "batch" \
                else f"Music|{cell['config']}"
            assert "CellDeadlockError" in cell["error"]
            assert f"'{job}|{group}'" in cell["error"]


class TestDrain:
    def test_shutdown_message_drains_and_rejects_new_jobs(self):
        srv = _ServerThread(executor="inline", wire_port=0, http_port=0)
        try:
            with ServeClient(srv.wire) as client:
                client.shutdown_server()
            srv.thread.join(timeout=30)
            assert not srv.thread.is_alive()
        finally:
            srv.stop()


# -- module-level task body (pickled by reference into fleet workers) --------


def _triple(x):
    return 3 * x


class TestPersistentFleet:
    def test_workers_survive_across_submissions(self):
        fleet = PersistentFleet(jobs=2, policy=FAST)
        try:
            import time

            def drain(count):
                out = []
                deadline = time.monotonic() + 60
                while len(out) < count:
                    assert time.monotonic() < deadline, "fleet stalled"
                    out.extend(fleet.poll())
                    time.sleep(0.02)
                return out

            for task_id in ("a1", "a2", "a3"):
                fleet.submit(TaskSpec(id=task_id, fn=_triple,
                                      args=(int(task_id[1]),)))
            first = drain(3)
            assert {r.task_id: r.value for r in first} == \
                {"a1": 3, "a2": 6, "a3": 9}
            spawned_after_first = fleet.workers_spawned()
            # Second wave on the same fleet: no new workers spawned.
            fleet.submit(TaskSpec(id="b1", fn=_triple, args=(10,)))
            second = drain(1)
            assert second[0].value == 30
            assert fleet.workers_spawned() == spawned_after_first
            assert fleet.workers_alive() == 2
        finally:
            fleet.shutdown(grace_s=15.0)
        assert fleet.workers_alive() == 0

    def test_submit_after_shutdown_raises(self):
        fleet = PersistentFleet(jobs=1, policy=FAST)
        fleet.shutdown(grace_s=15.0)
        with pytest.raises(RuntimeError):
            fleet.submit(TaskSpec(id="late", fn=_triple, args=(1,)))


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [0, -1])
    def test_server_without_workers_is_rejected(self, workers):
        with pytest.raises(ValueError, match="at least 1 worker"):
            ServeServer(executor="fleet", workers=workers)

    def test_cli_workers_zero_is_a_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve", "--workers", "0",
             "--wire-port", "0", "--http-port", "0"],
            env=dict(os.environ,
                     PYTHONPATH=os.pathsep.join(p for p in sys.path if p)),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "--workers" in proc.stderr
        assert "at least 1" in proc.stderr


class TestLoadgenPieces:
    def test_parse_mix(self):
        assert parse_mix("cell=8,full=2") == {"cell": 8, "full": 2}
        assert parse_mix("cell") == {"cell": 1}
        with pytest.raises(ValueError, match="unknown request shape"):
            parse_mix("row=1")
        with pytest.raises(ValueError, match="integer"):
            parse_mix("cell=lots")

    def test_mix_pattern_interleaves_deterministically(self):
        pattern = _mix_pattern({"cell": 3, "full": 1})
        assert sorted(pattern) == ["cell", "cell", "cell", "full"]
        assert _mix_pattern({"cell": 3, "full": 1}) == pattern

    def test_percentile_nearest_rank(self):
        values = [float(n) for n in range(101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 1.0) == 100.0
        assert percentile([], 0.5) == 0.0

    def test_grid_workload_round_robins_cells(self):
        workload = SweepGridWorkload(
            spec={"apps": ["Music", "Email"], "schemes": ["baseline"]},
            mix={"cell": 1})
        stream = workload.reqs()
        reqs = [next(stream) for _ in range(4)]
        assert [r.spec["apps"] for r in reqs] == \
            [["Music"], ["Email"], ["Music"], ["Email"]]
        assert all(r.shape == "cell" for r in reqs)
        assert workload.grid_cells() == 2

    def test_grid_workload_full_shape_keeps_whole_grid(self):
        workload = SweepGridWorkload(
            spec={"apps": ["Music", "Email"]}, mix={"full": 1})
        req = next(workload.reqs())
        assert req.spec["apps"] == ["Music", "Email"]

    def test_empty_apps_rejected(self):
        with pytest.raises(ValueError, match="apps"):
            SweepGridWorkload(spec={"apps": []})

    def test_grid_workload_passes_engine_through_every_shape(self):
        workload = SweepGridWorkload(
            spec={"apps": ["Music", "Email"], "engine": "inline"},
            mix={"cell": 1, "app": 1, "full": 1})
        stream = workload.reqs()
        reqs = [next(stream) for _ in range(6)]
        assert {r.shape for r in reqs} == {"cell", "app", "full"}
        for req in reqs:
            assert req.spec["engine"] == "inline"


class TestLoadgenEndToEnd:
    def test_closed_loop_report_shape_and_warm_pass(self, server):
        workload = SweepGridWorkload(spec=SPEC, mix={"cell": 1})
        engine = ClosedLoopEngine(concurrency=2, timeout_s=120)
        cold = engine.run(server.wire, workload, requests=4)
        assert cold["requests"]["failed"] == 0
        # In-flight coalescing: concurrent requests for the same
        # not-yet-cached cell share one computation, so exactly the
        # grid computes and every duplicate is cached or coalesced.
        assert cold["cells"]["computed"] == 2
        assert cold["cells"]["computed"] + cold["cells"]["cached"] \
            + cold["cells"]["coalesced"] == cold["cells"]["served"]
        warm = engine.run(server.wire, workload, requests=4)
        assert warm["cells"]["computed"] == 0
        assert warm["cells"]["cached"] == warm["cells"]["served"] == 4
        lat = warm["latency_s"]
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]

    def test_open_loop_charges_schedule_delay(self, server):
        workload = SweepGridWorkload(spec=SPEC, mix={"cell": 1})
        # Prime the cache so open-loop requests are all warm and fast.
        ClosedLoopEngine(concurrency=1, timeout_s=120).run(
            server.wire, workload, requests=2)
        engine = OpenLoopEngine(rate_hz=50.0, concurrency=2,
                                timeout_s=120)
        report = engine.run(server.wire, workload, requests=10)
        assert report["requests"]["ok"] == 10
        assert report["offered"]["rate_hz"] == 50.0
        # 10 requests at 50 Hz: the run spans at least the schedule.
        assert report["wall_s"] >= 9 / 50.0
