"""The pluggable cache-backend seam: spec parsing, the byte-identical
local tier, and the ``remote:`` read-through tier.

The remote tests run a minimal threaded wire-framed stub server (the
same ``cache.get``/``cache.blob`` vocabulary ``repro.serve`` speaks) so
every network edge — hit, miss, auth denial, unreachable host, corrupt
blob — is exercised without a real serve process.
"""

import json
import os
import socket
import subprocess
import sys
import threading

import pytest

import repro.telemetry as telemetry
from repro.cache import (
    SCHEMA_VERSION,
    ArtifactCache,
    LocalBackend,
    RemoteBackend,
    RemoteTier,
    backend_from_spec,
    parse_backend_spec,
    reset_cache,
)
from repro.dispatch import wire

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture(autouse=True)
def _fresh_state(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_CACHE_TOKEN", raising=False)
    monkeypatch.delenv("REPRO_FLEET_TOKEN", raising=False)
    reset_cache()
    telemetry.reset()
    yield
    reset_cache()


def _cache_counters():
    """The artifact cache's lookup and corruption counter samples."""
    registry = telemetry.metrics.REGISTRY
    return {**registry.counters_flat("repro_cache_requests_total"),
            **registry.counters_flat("repro_cache_corrupt_total")}


class TestSpecParsing:
    def test_empty_and_local_default(self):
        assert parse_backend_spec("") == {"mode": "local", "root": None}
        assert parse_backend_spec("local") == \
            {"mode": "local", "root": None}

    def test_local_with_root(self):
        parsed = parse_backend_spec("local:/other/root")
        assert parsed == {"mode": "local", "root": "/other/root"}

    def test_remote_with_options(self):
        parsed = parse_backend_spec("remote:cachehost:7017")
        assert parsed["mode"] == "remote"
        assert (parsed["host"], parsed["port"]) == ("cachehost", 7017)
        parsed = parse_backend_spec(
            "remote:10.0.0.5:7017?root=/r&token=s&timeout_s=2.5")
        assert parsed["mode"] == "remote"
        assert parsed["root"] == "/r" and parsed["token"] == "s"
        assert parsed["timeout_s"] == 2.5

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown cache backend"):
            parse_backend_spec("s3:bucket")

    def test_missing_host_port_rejected(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_backend_spec("remote:justahost")
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_backend_spec("remote::7017")

    def test_unknown_query_option_rejected(self):
        with pytest.raises(ValueError, match="unknown option"):
            parse_backend_spec("remote:h:7017?verbose=1")

    def test_backend_from_spec_shapes(self, tmp_path):
        local = backend_from_spec("", root=str(tmp_path))
        assert isinstance(local, LocalBackend)
        remote = backend_from_spec("remote:h:7017", root=str(tmp_path))
        assert isinstance(remote, RemoteBackend)
        assert remote.describe() == "remote:h:7017"

    def test_token_falls_back_to_fleet_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_TOKEN", "fleet-secret")
        backend = backend_from_spec("remote:h:7017", root=str(tmp_path))
        assert backend.tier.token == "fleet-secret"
        monkeypatch.setenv("REPRO_CACHE_TOKEN", "cache-secret")
        backend = backend_from_spec("remote:h:7017", root=str(tmp_path))
        assert backend.tier.token == "cache-secret"
        backend = backend_from_spec("remote:h:7017?token=spec-secret",
                                    root=str(tmp_path))
        assert backend.tier.token == "spec-secret"


class TestLocalBackend:
    def test_paths_byte_identical_to_schema_v3_layout(self, tmp_path):
        backend = LocalBackend(str(tmp_path))
        key = "ab" + "0" * 62
        assert backend.path_for("stats", key) == \
            tmp_path / f"v{SCHEMA_VERSION}" / "stats" / "ab" \
            / f"{key}.json"
        assert backend.path_for("trace", key).suffix == ".trace"
        cache = ArtifactCache(root=str(tmp_path), enabled=True)
        assert cache.path_for("stats", key) == \
            backend.path_for("stats", key)

    def test_roundtrip_and_list_skip_tmp_files(self, tmp_path):
        backend = LocalBackend(str(tmp_path))
        backend.put("stats", "aa" + "1" * 62, "{}")
        orphan = backend.path_for("stats", "aa" + "1" * 62).parent \
            / ".tmp-orphan.json"
        orphan.write_text("torn")
        assert backend.get("stats", "aa" + "1" * 62) == "{}"
        assert backend.list("stats") == ["aa" + "1" * 62]
        assert backend.delete("stats", "aa" + "1" * 62)
        assert not backend.delete("stats", "aa" + "1" * 62)


class _StubCacheServer:
    """Threaded wire-framed stand-in for a serve cache endpoint."""

    def __init__(self, blobs=None, token=""):
        self.blobs = dict(blobs or {})   # (kind, key) -> text
        self.token = token
        self.requests = []
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.address = self.sock.getsockname()[:2]
        self.thread = threading.Thread(target=self._accept, daemon=True)
        self.thread.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,),
                             daemon=True).start()

    def _serve(self, conn):
        try:
            while True:
                message = wire.recv_msg(conn)
                self.requests.append(message)
                if (message.get("token") or "") != self.token:
                    wire.send_msg(conn, {"type": "denied",
                                         "error": "bad token"})
                    continue
                text = self.blobs.get(
                    (message["kind"], message["key"]))
                wire.send_msg(conn, {
                    "type": "cache.blob", "kind": message["kind"],
                    "key": message["key"], "hit": text is not None,
                    "text": text,
                })
        except Exception:
            pass
        finally:
            conn.close()

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


@pytest.fixture
def stub():
    server = _StubCacheServer()
    yield server
    server.close()


KEY = "cd" + "2" * 62


class TestRemoteBackend:
    def test_read_through_writes_back_locally(self, tmp_path, stub):
        stub.blobs[("stats", KEY)] = '{"remote": true}'
        local = LocalBackend(str(tmp_path))
        backend = RemoteBackend(
            local, RemoteTier(*stub.address))
        try:
            assert backend.get("stats", KEY) == '{"remote": true}'
            # the blob landed in the local tier: next run answers from
            # disk even with the server gone
            assert local.get("stats", KEY) == '{"remote": true}'
        finally:
            backend.close()

    def test_remote_prefers_local_disk(self, tmp_path, stub):
        stub.blobs[("stats", KEY)] = '{"remote": true}'
        local = LocalBackend(str(tmp_path))
        local.put("stats", KEY, '{"local": true}')
        backend = RemoteBackend(local, RemoteTier(*stub.address))
        try:
            assert backend.get("stats", KEY) == '{"local": true}'
            assert stub.requests == []  # never touched the network
        finally:
            backend.close()

    def test_remote_miss_degrades_to_compute_and_local_put(
            self, tmp_path, stub):
        backend = RemoteBackend(
            LocalBackend(str(tmp_path)), RemoteTier(*stub.address))
        try:
            assert backend.get("stats", KEY) is None
            backend.put("stats", KEY, '{"computed": 1}')
            assert backend.local.get("stats", KEY) == '{"computed": 1}'
        finally:
            backend.close()

    def test_unreachable_server_degrades_cleanly(self, tmp_path):
        # grab a port nothing listens on
        probe = socket.create_server(("127.0.0.1", 0))
        host, port = probe.getsockname()[:2]
        probe.close()
        backend = RemoteBackend(
            LocalBackend(str(tmp_path)),
            RemoteTier(host, port, timeout_s=2.0, cooldown_s=60.0))
        cache = ArtifactCache(enabled=True, backend=backend)
        try:
            assert cache.load_stats(KEY) is None
            assert cache.misses == 1
            # the tier is benched: the next lookup must not retry the
            # network inside the cooldown window
            assert backend.tier._down_until > 0
            assert cache.load_stats(KEY) is None
            assert cache.misses == 2
        finally:
            cache.close()

    def test_bad_token_denied_degrades_to_miss(self, tmp_path):
        server = _StubCacheServer(
            blobs={("stats", KEY): "{}"}, token="s3cret")
        try:
            backend = RemoteBackend(
                LocalBackend(str(tmp_path)),
                RemoteTier(*server.address, token="wrong"))
            assert backend.get("stats", KEY) is None
            good = RemoteBackend(
                LocalBackend(str(tmp_path)),
                RemoteTier(*server.address, token="s3cret"))
            assert good.get("stats", KEY) == "{}"
            backend.close()
            good.close()
        finally:
            server.close()

    def test_corrupt_remote_blob_trail_identical_to_local(
            self, tmp_path, stub):
        """A garbage blob from the network degrades exactly like a
        garbage blob on disk: hit, then ``cache.corrupt``, then None."""
        stub.blobs[("stats", KEY)] = "{not json"
        remote = ArtifactCache(
            enabled=True,
            backend=RemoteBackend(LocalBackend(str(tmp_path / "r")),
                                  RemoteTier(*stub.address)))
        assert remote.load_stats(KEY) is None
        remote_trail = (remote.hits, remote.misses, _cache_counters())
        remote.close()

        telemetry.reset()
        local_backend = LocalBackend(str(tmp_path / "l"))
        local_backend.put("stats", KEY, "{not json")
        local = ArtifactCache(enabled=True, backend=local_backend)
        assert local.load_stats(KEY) is None
        local_trail = (local.hits, local.misses, _cache_counters())

        assert remote_trail[0] == local_trail[0] == 1   # a hit...
        assert remote_trail[1] == local_trail[1] == 0
        assert remote_trail[2] == local_trail[2] == {   # ...then corrupt
            "repro_cache_corrupt_total{kind=stats}": 1,
            "repro_cache_requests_total{kind=stats,result=hit}": 1,
        }

    def test_env_selected_backend_round_trip(self, tmp_path,
                                             monkeypatch, stub):
        stub.blobs[("stats", KEY)] = '{"env": true}'
        host, port = stub.address
        monkeypatch.setenv(
            "REPRO_CACHE_BACKEND",
            f"remote:{host}:{port}?root={tmp_path / 'envroot'}")
        reset_cache()
        from repro.cache import get_cache

        cache = get_cache()
        assert cache.backend_spec() == f"remote:{host}:{port}"
        assert cache._read("stats", KEY) == '{"env": true}'
        assert cache.hits == 1


_WRITER = """
import sys
from repro.cache import LocalBackend
backend = LocalBackend(sys.argv[1])
text = sys.argv[3] * 200000
torn = 0
for _ in range(25):
    backend.put("stats", sys.argv[2], text)
    seen = backend.get("stats", sys.argv[2])
    if seen is None or len(seen) != len(text) or len(set(seen)) != 1:
        torn += 1
print(torn)
"""


class TestConcurrentWriteBack:
    def test_two_process_write_back_is_atomic(self, tmp_path):
        """Two processes hammering the same key (the write-back race two
        remote-backed hosts hit): readers must only ever observe one
        writer's complete text, never a torn mix."""
        env = dict(os.environ, PYTHONPATH=SRC)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER, str(tmp_path), KEY,
                 marker],
                env=env, stdout=subprocess.PIPE, text=True)
            for marker in ("A", "B")
        ]
        backend = LocalBackend(str(tmp_path))
        torn = []
        for _ in range(2000):
            text = backend.get("stats", KEY)
            if text is not None and (len(text) != 200000
                                     or len(set(text)) != 1):
                torn.append(len(text))
        outs = [proc.communicate(timeout=120)[0].strip()
                for proc in procs]
        assert all(proc.returncode == 0 for proc in procs)
        assert torn == []
        assert outs == ["0", "0"]  # writers never read torn text either
        final = backend.get("stats", KEY)
        assert final in ("A" * 200000, "B" * 200000)
        # no .tmp- litter left behind
        parent = backend.path_for("stats", KEY).parent
        assert [p for p in parent.iterdir()
                if p.name.startswith(".tmp-")] == []
