"""Content-addressed on-disk artifact cache.

Everything the pipeline computes — dynamic traces, CritIC profiles, and
simulation statistics — is a pure function of a small parameter record
(workload profile + walk length + scheme + finder config + CPU config).
This module keys each artifact by the SHA-256 of that record's canonical
JSON and stores it as one file::

    $REPRO_CACHE_DIR/v<SCHEMA_VERSION>/<kind>/<hh>/<hash>.<ext>

(default root ``~/.cache/repro``), written atomically (tmp file +
``os.replace``) so concurrent runners never observe torn files.  The
store's identity, ``local:<root>``, is recorded in run manifests for
provenance — but never enters ``config_hash``: *where* an artifact
lives cannot change *what* it is (keys are content addresses).

Invalidation is structural: any change to the parameter record changes
the key, and incompatible changes to the *artifact formats or the
pipeline semantics themselves* are handled by bumping
:data:`SCHEMA_VERSION`, which moves the whole store to a fresh ``v<N>/``
namespace.  Corrupt blobs degrade to a miss with a ``cache.corrupt``
trail.

Set ``REPRO_CACHE=0`` to disable the cache entirely (every lookup misses
and nothing is written); ``REPRO_CACHE_DIR`` relocates the store.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Optional

from repro import telemetry
from repro.cpu.stats import SimStats
from repro.profiler.profile_table import CriticProfile
from repro.trace.dynamic import Trace
from repro.trace.trace_io import dump_trace, load_trace

#: Bump on any change that invalidates previously stored artifacts
#: (trace format, generator semantics, simulator accounting, ...).
#: v2: SimStats gained ``truncated`` and per-prefetcher issue counters,
#: and ``prefetches_issued`` became the sum of both prefetchers (it was
#: last-writer-wins when CLPT and EFetch were enabled together).
#: v3: the component registry landed — scheme/stats keys now fold in the
#: versioned component identities (``critic@1``, ``two-level@1``, ...)
#: and SimStats gained ``component_counters``; the key-record shape
#: changed for every scheme trace and stats artifact.
#: v4: trace artifacts moved to the columnar ``repro-trace v2`` text
#: format (:mod:`repro.trace.trace_io`), which keeps no v1 reader.
SCHEMA_VERSION = 4

ENV_DIR = "REPRO_CACHE_DIR"
ENV_ENABLE = "REPRO_CACHE"

_DEFAULT_DIR = os.path.join("~", ".cache", "repro")

#: file extension per artifact kind (anything else stores as .json blobs)
_EXT = {"trace": "trace", "critic_profile": "json", "stats": "json"}
_DEFAULT_EXT = "json"


def _canonical(obj: Any) -> Any:
    """Reduce a parameter object to JSON-stable primitives."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canonical(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_canonical(v) for v in obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"unhashable cache parameter: {obj!r}")


def artifact_key(kind: str, **params: Any) -> str:
    """SHA-256 content key over ``kind`` + params + schema version."""
    record = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "params": _canonical(params),
    }
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- the store ---------------------------------------------------------------


class ArtifactCache:
    """One typed artifact store in a directory tree.

    ``root`` wins over ``REPRO_CACHE_DIR`` wins over ``~/.cache/repro``.
    """

    def __init__(self, root: Optional[str] = None,
                 enabled: Optional[bool] = None):
        if enabled is None:
            enabled = os.environ.get(ENV_ENABLE, "1") != "0"
        self.root = Path(os.path.expanduser(
            str(root or os.environ.get(ENV_DIR) or _DEFAULT_DIR)))
        self.enabled = enabled
        self.hits = 0
        self.misses = 0

    def backend_spec(self) -> str:
        """The store identity recorded in manifests (provenance only —
        never part of ``config_hash``)."""
        return f"local:{self.root}"

    # -- raw blobs -----------------------------------------------------------

    def path_for(self, kind: str, key: str) -> Path:
        """Where the artifact for ``key`` lives (may not exist yet)."""
        ext = _EXT.get(kind, _DEFAULT_EXT)
        return (self.root / f"v{SCHEMA_VERSION}" / kind / key[:2]
                / f"{key}.{ext}")

    def get(self, kind: str, key: str) -> Optional[str]:
        """The stored text, or ``None`` (missing or unreadable).  No
        hit/miss accounting: that belongs to the typed loaders."""
        try:
            return self.path_for(kind, key).read_text()
        except (OSError, UnicodeDecodeError):
            return None

    def put(self, kind: str, key: str, text: str) -> None:
        """Store ``text`` atomically: readers see the old blob or the
        new one, never a torn mix."""
        path = self.path_for(kind, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), prefix=".tmp-", suffix=path.suffix,
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full cache dir degrades to a no-op, not a crash.
            pass

    # -- generic text IO -----------------------------------------------------

    def _read(self, kind: str, key: str) -> Optional[str]:
        if not self.enabled:
            return None
        text = self.get(kind, key)
        if text is None:
            self.misses += 1
            telemetry.inc("repro_cache_requests_total",
                          help="Artifact cache lookups by outcome.",
                          kind=kind, result="miss")
            telemetry.emit("cache.miss", artifact=kind, key=key[:12])
            return None
        self.hits += 1
        telemetry.inc("repro_cache_requests_total",
                      help="Artifact cache lookups by outcome.",
                      kind=kind, result="hit")
        telemetry.emit("cache.hit", artifact=kind, key=key[:12])
        return text

    def _corrupt(self, kind: str, key: str) -> None:
        """A stored artifact parsed as garbage: degrade to a miss, but
        leave a trail — silent corruption is how caches rot."""
        telemetry.inc("repro_cache_corrupt_total",
                      help="Cache artifacts that failed to parse and "
                           "degraded to a miss.",
                      kind=kind)
        telemetry.emit("cache.corrupt", artifact=kind, key=key[:12])

    def _write(self, kind: str, key: str, text: str) -> None:
        if self.enabled:
            self.put(kind, key, text)

    # -- typed artifacts -----------------------------------------------------

    def load_trace(self, key: str) -> Optional[Trace]:
        text = self._read("trace", key)
        if text is None:
            return None
        with telemetry.phase("cache.load_trace"):
            try:
                return load_trace(io.StringIO(text))
            except ValueError:
                self._corrupt("trace", key)
                return None  # torn/stale artifact: treat as a miss

    def store_trace(self, key: str, trace: Trace) -> None:
        if not self.enabled:
            return
        with telemetry.phase("cache.store_trace"):
            buf = io.StringIO()
            dump_trace(trace, buf)
            self._write("trace", key, buf.getvalue())

    def load_profile(self, key: str) -> Optional[CriticProfile]:
        text = self._read("critic_profile", key)
        if text is None:
            return None
        try:
            return CriticProfile.from_json(text)
        except (ValueError, KeyError):
            self._corrupt("critic_profile", key)
            return None

    def store_profile(self, key: str, profile: CriticProfile) -> None:
        self._write("critic_profile", key, profile.to_json())

    def load_stats(self, key: str) -> Optional[SimStats]:
        text = self._read("stats", key)
        if text is None:
            return None
        try:
            return SimStats.from_dict(json.loads(text))
        except (ValueError, KeyError, TypeError):
            self._corrupt("stats", key)
            return None

    def store_stats(self, key: str, stats: SimStats) -> None:
        self._write("stats", key, json.dumps(stats.to_dict(), sort_keys=True))

    def load_json(self, kind: str, key: str) -> Optional[Any]:
        """Load an arbitrary JSON artifact (derived analysis results)."""
        text = self._read(kind, key)
        if text is None:
            return None
        try:
            return json.loads(text)
        except ValueError:
            self._corrupt(kind, key)
            return None

    def store_json(self, kind: str, key: str, payload: Any) -> None:
        self._write(kind, key, json.dumps(payload, sort_keys=True))

    # -- maintenance ---------------------------------------------------------

    def clear(self) -> int:
        """Delete every artifact in the current schema namespace.

        Returns the number of *artifacts* removed.  Orphaned ``.tmp-*``
        files left behind by interrupted atomic writes are deleted too,
        but never counted — they were never artifacts.
        """
        removed = 0
        base = self.root / f"v{SCHEMA_VERSION}"
        if not base.exists():
            return 0
        for path in sorted(base.rglob("*"), reverse=True):
            try:
                if path.is_dir():
                    path.rmdir()
                else:
                    path.unlink()
                    if not path.name.startswith(".tmp-"):
                        removed += 1
            except OSError:
                pass
        return removed


_default: Optional[ArtifactCache] = None


def get_cache() -> ArtifactCache:
    """The process-wide cache (constructed from the env on first use)."""
    global _default
    if _default is None:
        _default = ArtifactCache()
    return _default


def reset_cache() -> None:
    """Drop the process-wide cache so the next use re-reads the env."""
    global _default
    _default = None
