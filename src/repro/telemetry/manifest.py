"""Run manifests: provenance records written next to cached artifacts.

Every :func:`repro.experiments.runner.run_apps` invocation (and therefore
every figure reproduction) writes a *manifest* describing exactly what
ran: the invocation's content hash (same canonicalization as the artifact
cache keys), per-app generation seeds, scheme/config grid, cache hit/miss
counts, wall time, the telemetry phase table and the metrics-registry
snapshot.  Manifests live inside the artifact-cache namespace::

    $REPRO_CACHE_DIR/v<SCHEMA_VERSION>/manifests/last_run.json   (latest)
    $REPRO_CACHE_DIR/v<SCHEMA_VERSION>/manifests/manifests.jsonl (append log)

``last_run.json`` is replaced atomically; the JSONL log accumulates one
line per run, which is what CI uploads as a workflow artifact.  Next to
``last_run.json`` the writer also drops ``metrics.txt`` — the typed
metrics registry rendered in Prometheus text exposition format, the
scrape-shaped view of the same run.

Everything recorded here is provenance, not identity: the ``metrics``
block (like ``cache``/``wall_s``/``phases``) sits *outside* the
invocation record that ``config_hash`` is computed over, so two runs with
identical inputs hash identically no matter what their telemetry looked
like.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.cache import SCHEMA_VERSION, artifact_key, get_cache
from repro.telemetry import events as _events
from repro.telemetry import metrics as _metrics
from repro.telemetry.spans import phase_stats as _phase_stats

#: Manifest record format version.
MANIFEST_SCHEMA = 1

LAST_RUN = "last_run.json"
LOG = "manifests.jsonl"
METRICS = "metrics.txt"


def manifest_dir(root: Optional[Path] = None) -> Path:
    """Where manifests live for the active (or given) cache root."""
    base = root if root is not None else get_cache().root
    return Path(base) / f"v{SCHEMA_VERSION}" / "manifests"


def build_manifest(
    kind: str,
    *,
    apps: Sequence[str],
    schemes: Sequence[str],
    configs: Sequence[str],
    walk_blocks: int,
    seeds: Dict[str, int],
    wall_s: float,
    components: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the manifest record for one finished run.

    ``components`` maps each config name to its versioned component
    identities (see :func:`repro.registry.component_identity`); when
    given it becomes part of the invocation record, so the
    ``config_hash`` distinguishes runs that differ only in which
    registered components (or component versions) they composed.
    """
    cache = get_cache()
    invocation = {
        "apps": sorted(apps),
        "schemes": sorted(schemes),
        "configs": sorted(configs),
        "walk_blocks": walk_blocks,
        "seeds": {name: seeds[name] for name in sorted(seeds)},
    }
    if components is not None:
        invocation["components"] = {
            name: components[name] for name in sorted(components)
        }
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "kind": kind,
        "config_hash": artifact_key("run_manifest", **invocation),
        "created_unix": time.time(),
        "pid": os.getpid(),
        **invocation,
        "cache": {"hits": cache.hits, "misses": cache.misses,
                  "backend": cache.backend_spec()},
        "wall_s": wall_s,
        "phases": _phase_stats(),
        "metrics": _metrics.REGISTRY.snapshot(),
    }
    if extra:
        manifest.update(extra)
    return manifest


def _write_atomic(target: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(
        dir=str(target.parent), prefix=".tmp-", suffix=target.suffix,
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_manifest(manifest: Dict[str, Any]) -> Optional[Path]:
    """Persist ``manifest`` (atomic ``last_run.json`` + JSONL log line),
    plus the Prometheus-format ``metrics.txt`` snapshot alongside.

    Returns the ``last_run.json`` path, or ``None`` when the artifact
    cache is disabled or unwritable (manifests are best-effort telemetry,
    never a reason to fail a run).
    """
    cache = get_cache()
    if not cache.enabled:
        return None
    line = json.dumps(manifest, sort_keys=True)
    target = manifest_dir() / LAST_RUN
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(target, line + "\n")
        with open(target.parent / LOG, "a") as handle:
            handle.write(line + "\n")
        exposition = _metrics.REGISTRY.render_prometheus()
        if exposition:
            _write_atomic(target.parent / METRICS, exposition)
    except OSError:
        return None
    return target


def record_run(
    kind: str,
    *,
    apps: Sequence[str],
    schemes: Sequence[str],
    configs: Sequence[str],
    walk_blocks: int,
    seeds: Dict[str, int],
    wall_s: float,
    components: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Optional[Path]:
    """:func:`build_manifest` + :func:`write_manifest` in one call.

    Also emits one ``run.recorded`` event carrying the registry's
    counter totals: the exporter draws them as counter tracks, and its
    writer is the run's parent process.
    """
    if _events.enabled():
        _events.emit("run.recorded", run=kind,
                     counters=_metrics.REGISTRY.counters_flat())
    return write_manifest(build_manifest(
        kind, apps=apps, schemes=schemes, configs=configs,
        walk_blocks=walk_blocks, seeds=seeds, wall_s=wall_s,
        components=components, extra=extra,
    ))


def load_manifest(path: str) -> Dict[str, Any]:
    """Load one manifest: a ``.json`` file, or the *last* line of a
    ``.jsonl`` log."""
    with open(path) as handle:
        text = handle.read()
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"empty manifest file: {path}")
    return json.loads(lines[-1])
