"""Declarative sweep engine: app x scheme x config grids from one spec.

A :class:`SweepSpec` names *what* to evaluate — apps, compiler schemes,
and hardware configurations, each by registry name — plus optional
component overrides (extra prefetchers, an i-cache replacement policy, a
branch predictor) applied uniformly to every configuration.  The engine
resolves names through :mod:`repro.registry` (typos get did-you-mean
suggestions), fans the grid out through the parallel, artifact-cached
:func:`repro.experiments.runner.run_apps`, writes a ``sweep`` run
manifest carrying the versioned component identities, and renders a
comparison table.

The figure modules are thin layers over this: each declares its grid as
a spec, calls :func:`run_sweep`, and keeps only its figure-specific
post-processing.  The CLI makes ad-hoc studies one-liners::

    python -m repro.experiments.sweep \
        --apps Music,Email --schemes baseline,critic \
        --configs google-tablet,trrip-icache \
        --prefetcher critical-nextline

    python -m repro.experiments.sweep --list   # registered components
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu import CpuConfig, SimStats, speedup
from repro.cpu.engines import resolve_engine
from repro.experiments.runner import (
    DEFAULT_WALK_BLOCKS,
    _batch_samples,
    _run_extra,
    format_table,
    geometric_mean,
    grid_manifest_fields,
    run_apps,
)
from repro.registry import (
    BRANCH_PREDICTORS,
    EXECUTORS,
    HARDWARE_CONFIGS,
    ICACHE_POLICIES,
    PREFETCHERS,
    SCHEME_RECIPES,
    SIMULATORS,
    all_registries,
)
from repro.telemetry import span
from repro.telemetry.manifest import record_run


@dataclass(frozen=True)
class SweepSpec:
    """One declarative grid: everything is addressed by registry name."""

    apps: Tuple[str, ...]
    schemes: Tuple[str, ...] = ("baseline",)
    #: hardware configurations, by :data:`~repro.registry.HARDWARE_CONFIGS`
    #: name
    configs: Tuple[str, ...] = ("google-tablet",)
    #: extra prefetcher components layered onto *every* config
    prefetchers: Tuple[str, ...] = ()
    #: i-cache replacement policy override for every config
    icache_policy: Optional[str] = None
    #: branch predictor override for every config
    branch_predictor: Optional[str] = None
    walk_blocks: Optional[int] = None
    jobs: Optional[int] = None
    #: execution backend, by :data:`~repro.registry.EXECUTORS` name
    #: (``None`` means the runner default: ``fleet``, or ``inline``
    #: for one job)
    executor: Optional[str] = None
    #: simulation engine, by :data:`~repro.registry.SIMULATORS` name
    #: (``None`` means ``batch``); engines are bit-identical, so this
    #: changes wall time, never numbers
    engine: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe payload form — what ``repro.serve`` jobs and the
        loadgen ship over the wire.  Only non-default fields are
        emitted, so payloads stay small and diff-friendly."""
        record: Dict[str, object] = {"apps": list(self.apps)}
        if self.schemes != ("baseline",):
            record["schemes"] = list(self.schemes)
        if self.configs != ("google-tablet",):
            record["configs"] = list(self.configs)
        if self.prefetchers:
            record["prefetchers"] = list(self.prefetchers)
        for key in ("icache_policy", "branch_predictor", "walk_blocks",
                    "jobs", "executor", "engine"):
            value = getattr(self, key)
            if value is not None:
                record[key] = value
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written
        JSON).  Unknown keys raise ``ValueError`` naming them — a job
        payload with a typoed field should fail loudly at admission,
        not silently sweep the default grid."""
        if not isinstance(record, dict):
            raise ValueError(
                f"sweep spec must be a JSON object, got "
                f"{type(record).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(record) - known)
        if unknown:
            raise ValueError(
                f"unknown sweep spec field(s): {', '.join(unknown)} "
                f"(expected a subset of {', '.join(sorted(known))})"
            )
        if not record.get("apps"):
            raise ValueError("sweep spec needs a non-empty 'apps' list")
        kwargs: Dict[str, object] = dict(record)
        for key in ("apps", "schemes", "configs", "prefetchers"):
            if key in kwargs:
                value = kwargs[key]
                if isinstance(value, str):
                    value = [part.strip() for part in value.split(",")
                             if part.strip()]
                kwargs[key] = tuple(str(v) for v in value)
        return cls(**kwargs)  # type: ignore[arg-type]

    def validate(self) -> None:
        """Resolve every name now so typos fail before any work starts
        (each lookup raises a did-you-mean ``RegistryError``)."""
        for scheme in self.schemes:
            SCHEME_RECIPES.identity(scheme)
        for config in self.configs:
            HARDWARE_CONFIGS.identity(config)
        for name in self.prefetchers:
            PREFETCHERS.identity(name)
        if self.icache_policy is not None:
            ICACHE_POLICIES.identity(self.icache_policy)
        if self.branch_predictor is not None:
            BRANCH_PREDICTORS.identity(self.branch_predictor)
        if self.executor is not None:
            EXECUTORS.identity(self.executor)
        if self.engine is not None:
            SIMULATORS.identity(self.engine)

    def resolve_configs(self) -> Tuple[CpuConfig, ...]:
        """Materialize the named configs with the overrides applied."""
        overrides = (self.prefetchers or self.icache_policy is not None
                     or self.branch_predictor is not None)
        configs: List[CpuConfig] = []
        for name in self.configs:
            config = HARDWARE_CONFIGS.create(name)
            if overrides:
                config = config.with_components(
                    prefetchers=self.prefetchers or None,
                    icache_policy=self.icache_policy,
                    branch_predictor=self.branch_predictor,
                )
            configs.append(config)
        return tuple(configs)


@dataclass
class SweepResult:
    """The materialized grid plus the resolved configurations."""

    spec: SweepSpec
    configs: Tuple[CpuConfig, ...]
    #: app -> (scheme, config.name) -> SimStats
    grid: Dict[str, Dict[Tuple[str, str], SimStats]] = \
        field(default_factory=dict)

    def cell(self, app: str, scheme: str, config_name: str) -> SimStats:
        return self.grid[app][(scheme, config_name)]

    def config_names(self) -> Tuple[str, ...]:
        return tuple(config.name for config in self.configs)

    def comparison_table(self) -> str:
        """Cycles per scheme, and speedup vs the spec's first scheme.

        One row per app x config; a GEOMEAN row per config summarizes the
        speedup columns (cycle counts don't average meaningfully across
        apps, ratios do).
        """
        schemes = self.spec.schemes
        base_scheme = schemes[0]
        headers = ["app", "config"]
        headers += [f"{scheme}:cycles" for scheme in schemes]
        headers += [f"{scheme}:speedup" for scheme in schemes[1:]]
        rows: List[List[str]] = []
        for config in self.configs:
            ratios: Dict[str, List[float]] = {s: [] for s in schemes[1:]}
            for app in self.spec.apps:
                base = self.cell(app, base_scheme, config.name)
                row = [app, config.name]
                row += [str(self.cell(app, s, config.name).cycles)
                        for s in schemes]
                for scheme in schemes[1:]:
                    ratio = speedup(base, self.cell(app, scheme,
                                                    config.name))
                    ratios[scheme].append(ratio)
                    row.append(f"{100 * (ratio - 1):+.2f}%")
                rows.append(row)
            if schemes[1:] and len(self.spec.apps) > 1:
                mean_row = ["GEOMEAN", config.name]
                mean_row += ["-"] * len(schemes)
                mean_row += [
                    f"{100 * (geometric_mean(ratios[s]) - 1):+.2f}%"
                    for s in schemes[1:]
                ]
                rows.append(mean_row)
        return format_table(headers, rows)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Validate, materialize, and manifest one declarative sweep."""
    spec.validate()
    configs = spec.resolve_configs()
    batch_since = _batch_samples()
    started = time.perf_counter()
    with span("sweep", apps=len(spec.apps),
              schemes=",".join(spec.schemes),
              configs=",".join(spec.configs)):
        grid = run_apps(
            spec.apps, spec.schemes, jobs=spec.jobs, configs=configs,
            walk_blocks=spec.walk_blocks, executor=spec.executor,
            engine=spec.engine,
        )
    blocks = spec.walk_blocks if spec.walk_blocks is not None \
        else DEFAULT_WALK_BLOCKS
    record_run("sweep", wall_s=time.perf_counter() - started,
               extra=_run_extra(resolve_engine(spec.engine), batch_since),
               **grid_manifest_fields(spec.apps, spec.schemes, configs,
                                      blocks))
    return SweepResult(spec=spec, configs=configs, grid=grid)


# -- CLI ----------------------------------------------------------------------


def _csv(value: str) -> Tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


#: display titles for :func:`repro.registry.all_registries` keys whose
#: snake_case form doesn't read well as-is.
_SECTION_TITLES = {"icache_policies": "i-cache policies"}


def list_components() -> str:
    """Render every registry's contents (the ``--list`` output).

    Enumerates :func:`repro.registry.all_registries`, so a newly added
    registry appears here — and in the serve ``/healthz`` payload, which
    reads the same source — without touching this function.
    """
    lines: List[str] = []
    for key, registry in all_registries().items():
        title = _SECTION_TITLES.get(key, key.replace("_", " "))
        identities = ", ".join(registry.identity(name)
                               for name in registry.names())
        lines.append(f"{title}: {identities}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.sweep",
        description="Run a declarative app x scheme x config sweep "
                    "(components resolved by registry name).",
    )
    parser.add_argument("--apps", type=_csv, default=(),
                        help="comma-separated app names (required unless "
                             "--list)")
    parser.add_argument("--schemes", type=_csv,
                        default=("baseline", "critic"),
                        help="comma-separated scheme names "
                             "(default: baseline,critic)")
    parser.add_argument("--configs", type=_csv,
                        default=("google-tablet",),
                        help="comma-separated hardware config names "
                             "(default: google-tablet)")
    parser.add_argument("--prefetcher", action="append", default=[],
                        metavar="NAME",
                        help="extra prefetcher component for every config "
                             "(repeatable)")
    parser.add_argument("--icache-policy", default=None, metavar="NAME",
                        help="i-cache replacement policy override")
    parser.add_argument("--branch-predictor", default=None, metavar="NAME",
                        help="branch predictor override")
    parser.add_argument("--walk-blocks", type=int, default=None,
                        help="dynamic block budget per app walk")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel worker count (default REPRO_JOBS "
                             "or the CPU count)")
    parser.add_argument("--executor", default=None, metavar="NAME",
                        help="execution backend: inline or fleet "
                             "(default fleet; one job always runs "
                             "inline)")
    parser.add_argument("--engine", default=None, metavar="NAME",
                        help="simulation engine: batch or inline "
                             "(default batch, the C kernel with a "
                             "per-cell inline fallback; bit-identical "
                             "results either way)")
    parser.add_argument("--progress", action="store_true",
                        help="render a live progress line (cells done/"
                             "cached/retried/fallback, instr/s) from "
                             "the structured event stream while the "
                             "sweep runs")
    parser.add_argument("--list", action="store_true", dest="list_all",
                        help="list registered components and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_all:
        print(list_components())
        return 0
    if not args.apps:
        print("error: --apps is required (or use --list)",
              file=sys.stderr)
        return 2
    spec = SweepSpec(
        apps=args.apps,
        schemes=args.schemes,
        configs=args.configs,
        prefetchers=tuple(args.prefetcher),
        icache_policy=args.icache_policy,
        branch_predictor=args.branch_predictor,
        walk_blocks=args.walk_blocks,
        jobs=args.jobs,
        executor=args.executor,
        engine=args.engine,
    )
    try:
        if args.progress:
            result = _run_with_progress(spec)
        else:
            result = run_sweep(spec)
    except KeyError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(result.comparison_table())
    return 0


def _run_with_progress(spec: SweepSpec) -> SweepResult:
    """:func:`run_sweep` with a live event-stream progress line.

    When ``REPRO_EVENTS`` is already set the renderer tails that log;
    otherwise a temporary event log is wired up (exported through the
    environment so fleet workers inherit it) and removed after the
    final summary line.
    """
    import tempfile

    from repro.telemetry.events import ENV_EVENTS
    from repro.telemetry.live import ProgressRenderer

    path = os.environ.get(ENV_EVENTS, "").strip()
    ephemeral = not path or path == "0"
    if ephemeral:
        fd, path = tempfile.mkstemp(prefix="repro-events-",
                                    suffix=".jsonl")
        os.close(fd)
        os.environ[ENV_EVENTS] = path
    try:
        with ProgressRenderer(path):
            return run_sweep(spec)
    finally:
        if ephemeral:
            os.environ.pop(ENV_EVENTS, None)
            try:
                os.unlink(path)
            except OSError:
                pass


if __name__ == "__main__":
    sys.exit(main())
