"""Seeded workload fuzzer + metamorphic suite for the whole pipeline.

Drives randomized :class:`~repro.workloads.WorkloadProfile`s through all
eight compiler schemes and several hardware configurations, with the
pipeline invariant checker attached to every simulation and the in-order
differential oracle run on the baseline trace.  On top of the per-run
invariants it asserts *cross-run metamorphic properties* — relations that
must hold between runs regardless of the absolute numbers:

* **Thumb monotonicity** — re-encoding schemes (CritIC/CDP, OPP16,
  Compress, their combinations) never *increase* dynamically fetched
  bytes; pure hoisting preserves them exactly.  (Approach-1 branch
  switching is exempt: its switch-branch pairs add real instructions.)
* **PerfectBr never slower** — oracle branch prediction can only remove
  redirect stalls.
* **Bigger i-cache never misses more** — scaling capacity cannot add
  demand misses on the same fetch stream.
* **CritIC.Ideal dominates CritIC** — the no-constraints upper bound must
  achieve at least the deployable scheme's speedup.
* **Dual prefetchers sum** — with CLPT and EFetch both enabled,
  ``prefetches_issued`` equals the two per-prefetcher counters' sum (the
  PR-3 last-writer-wins regression).
* **Registry prefetchers count** — a registry-only prefetcher
  (critical-nextline) reports its issues via ``component_counters`` and
  those feed ``prefetches_issued`` too.
* **Next-line dominance** — the criticality-weighted next-line
  instruction prefetcher never *adds* demand i-cache misses beyond
  alignment/pollution noise: its fills install lines ahead of the fetch
  stream, they never count as demand accesses.
* **DFG windows are restrictions** — a window cut from the baseline
  trace's dependence graph equals the graph rebuilt on that window
  (the profiler analyzes cut windows, never rebuilt ones).

That one grid gives the same ``SimStats`` under every engine, executor,
cache state, workload family and front is not a fuzz property: the
table in ``tests/test_identity_matrix.py`` asserts it in tier-1.

Both new registered components (the TRRIP i-cache policy and the
critical-nextline prefetcher) are also run under the in-order
differential oracle each round, with exact i-cache agreement demanded
against the out-of-order pipeline.

Entry point: ``python -m repro.validate --fuzz N --seed S``.  All
randomness flows from one ``random.Random(seed)``, so a failing seed is
a reproducer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.cpu.config import (
    CpuConfig,
    GOOGLE_TABLET,
    config_4x_icache,
    config_critical_prefetch,
    config_efetch,
    config_perfect_br,
)
from repro.cpu.pipeline import simulate
from repro.cpu.stats import SimStats
from repro.dfg import Dfg
from repro.experiments.runner import AppContext
from repro.registry import HARDWARE_CONFIGS, SCHEME_RECIPES
from repro.validate.differential import differential_check
from repro.validate.invariants import RunValidator, ValidationReport
from repro.workloads import ALL_PROFILES, WorkloadProfile

#: Schemes whose transformation is a pure (hoist +) Thumb re-encoding —
#: fetched bytes must never increase relative to baseline.
THUMB_SCHEMES = ("critic", "critic_ideal", "opp16", "compress",
                 "opp16_critic")


def random_profile(rng: random.Random, index: int,
                   walk_blocks: int = 120) -> WorkloadProfile:
    """A randomized workload: a catalog profile with fuzzed knobs.

    Starting from a real Table II profile keeps the structural guarantees
    the generator documents (register conventions, chain shapes) while
    the fuzzed knobs explore the parameter space the catalog never hits.
    """
    base = rng.choice(sorted(ALL_PROFILES.values(), key=lambda p: p.name))
    lo = rng.randint(2, 5)
    return replace(
        base,
        name=f"fuzz{index}-{base.name}",
        seed=rng.randrange(1, 1 << 30),
        num_functions=rng.randint(4, 48),
        blocks_per_function=(lo, lo + rng.randint(0, 3)),
        chain_motif_prob=round(rng.uniform(0.0, 0.95), 3),
        chain_length=(3 + rng.randint(0, 3), 8 + rng.randint(0, 8)),
        chain_load_head_frac=round(rng.uniform(0.0, 1.0), 3),
        chain_load_frac=round(rng.uniform(0.0, 0.6), 3),
        chain_hostile_frac=round(rng.uniform(0.0, 0.15), 3),
        indep_critical_prob=round(rng.uniform(0.0, 0.6), 3),
        long_latency_frac=round(rng.uniform(0.0, 0.2), 3),
        fp_frac=round(rng.uniform(0.0, 0.3), 3),
        load_frac=round(rng.uniform(0.05, 0.3), 3),
        store_frac=round(rng.uniform(0.02, 0.15), 3),
        filler_high_reg_frac=round(rng.uniform(0.0, 0.8), 3),
        filler_wide_imm_frac=round(rng.uniform(0.0, 0.5), 3),
        call_frac=round(rng.uniform(0.0, 0.5), 3),
        skip_branch_frac=round(rng.uniform(0.0, 0.35), 3),
        hard_branch_frac=round(rng.uniform(0.0, 0.6), 3),
        loop_iterations=(2, rng.randint(3, 12)),
        walk_blocks=walk_blocks,
    )


@dataclass
class FuzzResult:
    """Outcome of one fuzz campaign."""

    iterations: int = 0
    simulations: int = 0
    properties_checked: int = 0
    reports: List[ValidationReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    @property
    def failures(self) -> List[ValidationReport]:
        return [r for r in self.reports if not r.ok]

    def to_dict(self) -> Dict:
        return {
            "iterations": self.iterations,
            "simulations": self.simulations,
            "properties_checked": self.properties_checked,
            "ok": self.ok,
            "failures": [r.to_dict() for r in self.failures],
        }


def _meta(report: ValidationReport, result: FuzzResult, ok: bool,
          kind: str, message: str, **context) -> None:
    """Record one metamorphic property evaluation."""
    result.properties_checked += 1
    if not ok:
        report.add(kind, message, **context)


def _csr(dfg: Dfg) -> tuple:
    """Every array of a dependence graph."""
    return (dfg.producers.ptr, dfg.producers.index, dfg.consumers.ptr,
            dfg.consumers.index, dfg.fanouts, dfg.sole)


def fuzz_iteration(profile: WorkloadProfile, result: FuzzResult,
                   differential: bool = True) -> ValidationReport:
    """One fuzz round: all schemes x configs for one randomized profile.

    Every simulation runs with the invariant checker attached
    (non-strict: violations land in the returned report instead of
    raising, so one bad run doesn't mask the rest of the round).
    """
    validator = RunValidator(strict=False)
    ctx = AppContext(app_profile=profile)
    report = ValidationReport(trace_name=profile.name,
                              config_name="metamorphic")

    def run(trace, config: CpuConfig) -> SimStats:
        result.simulations += 1
        return simulate(trace, config, validator=validator,
                        engine="inline")

    baseline = ctx.trace()
    traces = {scheme: ctx.scheme_trace(scheme)
              for scheme in SCHEME_RECIPES.names()}
    cycles: Dict[str, int] = {}
    for scheme, trace in traces.items():
        cycles[scheme] = run(trace, GOOGLE_TABLET).cycles

    # -- Thumb re-encoding never increases fetched bytes -------------------
    base_bytes = baseline.dynamic_bytes()
    for scheme in THUMB_SCHEMES:
        scheme_bytes = traces[scheme].dynamic_bytes()
        _meta(
            report, result, scheme_bytes <= base_bytes,
            "meta_thumb_bytes",
            f"{scheme} fetches {scheme_bytes} bytes, more than the "
            f"baseline's {base_bytes}",
            scheme=scheme,
        )
    hoist_bytes = traces["hoist"].dynamic_bytes()
    _meta(
        report, result, hoist_bytes == base_bytes,
        "meta_hoist_bytes",
        f"hoist (reorder-only) changed fetched bytes: {hoist_bytes} vs "
        f"baseline {base_bytes}",
    )

    # -- hardware metamorphics on the baseline trace ------------------------
    tablet = run(baseline, GOOGLE_TABLET)
    perfect = run(baseline, config_perfect_br())
    _meta(
        report, result, perfect.cycles <= tablet.cycles,
        "meta_perfect_branch",
        f"perfect branch prediction slower than the real predictor: "
        f"{perfect.cycles} vs {tablet.cycles} cycles",
    )
    _meta(
        report, result, perfect.branch_mispredicts == 0,
        "meta_perfect_branch",
        f"perfect branch prediction still mispredicted "
        f"{perfect.branch_mispredicts} branches",
    )
    big_icache = run(baseline, config_4x_icache())
    _meta(
        report, result, big_icache.icache_misses <= tablet.icache_misses,
        "meta_icache_capacity",
        f"4x i-cache missed more: {big_icache.icache_misses} vs "
        f"{tablet.icache_misses}",
    )

    # -- dual prefetchers: counters must sum, not overwrite ------------------
    dual = run(baseline, replace(
        config_critical_prefetch(config_efetch()), name="CLPT+EFetch",
    ))
    _meta(
        report, result,
        dual.prefetches_issued == (dual.clpt_prefetches_issued
                                   + dual.efetch_prefetches_issued),
        "meta_prefetch_sum",
        f"prefetches_issued={dual.prefetches_issued} but CLPT issued "
        f"{dual.clpt_prefetches_issued} and EFetch "
        f"{dual.efetch_prefetches_issued}",
    )

    # -- registry components: TRRIP i-cache + critical-nextline prefetch ----
    trrip = run(baseline, HARDWARE_CONFIGS.create("trrip-icache"))
    nextline_config = GOOGLE_TABLET.with_components(
        prefetchers=("critical-nextline",))
    nextline = run(baseline, nextline_config)
    issued = nextline.component_counters.get("prefetch.critical-nextline", 0)
    _meta(
        report, result, nextline.prefetches_issued == issued,
        "meta_prefetch_sum",
        f"prefetches_issued={nextline.prefetches_issued} but the "
        f"critical-nextline component counter says {issued}",
    )
    # Prefetch fills never count as demand accesses, so the prefetcher
    # can only convert demand misses into hits — up to second-order
    # pollution (a fill evicting a still-live line), bounded like the
    # critic_ideal alignment noise at 0.5%.
    miss_bound = tablet.icache_misses + max(4, tablet.icache_misses // 200)
    _meta(
        report, result, nextline.icache_misses <= miss_bound,
        "meta_nextline_dominance",
        f"critical-nextline prefetching added demand i-cache misses: "
        f"{nextline.icache_misses} vs {tablet.icache_misses} without "
        f"(bound {miss_bound})",
    )

    # -- CritIC.Ideal dominates CritIC --------------------------------------
    # Not a strict theorem at cycle granularity: Ideal re-encodes at more
    # sites, and the extra CDP bytes shift i-cache line alignment, which
    # can cost a handful of cycles on adversarial layouts.  Allow that
    # second-order noise (0.5%) but catch any real regression.
    ideal_bound = cycles["critic"] + max(4, cycles["critic"] // 200)
    _meta(
        report, result, cycles["critic_ideal"] <= ideal_bound,
        "meta_critic_ideal",
        f"CritIC.Ideal ({cycles['critic_ideal']} cycles) slower than "
        f"deployable CritIC ({cycles['critic']} cycles) beyond "
        f"alignment noise (bound {ideal_bound})",
    )

    # -- DFG windows: cut from the trace's graph == rebuilt ----------------
    graph = Dfg(baseline)
    width = max(1, len(baseline) // 4)
    for start, length in ((0, width), (width // 2, width),
                          (len(baseline) - width // 2, width)):
        cut = graph.window(start, length)
        rebuilt = Dfg(baseline.window(start, length))
        _meta(
            report, result, _csr(cut) == _csr(rebuilt),
            "meta_dfg_window",
            f"DFG window [{start}, +{length}) cut from the trace's graph "
            f"differs from the graph rebuilt on it",
            start=start, length=length,
        )

    # -- differential oracle -------------------------------------------------
    if differential:
        result.reports.append(
            differential_check(baseline, GOOGLE_TABLET, ooo_stats=tablet)
        )
        result.reports.append(
            differential_check(traces["critic"], GOOGLE_TABLET,
                               ooo_stats=None)
        )
        # Both new registered components under the in-order oracle, with
        # exact i-cache agreement demanded against the OoO pipeline.
        result.reports.append(
            differential_check(baseline, HARDWARE_CONFIGS.create(
                "trrip-icache"), ooo_stats=trrip)
        )
        result.reports.append(
            differential_check(baseline, nextline_config,
                               ooo_stats=nextline)
        )

    result.reports.extend(validator.reports)
    result.reports.append(report)
    return report


def family_metamorphic(rng: random.Random, result: FuzzResult,
                       walk_blocks: int = 100) -> ValidationReport:
    """Every workload family, four metamorphic properties per family.

    For each registered family except ``trace-replay`` (which is the
    round-trip target, not a generator):

    * **Determinism** — two builds from the same seeded profile produce
      bit-identical traces; family identity plus the profile is the
      cache key, so this is load-bearing, not cosmetic.
    * **PerfectBr dominance** — oracle branch prediction never slows a
      family's stream down.
    * **4xI$ dominance** — quadrupled i-cache capacity never misses
      more, whatever the family did to the code footprint.
    * **Replay round-trip** — recording the family's trace and
      rebuilding a workload from it via :func:`replay_workload` yields
      the recording back bit-identically (same entries, same
      ``SimStats``).

    Each family's baseline trace also runs under the in-order
    differential oracle.
    """
    from repro.registry import WORKLOAD_FAMILIES
    from repro.workloads import build_workload, replay_workload

    report = ValidationReport(trace_name="families",
                              config_name="metamorphic")
    base = rng.choice(sorted(ALL_PROFILES.values(), key=lambda p: p.name))
    profile = replace(
        base,
        name=f"family-{base.name}",
        seed=rng.randrange(1, 1 << 30),
        num_functions=min(base.num_functions, 36),
        walk_blocks=walk_blocks,
    )

    def run(trace, config: CpuConfig) -> SimStats:
        result.simulations += 1
        return simulate(trace, config, engine="inline")

    for family in WORKLOAD_FAMILIES.names():
        if family == "trace-replay":
            continue
        trace = build_workload(family, profile).trace()
        again = build_workload(family, profile).trace()
        _meta(
            report, result, list(trace) == list(again),
            "meta_family_determinism",
            f"family {family} is not deterministic for "
            f"seed={profile.seed}",
            family=family,
        )
        tablet = run(trace, GOOGLE_TABLET)
        perfect = run(trace, config_perfect_br())
        _meta(
            report, result, perfect.cycles <= tablet.cycles,
            "meta_family_perfect_branch",
            f"family {family}: perfect branch prediction slower than "
            f"the real predictor ({perfect.cycles} vs "
            f"{tablet.cycles} cycles)",
            family=family,
        )
        big_icache = run(trace, config_4x_icache())
        _meta(
            report, result,
            big_icache.icache_misses <= tablet.icache_misses,
            "meta_family_icache_capacity",
            f"family {family}: 4x i-cache missed more "
            f"({big_icache.icache_misses} vs {tablet.icache_misses})",
            family=family,
        )
        replayed = replay_workload(profile, trace)
        replay_trace = replayed.trace()
        _meta(
            report, result, list(replay_trace) == list(trace),
            "meta_family_replay",
            f"family {family}: trace-replay round trip changed the "
            f"trace entries",
            family=family,
        )
        _meta(
            report, result, run(replay_trace, GOOGLE_TABLET) == tablet,
            "meta_family_replay",
            f"family {family}: SimStats differ between the recording "
            f"and its replay",
            family=family,
        )
        result.reports.append(
            differential_check(trace, GOOGLE_TABLET, ooo_stats=tablet)
        )
    result.reports.append(report)
    return report


def run_fuzz(
    iterations: int,
    seed: int = 3,
    walk_blocks: int = 120,
    differential: bool = True,
    families: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzResult:
    """Run ``iterations`` fuzz rounds; deterministic for a given seed.

    With ``families=True`` the campaign ends with one
    :func:`family_metamorphic` round covering every registered workload
    family.
    """
    rng = random.Random(seed)
    result = FuzzResult()
    for index in range(iterations):
        profile = random_profile(rng, index, walk_blocks=walk_blocks)
        report = fuzz_iteration(profile, result,
                                differential=differential)
        result.iterations += 1
        if progress is not None:
            status = "ok" if report.ok else "FAIL"
            progress(
                f"[{index + 1}/{iterations}] {profile.name} "
                f"(seed={profile.seed}): {status}"
            )
    if families:
        report = family_metamorphic(rng, result,
                                    walk_blocks=min(walk_blocks, 100))
        result.iterations += 1
        if progress is not None:
            status = "ok" if report.ok else "FAIL"
            progress(f"[families] workload-family metamorphics: {status}")
    return result
