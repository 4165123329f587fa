"""Tests for the workload pattern library (repro.workloads.patterns).

Covers the eighth registry itself, per-family determinism and structure,
the trace-replay round trip (direct, via the artifact cache, and under
both simulation engines including the batch fallback path), and the
per-program trace memoization fix in ``Workload``.
"""

import dataclasses

import pytest

from repro.cache import artifact_key, get_cache, reset_cache
from repro.cpu import GOOGLE_TABLET, simulate
from repro.cpu.batch import last_batch_report, simulate_batch
from repro.cpu.config import config_critical_prefetch
from repro.experiments.runner import app_context, clear_cache
from repro.registry import WORKLOAD_FAMILIES, RegistryError
from repro.workloads import (
    build_workload,
    generate,
    get_profile,
    record_replay_source,
    replay_source_key,
    replay_workload,
)

WALK = 120

NEW_FAMILIES = ("phased", "bursty", "zipfian-footprint", "netbound",
                "vecmobile")


@pytest.fixture(autouse=True)
def _fresh_state(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reset_cache()
    clear_cache()
    yield
    clear_cache()
    reset_cache()


def small_profile(name="Email", walk_blocks=WALK):
    base = get_profile(name)
    return base.scaled(walk_blocks / base.walk_blocks)


class TestRegistry:
    def test_all_families_registered(self):
        names = WORKLOAD_FAMILIES.names()
        assert "default" in names
        assert "trace-replay" in names
        for family in NEW_FAMILIES:
            assert family in names
        assert len(names) >= 7

    def test_identities_are_versioned(self):
        for name in WORKLOAD_FAMILIES.names():
            assert WORKLOAD_FAMILIES.identity(name) == f"{name}@1"

    def test_did_you_mean_suggests_for_head_token_typo(self):
        with pytest.raises(RegistryError, match="zipfian-footprint"):
            WORKLOAD_FAMILIES.entry("zipfain")
        with pytest.raises(RegistryError, match="did you mean"):
            build_workload("zipfain", small_profile())

    def test_build_workload_unknown_family_raises(self):
        with pytest.raises((KeyError, ValueError)):
            build_workload("no-such-family", small_profile())


class TestFamilies:
    def test_default_family_matches_generate_bitwise(self):
        prof = small_profile()
        direct = generate(prof)
        via_registry = build_workload("default", prof)
        assert via_registry.walk == direct.walk
        assert [i.signature() for i in via_registry.program] \
            == [i.signature() for i in direct.program]
        assert list(via_registry.trace()) == list(direct.trace())

    @pytest.mark.parametrize("family", NEW_FAMILIES)
    def test_family_is_deterministic(self, family):
        prof = small_profile()
        a = build_workload(family, prof)
        b = build_workload(family, prof)
        assert a.walk == b.walk
        assert [i.signature() for i in a.program] \
            == [i.signature() for i in b.program]
        assert list(a.trace()) == list(b.trace())
        assert simulate(a.trace(), GOOGLE_TABLET) \
            == simulate(b.trace(), GOOGLE_TABLET)

    @pytest.mark.parametrize("family", NEW_FAMILIES)
    def test_family_differs_from_default(self, family):
        prof = small_profile()
        default = simulate(build_workload("default", prof).trace(),
                           GOOGLE_TABLET)
        shaped = simulate(build_workload(family, prof).trace(),
                          GOOGLE_TABLET)
        assert (shaped.instructions, shaped.cycles) \
            != (default.instructions, default.cycles)

    @pytest.mark.parametrize("family", NEW_FAMILIES)
    def test_family_walk_and_structure_valid(self, family):
        wl = build_workload(family, small_profile())
        block_ids = {b.block_id for b in wl.program.blocks}
        assert set(wl.walk) <= block_ids
        assert len(wl.trace()) > 500
        for entry in wl.trace():
            assert (entry.mem_addr is not None) == entry.instr.is_memory
            if entry.instr.is_branch:
                assert entry.taken is not None

    @pytest.mark.parametrize("family", NEW_FAMILIES)
    def test_family_compiles_under_critic_scheme(self, family):
        ctx = app_context("Email", WALK, family)
        stats = ctx.stats("critic", GOOGLE_TABLET)
        assert stats.cycles > 0

    def test_seed_changes_family_output(self):
        prof = small_profile()
        reseeded = dataclasses.replace(prof, seed=prof.seed + 17)
        a = build_workload("bursty", prof).trace()
        b = build_workload("bursty", reseeded).trace()
        assert list(a) != list(b)


class TestTraceReplay:
    def test_round_trip_preserves_trace_and_stats(self):
        prof = small_profile("Facebook", 150)
        trace = generate(prof).trace()
        replayed = replay_workload(prof, trace)
        assert list(replayed.trace()) == list(trace)
        assert simulate(replayed.trace(), GOOGLE_TABLET) \
            == simulate(trace, GOOGLE_TABLET)

    def test_rematerialized_replay_matches_recording(self):
        """The reconstructed program + walk + memory reproduce the
        recording's uid/taken/address streams from scratch (pcs differ:
        the replay program has its own layout)."""
        prof = small_profile("Facebook", 150)
        trace = generate(prof).trace()
        replayed = replay_workload(prof, trace)
        replayed._trace_memo.clear()
        again = replayed.trace()
        assert [(e.uid, e.taken, e.mem_addr) for e in again] \
            == [(e.uid, e.taken, e.mem_addr) for e in trace]

    def test_family_builds_from_cached_artifact(self):
        prof = small_profile()
        trace = generate(prof).trace()
        record_replay_source(prof, trace)
        assert get_cache().load_trace(replay_source_key(prof)) is not None
        replayed = build_workload("trace-replay", prof)
        assert list(replayed.trace()) == list(trace)

    def test_family_self_primes_cold_cache(self):
        prof = small_profile()
        replayed = build_workload("trace-replay", prof)
        assert list(replayed.trace()) == list(generate(prof).trace())
        # ... and leaves the recording behind for the next build.
        assert get_cache().load_trace(replay_source_key(prof)) is not None

    def test_replay_source_key_is_runner_baseline_key(self):
        """The replay source key equals the runner's default-family
        baseline trace key, so any previously swept app is replayable."""
        ctx = app_context("Email", WALK)
        ctx.trace()
        prof = ctx.app_profile
        assert get_cache().load_trace(replay_source_key(prof)) is not None

    def test_replay_of_shaped_family_round_trips(self):
        prof = small_profile()
        source = build_workload("netbound", prof).trace()
        replayed = replay_workload(prof, source)
        assert list(replayed.trace()) == list(source)

    def test_replay_identical_under_both_engines(self):
        """Inline vs batch over the replayed trace, including the
        deterministic batch fallback for a non-vectorizable CLPT cell
        (reason: load-observing prefetcher)."""
        prof = small_profile()
        trace = generate(prof).trace()
        replayed = build_workload("trace-replay", prof)
        clpt = config_critical_prefetch()
        batch = simulate_batch(replayed.trace(), [GOOGLE_TABLET, clpt])
        report = last_batch_report()
        assert report is not None
        assert ("CritLoadPrefetch", "load-observing prefetcher") \
            in report["fallbacks"]
        assert batch[0] == simulate(trace, GOOGLE_TABLET, engine="inline")
        assert batch[1] == simulate(trace, clpt, engine="inline")

    def test_replay_compiles_under_critic_scheme(self):
        ctx = app_context("Email", WALK, "trace-replay")
        stats = ctx.stats("critic", GOOGLE_TABLET)
        assert stats.cycles > 0


class TestRunnerIntegration:
    def test_app_context_memo_is_per_family(self):
        default = app_context("Email", WALK)
        bursty = app_context("Email", WALK, "bursty")
        assert default is not bursty
        assert app_context("Email", WALK, "bursty") is bursty
        assert default.workload_family == "default"
        assert bursty.workload_family == "bursty"

    def test_default_family_cache_keys_unchanged(self):
        """The default family adds nothing to artifact keys — warm
        caches and the golden gate stay byte-identical."""
        ctx = app_context("Email", WALK)
        assert ctx._family_key_params() == {}
        legacy = artifact_key("trace", profile=ctx.app_profile,
                              scheme="baseline")
        assert legacy == artifact_key(
            "trace", profile=ctx.app_profile, scheme="baseline",
            **ctx._family_key_params())

    def test_non_default_family_changes_stats_keys(self):
        default = app_context("Email", WALK)
        shaped = app_context("Email", WALK, "phased")
        assert shaped._family_key_params() \
            == {"workload_family": "phased@1"}
        assert default._stats_key("baseline", GOOGLE_TABLET, 5, 1.0) \
            != shaped._stats_key("baseline", GOOGLE_TABLET, 5, 1.0)

    def test_families_share_a_cache_without_colliding(self):
        """Regression: the critic-profile artifact key must carry the
        family, or the second family compiles against the first one's
        hot-block ids (KeyError deep in the critic pass)."""
        first = app_context("Email", WALK, "bursty") \
            .stats("critic", GOOGLE_TABLET)
        clear_cache()  # fresh contexts, same (warm) artifact cache
        second = app_context("Email", WALK, "netbound") \
            .stats("critic", GOOGLE_TABLET)
        assert first != second
        clear_cache()
        assert app_context("Email", WALK, "bursty") \
            .stats("critic", GOOGLE_TABLET) == first

    def test_stats_bit_identical_across_runs(self):
        first = app_context("Email", WALK, "zipfian-footprint") \
            .stats("baseline", GOOGLE_TABLET)
        clear_cache()
        reset_cache()
        second = app_context("Email", WALK, "zipfian-footprint") \
            .stats("baseline", GOOGLE_TABLET)
        assert first == second


class TestTraceMemoRegression:
    def test_trace_for_mutated_copy_is_not_stale(self):
        """Regression: ``trace_for`` on a mutated program copy must
        re-materialize, never serve the original's cached trace."""
        wl = generate(small_profile())
        original = wl.trace()
        clone = wl.program.copy()
        # Mutate the clone: drop a leading non-branch instruction from a
        # block the walk actually visits, so the stream must change.
        for block_id in wl.walk:
            block = clone.block(block_id)
            if len(block.instructions) > 2 \
                    and not block.instructions[0].is_branch:
                block.instructions.pop(0)
                break
        mutated = wl.trace_for(clone)
        assert [e.uid for e in mutated] != [e.uid for e in original]
        # The original program's memo entry is untouched.
        assert list(wl.trace()) == list(original)

    def test_trace_for_memoizes_per_program(self):
        wl = generate(small_profile())
        clone = wl.program.copy()
        first = wl.trace_for(clone)
        assert wl.trace_for(clone) is first
        assert wl.trace_for(wl.program) is wl.trace()

    def test_adopt_trace_only_fills_empty_memo(self):
        wl = generate(small_profile())
        foreign = generate(small_profile("Facebook"))
        own = wl.trace()
        wl.adopt_trace(foreign.trace())
        assert wl.trace() is own
