"""Tests for the synthetic workload generator and catalog."""

import pytest

from repro.cache import reset_cache
from repro.cpu import GOOGLE_TABLET
from repro.dfg import Dfg, critical_fraction, gap_histogram
from repro.isa import Opcode
from repro.experiments.runner import app_context, clear_cache
from repro.trace import compute_producers
from repro.workloads import (
    ALL_PROFILES,
    MOBILE,
    SPEC_FLOAT,
    SPEC_INT,
    WorkloadProfile,
    generate,
    get_profile,
    mobile_app_names,
    profiles_in_group,
    spec_float_names,
    spec_int_names,
    table2_rows,
)


class TestCatalog:
    def test_counts(self):
        assert len(mobile_app_names()) == 10
        assert len(spec_int_names()) == 8
        assert len(spec_float_names()) == 8
        assert len(table2_rows()) == 26

    def test_paper_app_list(self):
        assert set(mobile_app_names()) == {
            "Acrobat", "Angrybirds", "Browser", "Facebook", "Email",
            "Maps", "Music", "Office", "Photogallery", "Youtube",
        }

    def test_paper_spec_lists(self):
        assert "mcf" in spec_int_names()
        assert "h264ref" in spec_int_names()
        assert "lbm" in spec_float_names()
        assert "leslie3d" in spec_float_names()

    def test_groups_partition(self):
        groups = [profiles_in_group(g)
                  for g in (MOBILE, SPEC_INT, SPEC_FLOAT)]
        total = sum(len(g) for g in groups)
        assert total == len(ALL_PROFILES)

    def test_get_profile_unknown(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_profile("DoomEternal")


class TestProfileValidation:
    def test_fraction_bounds_checked(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", group=MOBILE, chain_motif_prob=1.5)

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", group="server")

    def test_scaled_changes_walk(self):
        profile = get_profile("Acrobat")
        assert profile.scaled(0.5).walk_blocks \
            == max(50, profile.walk_blocks // 2)

    def test_with_seed(self):
        profile = get_profile("Acrobat")
        assert profile.with_seed(99).seed == 99


class TestGeneration:
    @pytest.fixture(scope="class")
    def mobile_wl(self):
        return generate(get_profile("Facebook"), walk_blocks=250)

    @pytest.fixture(scope="class")
    def spec_wl(self):
        return generate(get_profile("bzip2"), walk_blocks=600)

    def test_deterministic(self):
        a = generate(get_profile("Email"), walk_blocks=120)
        b = generate(get_profile("Email"), walk_blocks=120)
        assert a.walk == b.walk
        assert [i.signature() for i in a.program] \
            == [i.signature() for i in b.program]
        assert [e.pc for e in a.trace()] == [e.pc for e in b.trace()]

    def test_walk_references_valid_blocks(self, mobile_wl):
        block_ids = {b.block_id for b in mobile_wl.program.blocks}
        assert set(mobile_wl.walk) <= block_ids

    def test_trace_nonempty(self, mobile_wl):
        assert len(mobile_wl.trace()) > 1000

    def test_memory_instructions_have_addresses(self, mobile_wl):
        for entry in mobile_wl.trace():
            assert (entry.mem_addr is not None) == entry.instr.is_memory

    def test_branches_have_outcomes(self, mobile_wl):
        for entry in mobile_wl.trace():
            if entry.instr.is_branch:
                assert entry.taken is not None

    def test_mobile_has_more_criticals_than_spec(self, mobile_wl, spec_wl):
        mobile_frac = critical_fraction(Dfg(mobile_wl.trace()).fanouts)
        spec_frac = critical_fraction(Dfg(spec_wl.trace()).fanouts)
        assert mobile_frac > 0.01
        assert mobile_frac > spec_frac * 0.8

    def test_mobile_gap_structure(self, mobile_wl):
        hist = gap_histogram(Dfg(mobile_wl.trace()))
        mass_1_to_5 = sum(hist[str(g)] for g in range(1, 6))
        assert mass_1_to_5 > 0.3

    def test_spec_gap_structure(self, spec_wl):
        hist = gap_histogram(Dfg(spec_wl.trace()))
        assert hist["none"] + hist["0"] > 0.8

    def test_chain_registers_form_chains(self, mobile_wl):
        """At least some generated chains are detectable as ICs."""
        from repro.dfg import find_critics
        dfg = Dfg(mobile_wl.trace().window(0, 4000))
        assert len(find_critics(dfg)) > 0

    def test_trace_for_transformed_program(self, mobile_wl):
        clone = mobile_wl.program.copy()
        trace = mobile_wl.trace_for(clone)
        assert len(trace) == len(mobile_wl.trace())

    def test_functions_have_entries_and_returns(self, mobile_wl):
        for info in mobile_wl.functions:
            entry = mobile_wl.program.block(info.entry_block)
            ret = mobile_wl.program.block(info.ret_block)
            assert len(entry) > 0
            assert ret.instructions[-1].opcode is Opcode.BX

    def test_bl_targets_are_callee_entries(self, mobile_wl):
        entries = {f.entry_block for f in mobile_wl.functions}
        for instr in mobile_wl.program:
            if instr.opcode is Opcode.BL:
                assert instr.target in entries


def small_profile(name="Email", walk_blocks=120):
    base = get_profile(name)
    return base.scaled(walk_blocks / base.walk_blocks)


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


def test_stats_bit_identical_across_runs(tmp_path, monkeypatch):
    """A cold run, a warm re-run on the cache it filled, and a cold run
    in a second cache all agree bit for bit, each in fresh contexts:
    generation draws every random number from the profile's seed."""
    runs = []
    for cache_dir in ("a", "a", "b"):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / cache_dir))
        reset_cache()
        clear_cache()
        runs.append(app_context("Email", 120).stats("baseline",
                                                    GOOGLE_TABLET))
    clear_cache()
    reset_cache()
    assert runs[0] == runs[1] == runs[2]
