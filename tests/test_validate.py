"""The repro.validate subsystem: invariants, reference model, fuzzing.

Also the regression tests for the two PR-3 simulator/runner bug fixes
that the validator exists to catch:

* ``prefetches_issued`` was last-writer-wins when CLPT and EFetch were
  both enabled (each prefetcher *assigned* the shared field);
* a run cut off by ``max_cycles`` was indistinguishable from a finished
  one (no ``truncated`` flag), and a genuinely wedged pipeline would
  spin toward ``1 << 62`` instead of raising.
"""

import os
import subprocess
import sys
from dataclasses import replace
from functools import partial

import pytest

from repro import telemetry
from repro.cache import ArtifactCache
from repro.cpu import GOOGLE_TABLET, SimStats
from repro.cpu import simulate as _simulate
from repro.cpu.config import (
    config_critical_prefetch,
    config_efetch,
)
from repro.cpu.pipeline import PipelineDeadlockError
from repro.isa import Cond, Instruction, Opcode
from repro.trace import BasicBlock, Program, Trace, materialize
from repro.validate import (
    InvariantViolationError,
    RunValidator,
    ValidationReport,
    validation_enabled,
)
from repro.validate.invariants import (
    check_commit,
    check_fetch_stalls,
    check_timestamps,
)

#: These tests check the Python cycle loop itself (the batch engine's
#: reference), so they name it rather than take the default engine.
simulate = partial(_simulate, engine="inline")


def alu(dest, *srcs, imm=None):
    return Instruction(Opcode.ADD, dests=(dest,), srcs=srcs, imm=imm)


def small_trace(k: int = 24) -> Trace:
    program = Program([BasicBlock(0, [alu(i % 6, 7, imm=1)
                                      for i in range(8)])])
    return materialize(program, [0] * (k // 8))


class TestValidatedEdgeTraces:
    """The invariant checker must accept every degenerate-but-legal run."""

    def test_empty_trace(self):
        validator = RunValidator()
        stats = simulate(Trace([]), validator=validator)
        assert stats.instructions == 0
        assert len(validator.reports) == 1
        assert validator.reports[0].ok

    def test_single_instruction(self):
        program = Program([BasicBlock(0, [alu(0, 1)])])
        validator = RunValidator()
        stats = simulate(materialize(program, [0]), validator=validator)
        assert stats.instructions == 1
        assert not validator.violations

    def test_all_branch_trace(self):
        program = Program([
            BasicBlock(0, [Instruction(Opcode.B, cond=Cond.NE, target=1)]),
            BasicBlock(1, [Instruction(Opcode.B, cond=Cond.NE, target=0)]),
        ])
        trace = materialize(program, [0, 1] * 8)
        validator = RunValidator()
        stats = simulate(trace, validator=validator)
        assert stats.instructions == len(trace)
        assert not validator.violations

    def test_truncated_run_passes_truncation_aware_checks(self):
        # A max_cycles cutoff is legal: commit completeness must not fire.
        validator = RunValidator()
        stats = simulate(small_trace(64), max_cycles=4,
                         validator=validator)
        assert stats.truncated
        assert stats.instructions < 64
        assert not validator.violations


class TestCorruptedRunsRejected:
    """Hand-corrupted fixtures must be rejected, not waved through."""

    def _columns(self, n=4):
        base = list(range(n))
        return tuple([t + k for t in base] for k in range(7))

    def test_corrupted_timestamp_rejected(self):
        columns = self._columns()
        columns[2][1] = columns[1][1] - 3  # decode before fetch at pos 1
        report = ValidationReport("corrupt", "test")
        check_timestamps(report, columns)
        assert not report.ok
        violation = report.violations[0]
        assert violation.kind == "timestamp_monotonicity"
        assert violation.pos == 1
        # Flight-recorder-style context covers the offending neighborhood.
        assert 1 in violation.context["timeline"]["positions"]

    def test_clean_timestamps_accepted(self):
        report = ValidationReport()
        check_timestamps(report, self._columns())
        assert report.ok

    def test_uncommitted_positions_skipped(self):
        columns = self._columns()
        columns[2][1] = -5
        columns[-1][1] = -1  # pos 1 never committed: exempt
        report = ValidationReport()
        check_timestamps(report, columns)
        assert report.ok

    def test_fetch_stall_leak_rejected(self):
        stats = simulate(small_trace())
        stats.fetch.active -= 1  # drop a cycle from the classification
        report = ValidationReport()
        check_fetch_stalls(report, stats)
        assert any(v.kind == "fetch_stall_conservation"
                   for v in report.violations)

    def test_commit_shortfall_rejected(self):
        stats = simulate(small_trace())
        report = ValidationReport()
        check_commit(report, stats, len(small_trace()) + 1)
        assert any(v.kind == "commit_completeness"
                   for v in report.violations)

    def test_strict_validator_raises(self):
        validator = RunValidator(strict=True)
        stats = simulate(small_trace(), validator=None)
        stats.instructions += 1  # corrupt: commits exceed residency
        with pytest.raises(InvariantViolationError) as exc:
            validator.on_run(
                trace_name="t", config_name="c", stats=stats, n=24,
                head=[], fetch=[], decode=[], dispatch=[], issue=[],
                complete=[], commit=[],
            )
        assert not exc.value.report.ok


class TestViolationMetric:
    """Every violation a non-strict validator sees bumps
    ``repro_validate_violations_total{kind}`` once, and the count rides
    the telemetry snapshot channel like every other registry counter."""

    @pytest.fixture(autouse=True)
    def _fresh_telemetry(self):
        telemetry.reset()
        yield
        telemetry.reset()

    def _violating_run(self):
        class Capture(RunValidator):
            def on_run(self, **run):
                self.run = run
                return super().on_run(**run)

        capture = Capture(strict=False)
        simulate(small_trace(), validator=capture)
        assert capture.reports[0].ok
        run = dict(capture.run)
        decode = list(run["decode"])
        for pos in (3, 10):  # decode before fetch, twice
            decode[pos] = run["fetch"][pos] - 1
        run["decode"] = decode
        run["stats"].fetch.active -= 1  # one stall-conservation leak
        return run

    def _counts(self):
        return telemetry.metrics.REGISTRY.counters_flat(
            "repro_validate_violations_total")

    def test_counter_rises_once_per_violation_by_kind(self):
        report = RunValidator(strict=False).on_run(**self._violating_run())
        assert sorted(v.kind for v in report.violations) == [
            "fetch_stall_conservation", "timestamp_monotonicity",
            "timestamp_monotonicity"]
        expected = {
            "repro_validate_violations_total"
            "{kind=timestamp_monotonicity}": 2,
            "repro_validate_violations_total"
            "{kind=fetch_stall_conservation}": 1,
        }
        assert self._counts() == expected

        snap = telemetry.snapshot()
        telemetry.reset()
        assert self._counts() == {}
        telemetry.merge_snapshot(snap)
        assert self._counts() == expected
        telemetry.merge_snapshot(snap)
        assert self._counts() == {k: 2 * v for k, v in expected.items()}

    def test_clean_run_counts_nothing(self):
        validator = RunValidator(strict=False)
        simulate(small_trace(), validator=validator)
        assert validator.reports[0].ok
        assert self._counts() == {}


class TestEnvGating:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_VALIDATE", raising=False)
        assert not validation_enabled()
        sim_stats = simulate(small_trace())
        assert sim_stats.instructions == 24

    @pytest.mark.parametrize("value", ["0", "false", "off", "no", ""])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VALIDATE", value)
        assert not validation_enabled()

    def test_env_enables_strict_checking(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        assert validation_enabled()
        # A clean run validates silently (strict would raise otherwise).
        stats = simulate(small_trace())
        assert stats.instructions == 24

    def test_stats_bit_identical_with_validation(self, monkeypatch):
        monkeypatch.delenv("REPRO_VALIDATE", raising=False)
        plain = simulate(small_trace(), validate=False)
        checked = simulate(small_trace(), validate=True)
        assert plain.to_dict() == checked.to_dict()

    def test_explicit_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        from repro.cpu.pipeline import Simulator
        sim = Simulator(small_trace(), validate=False)
        assert sim.validator is None


class TestPrefetchCounterRegression:
    """CLPT and EFetch used to overwrite one shared counter."""

    def _dual_stats(self):
        from repro.experiments.runner import app_context
        ctx = app_context("Email", 120)
        trace = ctx.trace()
        config = replace(config_critical_prefetch(config_efetch()),
                         name="CLPT+EFetch")
        # CLPT only prefetches for *critical* loads: flag everything.
        return simulate(trace, config, validate=True,
                        critical_positions=set(range(len(trace))))

    def test_dual_prefetcher_counters_sum(self):
        stats = self._dual_stats()
        assert stats.clpt_prefetches_issued > 0
        assert stats.efetch_prefetches_issued > 0
        # The old code reported whichever prefetcher wrote last.
        assert stats.prefetches_issued == (stats.clpt_prefetches_issued
                                           + stats.efetch_prefetches_issued)

    def test_single_prefetcher_unchanged(self):
        from repro.experiments.runner import app_context
        ctx = app_context("Email", 120)
        stats = simulate(ctx.trace(), config_efetch(), validate=True)
        assert stats.clpt_prefetches_issued == 0
        assert stats.prefetches_issued == stats.efetch_prefetches_issued


class TestTruncationAndWatchdog:
    def test_truncated_flag_set_and_round_trips(self, tmp_path):
        stats = simulate(small_trace(64), max_cycles=4)
        assert stats.truncated
        assert SimStats.from_dict(stats.to_dict()).truncated
        cache = ArtifactCache(root=str(tmp_path), enabled=True)
        cache.store_stats("k" * 64, stats)
        loaded = cache.load_stats("k" * 64)
        assert loaded is not None and loaded.truncated
        assert loaded.to_dict() == stats.to_dict()

    def test_completed_run_not_truncated(self):
        stats = simulate(small_trace())
        assert not stats.truncated
        assert not SimStats.from_dict(stats.to_dict()).truncated

    def test_watchdog_raises_on_wedged_fetch(self):
        # 1 byte/cycle can never cover a >= 2-byte instruction: the fetch
        # stage is permanently stuck and nothing is in flight.
        config = replace(GOOGLE_TABLET, fetch_bytes_per_cycle=1)
        with pytest.raises(PipelineDeadlockError, match="no forward"):
            simulate(small_trace(), config)

    def test_max_cycles_beats_watchdog(self):
        # An explicit cutoff below the watchdog period truncates cleanly.
        config = replace(GOOGLE_TABLET, fetch_bytes_per_cycle=1)
        stats = simulate(small_trace(), config, max_cycles=64)
        assert stats.truncated
        assert stats.instructions == 0


class TestReferenceModel:
    def test_differential_on_catalog_app(self):
        from repro.experiments.runner import app_context
        from repro.validate.differential import differential_check
        ctx = app_context("Email", 120)
        report = differential_check(ctx.trace())
        assert report.ok, report.summary()

    def test_reference_is_upper_bound(self):
        from repro.experiments.runner import app_context
        from repro.validate.reference import reference_run
        ctx = app_context("Email", 120)
        ref = reference_run(ctx.trace())
        ooo = simulate(ctx.trace())
        assert ooo.cycles <= ref.cycles
        assert ref.instructions == len(ctx.trace())
        assert ref.fetched_bytes == ctx.trace().dynamic_bytes()

    def test_differential_catches_mispredict_drift(self):
        from repro.experiments.runner import app_context
        from repro.validate.differential import differential_check
        ctx = app_context("Email", 120)
        bad = simulate(ctx.trace())
        bad.branch_mispredicts += 1
        report = differential_check(ctx.trace(), ooo_stats=bad)
        assert any(v.kind == "diff_branch_mispredicts"
                   for v in report.violations)


class TestFuzzSmoke:
    def test_one_fuzz_round_clean(self):
        from repro.validate.fuzz import run_fuzz
        result = run_fuzz(1, seed=11, walk_blocks=60)
        assert result.iterations == 1
        assert result.simulations > 10
        assert result.properties_checked >= 10
        assert result.ok, [r.summary() for r in result.failures]

    def test_fuzz_after_an_early_scheme_lookup(self):
        """A process whose first scheme lookup happens before the fuzzer
        is imported still fuzzes every scheme (the runner once froze an
        empty scheme list in that order, and the round died on
        ``KeyError: 'critic'``)."""
        code = (
            "from repro.registry import SCHEME_RECIPES\n"
            "SCHEME_RECIPES.names()\n"
            "from repro.validate.fuzz import run_fuzz\n"
            "result = run_fuzz(1, seed=3, walk_blocks=40, "
            "differential=False)\n"
            "assert result.ok, [r.summary() for r in result.failures]\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, REPRO_CACHE="0",
                     PYTHONPATH=os.pathsep.join(p for p in sys.path if p)),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]

    def test_fuzz_is_deterministic(self):
        from repro.validate.fuzz import random_profile
        import random
        first = random_profile(random.Random(5), 0)
        second = random_profile(random.Random(5), 0)
        assert first == second


class TestEnvParsing:
    """Malformed env knobs degrade to defaults with a warning."""

    def test_malformed_jobs_warns_and_defaults(self, monkeypatch):
        from repro.experiments.runner import default_jobs
        import os
        monkeypatch.setenv("REPRO_JOBS", "auto")
        with pytest.warns(RuntimeWarning, match="REPRO_JOBS"):
            jobs = default_jobs()
        assert jobs == (os.cpu_count() or 1)

    def test_valid_jobs_still_parsed(self, monkeypatch):
        from repro.experiments.runner import default_jobs
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_jobs_clamped_to_one(self, monkeypatch):
        from repro.experiments.runner import default_jobs
        monkeypatch.setenv("REPRO_JOBS", "-4")
        assert default_jobs() == 1

    def test_malformed_walk_blocks_warns_and_defaults(self, monkeypatch):
        from repro.experiments.runner import _env_int
        monkeypatch.setenv("REPRO_WALK_BLOCKS", "many")
        with pytest.warns(RuntimeWarning, match="REPRO_WALK_BLOCKS"):
            assert _env_int("REPRO_WALK_BLOCKS", 700) == 700

    def test_unset_env_silent_default(self, monkeypatch):
        from repro.experiments.runner import _env_int
        monkeypatch.delenv("REPRO_WALK_BLOCKS", raising=False)
        assert _env_int("REPRO_WALK_BLOCKS", 700) == 700
