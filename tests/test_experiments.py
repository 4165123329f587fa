"""Integration tests for the experiment harness (small scale)."""

import pytest

from repro.experiments import (
    app_context,
    fig01,
    fig05,
    fig10,
    format_table,
    geometric_mean,
)
from repro.registry import SCHEME_RECIPES

WALK = 120  # tiny: these are wiring tests, not reproductions


class TestAppContext:
    def test_cached_identity(self):
        a = app_context("Music", WALK)
        b = app_context("Music", WALK)
        assert a is b

    def test_all_schemes_produce_traces(self):
        ctx = app_context("Music", WALK)
        base_len = len(ctx.scheme_trace("baseline"))
        for scheme in SCHEME_RECIPES.names():
            trace = ctx.scheme_trace(scheme)
            assert len(trace) >= base_len  # transforms only add CDPs

    def test_unknown_scheme_rejected(self):
        ctx = app_context("Music", WALK)
        with pytest.raises(ValueError, match="unknown scheme"):
            ctx.scheme_trace("quantum")

    def test_stats_cached(self):
        ctx = app_context("Music", WALK)
        assert ctx.stats("baseline") is ctx.stats("baseline")

    def test_profile_reused(self):
        ctx = app_context("Music", WALK)
        assert ctx.critic_profile() is ctx.critic_profile()


class TestHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0

    def test_format_table_aligns(self):
        text = format_table(["a", "bee"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l.rstrip()) for l in lines[2:])) >= 1


class TestFigureWiring:
    def test_fig01_small(self):
        result = fig01.run(per_group=1, walk_blocks=WALK)
        assert len(result.rows) == 3
        text = fig01.format_result(result)
        assert "Fig 1a" in text and "Fig 1b" in text

    def test_fig05_small(self):
        result = fig05.run(per_group=1, walk_blocks=WALK, mobile_apps=1)
        assert len(result.chain_stats) == 3
        assert len(result.coverage) == 1
        assert "Fig 5a" in fig05.format_result(result)

    def test_fig10_small(self):
        result = fig10.run(apps=2, walk_blocks=WALK)
        assert len(result.rows) == 2
        text = fig10.format_result(result)
        assert "MEAN" in text
