"""Compiler-scheme recipes (the :data:`repro.registry.SCHEME_RECIPES`
built-ins).

Each recipe builds the compiler pass pipeline for one evaluated scheme
from an :class:`~repro.experiments.runner.AppContext` — the paper's eight
schemes are registered here in canonical presentation order (baseline,
Hoist, CritIC, CritIC.Ideal, Approach-1 branch switching, OPP16,
Compress, OPP16+CritIC), and ``SCHEME_RECIPES.names()`` lists them in
that registration order.  A plugin that registers a ninth recipe
automatically shows up in ``scheme_trace``, the sweep engine, and the
fuzzer's scheme loop, which read the registry at call time.

Recipes only touch the context surfaces the :class:`SchemeRecipe`
protocol documents (``workload``, ``critic_profile``); pulling the
CritIC profile lazily means profile-free schemes (OPP16, Compress) never
pay for profiling.
"""

from __future__ import annotations

from repro.compiler import (
    CompressPass,
    CriticPass,
    Opp16Pass,
    region_oracle,
)
from repro.registry import SCHEME_RECIPES


def _critic_records(ctx, max_length: int, profiled_fraction: float):
    profile = ctx.critic_profile(profiled_fraction=profiled_fraction)
    return profile.select_for_compiler(max_length=max_length)


@SCHEME_RECIPES.register("baseline", version=1)
def baseline(ctx, max_length, profiled_fraction):
    """Unmodified A32 program: the empty pass pipeline."""
    return []


@SCHEME_RECIPES.register("hoist", version=1)
def hoist(ctx, max_length, profiled_fraction):
    """Chain hoisting only (reorder, no re-encoding)."""
    return [CriticPass(_critic_records(ctx, max_length, profiled_fraction),
                       mode="hoist",
                       may_alias=region_oracle(ctx.workload.memory))]


@SCHEME_RECIPES.register("critic", version=1)
def critic(ctx, max_length, profiled_fraction):
    """The deployable CritIC scheme: hoist + CDP-bracketed Thumb."""
    return [CriticPass(_critic_records(ctx, max_length, profiled_fraction),
                       mode="cdp",
                       may_alias=region_oracle(ctx.workload.memory))]


@SCHEME_RECIPES.register("critic_ideal", version=1)
def critic_ideal(ctx, max_length, profiled_fraction):
    """CritIC.Ideal upper bound: no length/encodability constraints."""
    ideal_profile = ctx.critic_profile(max_length=20)
    ideal_records = ideal_profile.select_for_compiler(
        max_length=None, require_thumb=False,
    )
    return [CriticPass(ideal_records, mode="cdp", ideal=True,
                       may_alias=region_oracle(ctx.workload.memory))]


@SCHEME_RECIPES.register("branch", version=1)
def branch(ctx, max_length, profiled_fraction):
    """Approach-1 comparison: mode switching via branch pairs."""
    return [CriticPass(_critic_records(ctx, max_length, profiled_fraction),
                       mode="branch",
                       may_alias=region_oracle(ctx.workload.memory))]


@SCHEME_RECIPES.register("opp16", version=1)
def opp16(ctx, max_length, profiled_fraction):
    """OPP16: whole-function opportunistic Thumb re-encoding."""
    return [Opp16Pass()]


@SCHEME_RECIPES.register("compress", version=1)
def compress(ctx, max_length, profiled_fraction):
    """Whole-program Thumb compression (max density baseline)."""
    return [CompressPass()]


@SCHEME_RECIPES.register("opp16_critic", version=1)
def opp16_critic(ctx, max_length, profiled_fraction):
    """CritIC followed by OPP16 over the remainder."""
    return [CriticPass(_critic_records(ctx, max_length, profiled_fraction),
                       mode="cdp",
                       may_alias=region_oracle(ctx.workload.memory)),
            Opp16Pass()]
