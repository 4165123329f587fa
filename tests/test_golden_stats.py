"""Golden SimStats: the registry refactor must be bit-identical.

Every scheme x Fig-11 hardware-config cell for one small app is pinned in
``tests/data/golden_stats.json``.  The snapshot was generated *before* the
component-registry refactor (PR 4), so these tests prove that moving the
schemes, hardware variants, branch predictor, i-cache replacement policy,
and prefetchers onto ``repro.registry`` changed no simulated number —
``SimStats.to_dict()`` must match the pinned cell exactly, key for key.

The scheme and config name lists are pinned *here*, not imported from the
registries, so a refactor that silently drops a variant fails loudly
instead of shrinking the grid.

The grid is checked once per simulation engine, each from an empty
cache and memo: ``test_scheme_cells_bit_identical[<scheme>]`` runs the
inline reference, ``[<scheme>-batch]`` the batch engine (seven configs
per scheme in one kernel batch).

Regenerate (only for an intentional, CHANGES.md-documented semantic
change)::

    PYTHONPATH=src python tests/test_golden_stats.py --regen
"""

import json
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_stats.json"

#: One small mobile app at a small scale keeps the 56-cell grid fast.
APP = "Music"
WALK_BLOCKS = 140

#: Pinned pre-refactor grid: all eight schemes...
GOLDEN_SCHEMES = (
    "baseline", "hoist", "critic", "critic_ideal", "branch",
    "opp16", "compress", "opp16_critic",
)
#: ... times Table I baseline + the six Fig-11 hardware variants.
GOLDEN_CONFIGS = (
    "google-tablet", "2xFD", "4xI$", "EFetch", "PerfectBr",
    "BackendPrio", "AllHW",
)


def _config_by_name(name: str):
    from repro.cpu.config import GOOGLE_TABLET, HARDWARE_VARIANTS
    if name == "google-tablet":
        return GOOGLE_TABLET
    return HARDWARE_VARIANTS[name]()


ENGINES = ("inline", "batch")


def compute_cells(engine="inline"):
    """Simulate the whole pinned grid; returns {scheme|config: to_dict}."""
    from repro.experiments.runner import run_apps

    grid = run_apps([APP], GOLDEN_SCHEMES, jobs=1,
                    configs=[_config_by_name(c) for c in GOLDEN_CONFIGS],
                    walk_blocks=WALK_BLOCKS, engine=engine)[APP]
    return {
        f"{scheme}|{config_name}": grid[(scheme, config_name)].to_dict()
        for scheme in GOLDEN_SCHEMES for config_name in GOLDEN_CONFIGS
    }


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing; regenerate with "
        "PYTHONPATH=src python tests/test_golden_stats.py --regen"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    """``engine -> cells``, each engine run once from an empty cache and
    memo (engines are kept out of cache keys, so a shared cache would
    hand the second engine the first one's stats)."""
    from repro.cache import reset_cache
    from repro.experiments.runner import clear_cache

    cells = {}

    def for_engine(engine):
        if engine not in cells:
            with pytest.MonkeyPatch.context() as env:
                env.setenv("REPRO_CACHE_DIR",
                           str(tmp_path_factory.mktemp(engine)))
                reset_cache()
                clear_cache()
                cells[engine] = compute_cells(engine)
            reset_cache()
            clear_cache()
        return cells[engine]

    return for_engine


def test_golden_grid_is_complete(golden):
    expected = {
        f"{scheme}|{config}"
        for scheme in GOLDEN_SCHEMES for config in GOLDEN_CONFIGS
    }
    assert set(golden["cells"]) == expected


def test_golden_metadata(golden):
    assert golden["app"] == APP
    assert golden["walk_blocks"] == WALK_BLOCKS


@pytest.mark.parametrize("scheme,engine", [
    pytest.param(scheme, engine,
                 id=scheme if engine == "inline" else f"{scheme}-{engine}")
    for engine in ENGINES for scheme in GOLDEN_SCHEMES
])
def test_scheme_cells_bit_identical(scheme, engine, golden, computed):
    cells = computed(engine)
    for config_name in GOLDEN_CONFIGS:
        key = f"{scheme}|{config_name}"
        assert cells[key] == golden["cells"][key], (
            f"SimStats drift in cell {key} under the {engine} engine: "
            f"not bit-identical (regen only for documented semantic "
            f"changes)"
        )


def _regen():
    import conftest  # noqa: F401  (throwaway cache dir)
    cells = compute_cells()
    payload = {
        "app": APP,
        "walk_blocks": WALK_BLOCKS,
        "cells": cells,
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {len(cells)} cells to {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        sys.path.insert(0, str(Path(__file__).parent))
        _regen()
    else:
        print(__doc__)
