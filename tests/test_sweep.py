"""Tests for the declarative sweep engine and its CLI."""

import pytest

from repro.cache import reset_cache
from repro.experiments.runner import clear_cache
from repro.experiments.sweep import (
    SweepSpec,
    build_parser,
    list_components,
    main,
    run_sweep,
)
from repro.registry import RegistryError
from repro.telemetry.manifest import load_manifest, manifest_dir

WALK = 100


@pytest.fixture(autouse=True)
def _fresh_state(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reset_cache()
    clear_cache()
    yield
    clear_cache()
    reset_cache()


class TestSpecRoundtrip:
    def test_to_dict_emits_only_non_defaults(self):
        spec = SweepSpec(apps=("Music",))
        assert spec.to_dict() == {"apps": ["Music"]}
        spec = SweepSpec(apps=("Music",), schemes=("baseline", "critic"),
                         walk_blocks=WALK, engine="batch")
        assert spec.to_dict() == {
            "apps": ["Music"], "schemes": ["baseline", "critic"],
            "walk_blocks": WALK, "engine": "batch",
        }

    def test_from_dict_roundtrips(self):
        spec = SweepSpec(apps=("Music", "Email"),
                         schemes=("baseline", "critic"),
                         configs=("google-tablet",),
                         prefetchers=("critical-nextline",),
                         icache_policy="trrip", walk_blocks=WALK)
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_accepts_comma_separated_axes(self):
        spec = SweepSpec.from_dict(
            {"apps": "Music, Email", "schemes": "baseline,critic"})
        assert spec.apps == ("Music", "Email")
        assert spec.schemes == ("baseline", "critic")

    def test_from_dict_rejects_unknown_fields_by_name(self):
        with pytest.raises(ValueError, match="walk_block"):
            SweepSpec.from_dict({"apps": ["Music"], "walk_block": 60})

    def test_from_dict_rejects_empty_apps(self):
        with pytest.raises(ValueError, match="apps"):
            SweepSpec.from_dict({"apps": []})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            SweepSpec.from_dict(["Music"])


class TestSweepSpec:
    def test_validate_unknown_scheme_suggests(self):
        spec = SweepSpec(apps=("Music",), schemes=("crtic",))
        with pytest.raises(RegistryError, match="critic"):
            spec.validate()

    def test_validate_unknown_config(self):
        spec = SweepSpec(apps=("Music",), configs=("google-tablte",))
        with pytest.raises(RegistryError, match="google-tablet"):
            spec.validate()

    def test_validate_unknown_prefetcher(self):
        spec = SweepSpec(apps=("Music",), prefetchers=("clptt",))
        with pytest.raises(RegistryError, match="clpt"):
            spec.validate()

    def test_validate_unknown_policy(self):
        spec = SweepSpec(apps=("Music",), icache_policy="trip")
        with pytest.raises(RegistryError, match="trrip"):
            spec.validate()

    def test_validate_unknown_executor(self):
        spec = SweepSpec(apps=("Music",), executor="flete")
        with pytest.raises(RegistryError, match="fleet"):
            spec.validate()

    def test_resolve_plain_names(self):
        spec = SweepSpec(apps=("Music",),
                         configs=("google-tablet", "trrip-icache"))
        names = [c.name for c in spec.resolve_configs()]
        assert names == ["google-tablet", "trrip-icache"]

    def test_resolve_with_overrides_derives_names(self):
        spec = SweepSpec(
            apps=("Music",),
            prefetchers=("critical-nextline",),
            icache_policy="trrip",
        )
        (config,) = spec.resolve_configs()
        assert config.name == "google-tablet+pf=critical-nextline+i$=trrip"
        assert config.memory.icache_policy == "trrip"
        assert config.active_prefetchers() == ("critical-nextline",)


class TestRunSweep:
    def test_grid_table_and_manifest(self):
        spec = SweepSpec(apps=("Music", "Email"),
                         schemes=("baseline", "critic"),
                         walk_blocks=WALK, jobs=1)
        result = run_sweep(spec)

        baseline = result.cell("Music", "baseline", "google-tablet")
        critic = result.cell("Music", "critic", "google-tablet")
        assert baseline.cycles > 0
        assert critic.cycles <= baseline.cycles

        table = result.comparison_table()
        assert "critic:speedup" in table
        assert "GEOMEAN" in table

        manifest = load_manifest(str(manifest_dir() / "last_run.json"))
        assert manifest["kind"] == "sweep"
        assert manifest["apps"] == ["Email", "Music"]  # sorted
        components = manifest["components"]["google-tablet"]
        assert components["icache_policy"] == "lru@1"

    def test_component_override_reaches_manifest(self):
        spec = SweepSpec(apps=("Music",), schemes=("baseline",),
                         prefetchers=("critical-nextline",),
                         walk_blocks=WALK, jobs=1)
        result = run_sweep(spec)
        name = result.config_names()[0]
        manifest = load_manifest(str(manifest_dir() / "last_run.json"))
        components = manifest["components"][name]
        assert components["prefetchers"] == ["critical-nextline@1"]

    def test_single_scheme_table_has_no_speedup_column(self):
        spec = SweepSpec(apps=("Music",), schemes=("baseline",),
                         walk_blocks=WALK, jobs=1)
        table = run_sweep(spec).comparison_table()
        assert "baseline:cycles" in table
        assert "speedup" not in table

    def test_executor_provenance_reaches_manifest(self):
        spec = SweepSpec(apps=("Music", "Email"), schemes=("baseline",),
                         walk_blocks=WALK, jobs=2, executor="fleet")
        result = run_sweep(spec)
        assert result.cell("Music", "baseline", "google-tablet").cycles > 0
        manifest = load_manifest(str(manifest_dir() / "last_run.json"))
        dispatch = manifest["dispatch"]
        assert dispatch["executor"] == "fleet@1"
        assert dispatch["tasks"] == 2
        assert dispatch["workers"] == 2
        # Executor identity is provenance, not invocation: the same spec
        # run inline must produce the identical config_hash.
        clear_cache()
        inline = run_sweep(SweepSpec(
            apps=("Music", "Email"), schemes=("baseline",),
            walk_blocks=WALK, jobs=1, executor="inline",
        ))
        assert inline.grid == result.grid
        warm = load_manifest(str(manifest_dir() / "last_run.json"))
        assert warm["config_hash"] == manifest["config_hash"]

    def test_config_hash_is_the_invocation_key(self):
        spec = SweepSpec(apps=("Music",), schemes=("baseline",),
                         walk_blocks=WALK, jobs=1)
        run_sweep(spec)
        manifest = load_manifest(str(manifest_dir() / "last_run.json"))
        from repro.cache import artifact_key
        invocation = {
            key: manifest[key]
            for key in ("apps", "schemes", "configs", "walk_blocks",
                        "seeds", "components")
        }
        assert manifest["config_hash"] \
            == artifact_key("run_manifest", **invocation)

    def test_warm_sweep_has_no_dispatch_record(self):
        spec = SweepSpec(apps=("Music",), schemes=("baseline",),
                         walk_blocks=WALK, jobs=1)
        run_sweep(spec)
        run_sweep(spec)  # every cell memoized: nothing dispatched
        manifest = load_manifest(str(manifest_dir() / "last_run.json"))
        assert "dispatch" not in manifest


class TestCli:
    def test_csv_parsing(self):
        args = build_parser().parse_args(
            ["--apps", "Music, Email", "--schemes", "baseline"])
        assert args.apps == ("Music", "Email")
        assert args.schemes == ("baseline",)

    def test_executor_flag_parsed(self):
        args = build_parser().parse_args(
            ["--apps", "Music", "--executor", "fleet"])
        assert args.executor == "fleet"
        assert build_parser().parse_args(["--apps", "Music"]) \
            .executor is None

    def test_unknown_executor_exits_2(self, capsys):
        code = main(["--apps", "Music", "--executor", "flete",
                     "--walk-blocks", str(WALK)])
        assert code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "fleet" in err

    def test_list_components_mentions_every_registry(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for needle in ("google-tablet@1", "critic@1", "two-level@1",
                       "trrip@1", "critical-nextline@1", "fleet@1",
                       "batch@1"):
            assert needle in out
        # list_components() is what --list prints
        assert list_components() in out

    def test_missing_apps_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "--apps" in capsys.readouterr().err

    def test_unknown_component_exits_2(self, capsys):
        code = main(["--apps", "Music", "--schemes", "crtic",
                     "--walk-blocks", str(WALK)])
        assert code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "critic" in err

    def test_end_to_end_prints_table(self, capsys):
        code = main(["--apps", "Music", "--schemes", "baseline,critic",
                     "--walk-blocks", str(WALK), "--jobs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "critic:speedup" in out
