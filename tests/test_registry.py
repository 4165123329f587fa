"""Unit tests for the component registry core and the built-in registries."""

import sys
import threading
import types

import pytest

from repro.cpu import GOOGLE_TABLET
from repro.registry import (
    BRANCH_PREDICTORS,
    HARDWARE_CONFIGS,
    ICACHE_POLICIES,
    PREFETCHERS,
    SCHEME_RECIPES,
    component_identity,
)
from repro.registry.core import Registry, RegistryError


_SLOW_PROVIDER = '''
import time
from slow_registry_home import REG
time.sleep(0.2)
assert "early" not in REG  # a provider may look its own registry up
REG.register("alpha", object())
'''


class TestRegistryCore:
    def test_concurrent_first_lookups_wait_for_the_providers(
            self, tmp_path, monkeypatch):
        (tmp_path / "slow_registry_provider.py").write_text(_SLOW_PROVIDER)
        monkeypatch.syspath_prepend(str(tmp_path))
        home = types.ModuleType("slow_registry_home")
        home.REG = Registry("widget",
                            providers=("slow_registry_provider",))
        monkeypatch.setitem(sys.modules, "slow_registry_home", home)
        monkeypatch.delitem(sys.modules, "slow_registry_provider",
                            raising=False)
        errors = []

        def lookup():
            try:
                home.REG.get("alpha")
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=lookup) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert home.REG.names() == ("alpha",)

    def test_register_decorator_and_lookup(self):
        reg = Registry("widget")

        @reg.register("alpha", version=2)
        def alpha():
            return "a"

        assert reg.get("alpha") is alpha
        assert reg.create("alpha") == "a"
        assert reg.version("alpha") == 2
        assert reg.identity("alpha") == "alpha@2"

    def test_register_direct_object(self):
        reg = Registry("widget")
        obj = object()
        returned = reg.register("thing", obj)
        assert returned is obj
        assert reg.get("thing") is obj

    def test_duplicate_registration_raises(self):
        reg = Registry("widget")
        reg.register("alpha", object())
        with pytest.raises(RegistryError, match="duplicate widget"):
            reg.register("alpha", object())

    def test_overwrite_replaces(self):
        reg = Registry("widget")
        reg.register("alpha", "old")
        reg.register("alpha", "new", version=2, overwrite=True)
        assert reg.get("alpha") == "new"
        assert reg.identity("alpha") == "alpha@2"

    def test_unknown_key_did_you_mean(self):
        reg = Registry("widget")
        reg.register("critic", object())
        reg.register("baseline", object())
        with pytest.raises(RegistryError) as exc:
            reg.get("crtic")
        message = str(exc.value)
        assert "unknown widget 'crtic'" in message
        assert "did you mean 'critic'" in message
        assert "baseline" in message  # the known-names list

    def test_unknown_key_without_close_match(self):
        reg = Registry("widget")
        reg.register("alpha", object())
        with pytest.raises(RegistryError) as exc:
            reg.get("zzzzzz")
        assert "did you mean" not in str(exc.value)

    def test_error_is_key_and_value_error(self):
        reg = Registry("widget")
        with pytest.raises(KeyError):
            reg.get("missing")
        with pytest.raises(ValueError):
            reg.get("missing")

    def test_unregister(self):
        reg = Registry("widget")
        reg.register("alpha", object())
        reg.unregister("alpha")
        assert "alpha" not in reg
        with pytest.raises(RegistryError):
            reg.unregister("alpha")

    def test_scoped_new_name_removed_on_exit(self):
        reg = Registry("widget")
        with reg.scoped("temp", "obj"):
            assert reg.get("temp") == "obj"
        assert "temp" not in reg

    def test_scoped_override_restores_previous(self):
        reg = Registry("widget")
        reg.register("alpha", "original", version=3)
        with reg.scoped("alpha", "override", version=9):
            assert reg.get("alpha") == "override"
            assert reg.identity("alpha") == "alpha@9"
        assert reg.get("alpha") == "original"
        assert reg.identity("alpha") == "alpha@3"

    def test_scoped_restores_on_exception(self):
        reg = Registry("widget")
        reg.register("alpha", "original")
        with pytest.raises(RuntimeError):
            with reg.scoped("alpha", "override"):
                raise RuntimeError("boom")
        assert reg.get("alpha") == "original"

    def test_names_keep_registration_order(self):
        reg = Registry("widget")
        for name in ("zeta", "alpha", "mid"):
            reg.register(name, object())
        assert reg.names() == ("zeta", "alpha", "mid")
        assert list(reg) == ["zeta", "alpha", "mid"]
        assert len(reg) == 3

    def test_create_forwards_arguments(self):
        reg = Registry("widget")
        reg.register("pair", lambda a, b=1: (a, b))
        assert reg.create("pair", 5, b=7) == (5, 7)


class TestBuiltinRegistries:
    def test_scheme_canonical_order(self):
        names = SCHEME_RECIPES.names()
        assert names[:8] == (
            "baseline", "hoist", "critic", "critic_ideal",
            "branch", "opp16", "compress", "opp16_critic",
        )

    def test_runner_schemes_mirror_registry(self):
        # The runner keeps no import-time copy of the names: one taken
        # while the scheme provider was importing the runner was empty.
        from repro.experiments import runner
        assert not hasattr(runner, "SCHEMES")
        assert SCHEME_RECIPES.names() == (
            "baseline", "hoist", "critic", "critic_ideal",
            "branch", "opp16", "compress", "opp16_critic",
        )

    def test_builtin_identities(self):
        assert HARDWARE_CONFIGS.identity("google-tablet") == "google-tablet@1"
        assert BRANCH_PREDICTORS.identity("two-level") == "two-level@1"
        assert ICACHE_POLICIES.identity("trrip") == "trrip@1"
        assert PREFETCHERS.identity("critical-nextline") == \
            "critical-nextline@1"

    def test_component_identity_of_baseline(self):
        identity = component_identity(GOOGLE_TABLET)
        assert identity["branch_predictor"] == "two-level@1"
        assert identity["icache_policy"] == "lru@1"
        assert identity["prefetchers"] == []

    def test_component_identity_with_overrides(self):
        config = GOOGLE_TABLET.with_components(
            prefetchers=("critical-nextline",), icache_policy="trrip",
        )
        identity = component_identity(config)
        assert identity["icache_policy"] == "trrip@1"
        assert identity["prefetchers"] == ["critical-nextline@1"]
        assert config.name == "google-tablet+pf=critical-nextline+i$=trrip"

    def test_hardware_factory_unknown_suggests(self):
        with pytest.raises(RegistryError, match="google-tablet"):
            HARDWARE_CONFIGS.create("google-tablte")
