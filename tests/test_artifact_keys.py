"""Pin the default artifact keys to literal digests.

Every derived artifact (trace, CritIC profile, stats) is stored under a
content-addressed key built from its generation record.  A refactor of
the runner that leaves the numbers alone must also leave these keys
alone, or every warm cache silently goes cold.  The digests below were
recorded once and must never be edited to make this test pass: a change
here means every existing cache is invalidated, which needs a
``SCHEMA_VERSION`` bump instead.
"""

import pytest

from repro.cache import ArtifactCache, reset_cache
from repro.cpu import GOOGLE_TABLET
from repro.experiments.runner import app_context, clear_cache

APP, WALK = "Email", 60

BASELINE_TRACE = \
    "49bf5092b84a78a9a00adef0246b17a0da8e255ec6a81abc9f1c1f8791689178"
CRITIC_PROFILE = \
    "1b83eed59c2cef45d77a789bcf9bf4bfcd667cde6a27fee8ae5a6cf783a09322"
CRITIC_TRACE = \
    "6cf9632381d4034fc2d07ed7d6c3097a119eda5f5bf6d23ab288ad57421b816a"
BASELINE_STATS = \
    "11c7f247650ffaf6d47843d45ef21b1ad333bf75f423bcf90ad421c508aab5c6"
CRITIC_STATS = \
    "5b97d4409670b0ce79f2b9f4f54c98f65f425d6c5e196c9b1e1aceb91cc4eed3"


@pytest.fixture
def loaded_keys(tmp_path, monkeypatch):
    """The keys each cache load is asked for, by method name."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reset_cache()
    clear_cache()
    seen = {}
    for method in ("load_trace", "load_profile"):
        real = getattr(ArtifactCache, method)

        def spy(self, key, _real=real, _method=method):
            seen.setdefault(_method, []).append(key)
            return _real(self, key)

        monkeypatch.setattr(ArtifactCache, method, spy)
    yield seen
    clear_cache()
    reset_cache()


def test_default_keys_are_pinned(loaded_keys):
    ctx = app_context(APP, WALK)
    ctx.trace()
    ctx.critic_profile()
    ctx.scheme_trace("critic")
    assert loaded_keys["load_trace"] == [BASELINE_TRACE, CRITIC_TRACE]
    assert loaded_keys["load_profile"] == [CRITIC_PROFILE]
    assert ctx._scheme_key("critic", 5, 1.0) == CRITIC_TRACE
    assert ctx._stats_key("baseline", GOOGLE_TABLET, 5, 1.0) \
        == BASELINE_STATS
    assert ctx._stats_key("critic", GOOGLE_TABLET, 5, 1.0) \
        == CRITIC_STATS
