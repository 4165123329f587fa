"""Harness tests: ``pytest bench/tests``."""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import time

import pytest

from bench import spec
from bench.tracing import Recorder, layer_totals, self_times
from bench.workloads import PassResult, digest, grid_cells, score


def bench(*args: str, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "bench", *args],
                          cwd=spec.ROOT, capture_output=True, text=True,
                          timeout=timeout)


# -- BENCHMARK.json -----------------------------------------------------------


def test_check_accepts_the_committed_file():
    proc = bench("--check", timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("mutate, problem", [
    (lambda d: d["per_layer"].pop(), "missing"),
    (lambda d: d["end_to_end"][1].update(name="cold ms"), "bad metric"),
    (lambda d: d["workloads"][0].update(why=""), "why"),
    (lambda d: d["end_to_end"][1].update(bound=0.3), "bound"),
    (lambda d: d["end_to_end"][2].pop("unit"), "keys"),
    (lambda d: d.update(extra=1), "top-level"),
])
def test_check_names_each_problem(mutate, problem):
    doc = copy.deepcopy(spec.load())
    mutate(doc)
    assert any(problem in p for p in spec.check(doc)), spec.check(doc)


# -- span arithmetic ----------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    #  bench 0..10
    #    experiments 1..9
    #      cache.load_trace 2..3
    #      cpu.inline 4..8
    #        cpu.inline/init 4..5
    spans = [
        ["bench", 0.0, 10.0, None, "r0"],
        ["experiments", 1.0, 9.0, 0, "r0"],
        ["cache.load_trace", 2.0, 3.0, 1, "r0"],
        ["cpu.inline", 4.0, 8.0, 1, "r0"],
        ["cpu.inline/init", 4.0, 5.0, 3, "r0"],
    ]
    assert self_times(spans) == [2.0, 3.0, 1.0, 3.0, 1.0]
    totals = layer_totals(spans)
    assert totals["cpu.inline"]["self_s"] == 4.0
    assert totals["cpu.inline"]["calls"] == 1
    assert totals["cpu.inline/init"]["incl_s"] == 1.0
    assert totals["experiments"]["self_s"] == 3.0


def test_recorder_wraps_and_restores():
    class Target:
        def method(self, x):
            return x + 1

        @staticmethod
        def static(x):
            return x * 2

    def gen(n):
        yield from range(n)

    table = {"fn": lambda: "v"}
    module = type(sys)("target_module")
    module.gen = gen
    originals = (Target.__dict__["method"], Target.__dict__["static"],
                 table["fn"], module.gen)
    rec = Recorder()
    rec.wrap(Target, "method", "a")
    rec.wrap(Target, "static", "b")
    rec.wrap(table, "fn", "c")
    rec.wrap(module, "gen", "d")
    with rec.span("root", tag="t"):
        assert Target().method(1) == 2
        assert Target.static(3) == 6
        assert table["fn"]() == "v"
        assert list(module.gen(3)) == [0, 1, 2]
    rec.restore()
    assert (Target.__dict__["method"], Target.__dict__["static"],
            table["fn"], module.gen) == originals
    names = [s[0] for s in rec.spans]
    assert names == ["root", "a", "b", "c", "d"]
    assert all(s[3] == 0 and s[4] == "t" for s in rec.spans[1:])


def test_stacked_replacements_restore_the_original():
    module = type(sys)("target_module")
    module.fn = lambda x: x
    original = module.fn
    rec = Recorder()
    rec.replace(module, "fn", lambda fn: lambda x: fn(x) + 1)
    rec.wrap(module, "fn", "a")
    assert module.fn(1) == 2
    assert [s[0] for s in rec.spans] == ["a"]
    rec.restore()
    assert module.fn is original


# -- correctness gate ---------------------------------------------------------


def test_perturbed_stats_field_fails_the_cells():
    from repro.cpu import SimStats

    grid = {app: {(scheme, "google-tablet"):
                  SimStats(name=app, cycles=1000 + i, instructions=900)
                  for i, scheme in enumerate(("baseline", "critic"))}
            for app in ("Music", "Email")}
    pinned = digest(grid_cells(grid))
    clean = PassResult()
    score(clean, digest(grid_cells(grid)), pinned, 4)
    assert (clean.attempted, clean.failed) == (4, 0)
    grid["Email"][("critic", "google-tablet")].icache_misses += 1
    wrong = PassResult()
    score(wrong, digest(grid_cells(grid)), pinned, 4)
    assert (wrong.attempted, wrong.failed) == (4, 4)


def test_summary_keeps_traced_and_untraced_metrics_apart():
    from bench.__main__ import summarize

    records = [{"workload": "sim-grid", "metrics": {"cold_ms": v}}
               for v in (1.0, 2.0, 4.0)]
    records.append({"workload": "sim-grid",
                    "metrics": {"cpu.batch_calls": 8}})
    summary = summarize(records)["sim-grid"]
    assert (summary["cold_ms"]["median"], summary["cold_ms"]["n"]) == (2.0, 3)
    assert summary["cpu.batch_calls"]["n"] == 1


# -- end to end ---------------------------------------------------------------


def test_smoke_run_covers_every_metric_within_a_minute(tmp_path):
    out = tmp_path / "results.json"
    started = time.monotonic()
    proc = bench("--smoke", "--out", str(out), timeout=120)
    assert time.monotonic() - started < 60
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = {tuple(line.split()[:2]) for line in proc.stdout.splitlines()
             if len(line.split()) == 4}
    assert lines == {(w, m) for w in spec.WORKLOADS for m in spec.END_TO_END}
    results = json.loads(out.read_text())
    assert results["nproc"] and all(r["failed"] == 0
                                    for r in results["runs"])


def test_traced_run_emits_exactly_the_per_layer_metrics():
    proc = bench("--workload", "sim-grid", "--smoke", "--seconds", "2",
                 "--trace", "1", timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == spec.per_layer_names()
    assert metrics["cpu.batch_calls"]["value"] > 0
    assert metrics["bench.unattributed_frac"]["value"] <= 0.05
