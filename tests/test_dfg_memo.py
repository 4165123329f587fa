"""One dependence graph per trace: the weak memo, window restrictions
cut from the trace-level graph, and Fig 5a stats read from paths."""

import gc
import os
import subprocess
import sys
import weakref
from collections import defaultdict
from pathlib import Path

import pytest

from repro.dfg import (
    ChainStats,
    Dfg,
    DEFAULT_MAX_CHAIN_LEN,
    find_critics,
    iter_maximal_paths,
    make_chain,
)
from repro.dfg import graph as graph_module
from repro.profiler import FinderConfig, chains_per_window, find_critic_profile
from repro.profiler.profile_table import annotate_block
from repro.trace import plan_samples
from repro.trace.materialize import materialize
from repro.workloads import generate, get_profile

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module", params=[("Browser", 11), ("Email", 5),
                                        ("mcf", 2)],
                ids=lambda p: f"{p[0]}-seed{p[1]}")
def workload(request):
    name, seed = request.param
    return generate(get_profile(name).with_seed(seed), walk_blocks=120)


def graph_view(dfg):
    """Everything a reader can see of a graph, as plain lists."""
    return {
        "producers": [list(row) for row in dfg.producers],
        "consumers": [list(row) for row in dfg.consumers],
        "fanouts": list(dfg.fanouts),
        "sole": list(dfg.sole),
        "roots": dfg.chain_roots(),
        "entries": dfg.trace.entries,
    }


def reference_maximal_paths(dfg, min_length=2):
    """The DFS of the former ``iter_maximal_paths``: each stack frame
    carries a copy of its path."""
    for root in dfg.chain_roots():
        stack = [(root, [root])]
        while stack:
            node, path = stack.pop()
            children = dfg.sole_producer_children(node)
            if not children:
                if len(path) >= min_length:
                    yield path
                continue
            for child in children:
                stack.append((child, path + [child]))


def reference_fig05a_stats(dfg):
    """Fig 5a as it was computed from one Chain record per maximal path."""
    chains = [make_chain(dfg, path)
              for path in reference_maximal_paths(dfg)]
    if not chains:
        return ChainStats(0, 0, 0.0, 0, 0.0)
    lengths = [c.length for c in chains]
    spreads = [c.spread for c in chains]
    return ChainStats(
        count=len(chains),
        max_length=max(lengths),
        mean_length=sum(lengths) / len(lengths),
        max_spread=max(spreads),
        mean_spread=sum(spreads) / len(spreads),
    )


class TestWindowRestriction:
    def windows(self, n):
        width = max(8, n // 5)
        tiled = [(start, width) for start in range(0, n, width)]
        sampled = list(plan_samples(n, 6, width, seed=7).windows)
        assert len(set(sampled)) < len(sampled) or any(
            b[0] < a[0] + a[1] for a, b in zip(sampled, sampled[1:])
        ), "sampled windows should overlap"
        return tiled + sampled + [(n - width // 2, width), (0, n + 10)]

    def test_restriction_equals_rebuild(self, workload):
        trace = workload.trace()
        graph = Dfg(trace)
        for start, length in self.windows(len(trace)):
            cut = graph.window(start, length)
            rebuilt = Dfg(trace.window(start, length))
            assert graph_view(cut) == graph_view(rebuilt), (start, length)

    def test_restriction_builds_no_graph(self, workload, monkeypatch):
        trace = workload.trace()
        graph = Dfg(trace)
        calls = []
        monkeypatch.setattr(graph_module, "compute_producers",
                            lambda t: calls.append(t))
        graph.window(10, 100)
        Dfg(trace)
        find_critic_profile(trace, workload.program,
                            FinderConfig(window=500))
        assert calls == []

    def test_profile_equals_per_window_rebuild(self, workload):
        """The profiler's tables match rebuilding a Dfg per window, for
        tiled, short and sampled (overlapping) windows."""
        trace = workload.trace()
        for config in (FinderConfig(), FinderConfig(window=300),
                       FinderConfig(window=400, profiled_fraction=0.6,
                                    seed=4)):
            if config.profiled_fraction >= 1.0:
                windows = [trace.window(s, config.window)
                           for s in range(0, len(trace), config.window)]
            else:
                total = max(1, int(len(trace) * config.profiled_fraction))
                plan = plan_samples(len(trace),
                                    max(1, total // config.window),
                                    config.window, seed=config.seed)
                windows = plan.apply(trace)
            expected = [find_critics(Dfg(w), threshold=config.threshold,
                                     max_len=DEFAULT_MAX_CHAIN_LEN)
                        for w in windows]
            assert chains_per_window(trace, config) == expected

            occurrences = defaultdict(int)
            for chains in expected:
                for chain in chains:
                    occurrences[chain.uids] += 1
            profile = find_critic_profile(trace, workload.program, config)
            assert profile.profiled_instructions == sum(map(len, windows))
            assert {r.uids: r.occurrences for r in profile} \
                == dict(occurrences)
            assert {r.uids: r.block_id for r in profile} == {
                uids: annotate_block(workload.program, uids)
                for uids in occurrences}


class TestFig05aFromPaths:
    def test_paths_match_reference_order(self, workload):
        dfg = Dfg(workload.trace())
        assert list(iter_maximal_paths(dfg)) \
            == list(reference_maximal_paths(dfg))

    def test_stats_match_chain_records(self, workload):
        dfg = Dfg(workload.trace())
        stats = ChainStats.from_paths(iter_maximal_paths(dfg))
        assert stats.count > 0
        assert stats == reference_fig05a_stats(dfg)

    def test_empty(self):
        assert ChainStats.from_paths([]) == ChainStats(0, 0, 0.0, 0, 0.0)


class TestMemo:
    def test_one_graph_per_trace(self, workload):
        trace = workload.trace()
        assert Dfg(trace).fanouts is Dfg(trace).fanouts
        other = trace.window(0, len(trace))
        assert Dfg(other).fanouts is not Dfg(trace).fanouts

    def test_memo_does_not_keep_trace_alive(self, workload):
        trace = materialize(workload.program, workload.walk,
                            workload.memory)
        ref = weakref.ref(trace)
        dfg = Dfg(trace)
        dfg.window(0, 50)
        del trace, dfg
        gc.collect()
        assert ref() is None


def test_materialize_plan_matches_per_instance_walk(workload):
    """The per-block plan yields the entries the per-instance walk did,
    with the very same instruction objects."""
    program, walk = workload.program, workload.walk
    trace = materialize(program, walk, workload.memory)

    layout = program.layout()
    occurrences = {}
    expected = []
    for idx, block_id in enumerate(walk):
        next_block = walk[idx + 1] if idx + 1 < len(walk) else None
        for instr in program.block(block_id).instructions:
            mem_addr = None
            if instr.is_memory:
                occ = occurrences.get(instr.uid, 0)
                occurrences[instr.uid] = occ + 1
                mem_addr = workload.memory.address_for(instr.uid, occ)
            taken = None
            if instr.is_branch:
                if not instr.cond.is_predicated:
                    taken = True
                elif next_block is None:
                    taken = False
                else:
                    taken = next_block == instr.target
            expected.append((len(expected), instr, layout[instr.uid],
                             mem_addr, taken))
    assert len(trace) == len(expected)
    for entry, (seq, instr, pc, mem_addr, taken) in zip(trace, expected):
        assert entry.instr is instr
        assert (entry.seq, entry.pc, entry.mem_addr, entry.taken) \
            == (seq, pc, mem_addr, taken)


def test_profiler_and_inline_cell_do_not_import_numpy(tmp_path):
    script = (
        "import sys\n"
        "from repro.experiments.runner import app_context\n"
        "ctx = app_context('Browser', 60)\n"
        "assert len(ctx.critic_profile()) > 0\n"
        "ctx.stats('critic', engine='inline')\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC),
               REPRO_CACHE_DIR=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "False"
