"""Columnar traces: a loaded trace is columns first, and the batch engine
loads, warms and simulates it without building ``TraceEntry`` objects.

The post-warm cache images the batch engine computes from the columns
must equal the sets ``MemorySystem.warm`` leaves, for every Fig 11
memory configuration, the TRRIP i-cache, a custom registered policy, a
trace whose L2 sets are over-subscribed and an address of 0.
"""

import io
import pickle
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.cpu import batch as batch_mod
from repro.cpu.batch import simulate_batch
from repro.cpu.config import GOOGLE_TABLET
from repro.cpu.pipeline import simulate
from repro.experiments import runner
from repro.experiments.fig11 import MECHANISMS
from repro.isa import Cond, Encoding, Instruction, Opcode
from repro.memory.hierarchy import MemorySystem
from repro.registry import HARDWARE_CONFIGS, ICACHE_POLICIES
from repro.trace import dynamic
from repro.trace.dynamic import Trace, TraceEntry
from repro.trace.trace_io import dump_trace, load_trace

FIG11_CONFIGS = ("google-tablet",) + MECHANISMS


def reload(trace):
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    return load_trace(io.StringIO(buffer.getvalue()))


@pytest.fixture(scope="module")
def traces():
    """Music's baseline trace and its CritIC trace (Thumb re-encoded),
    as traces built from entries."""
    ctx = runner.app_context("Music", 100)
    out = []
    for scheme in ("baseline", "critic"):
        src = ctx.scheme_trace(scheme)
        out.append(Trace(src.entries, name=src.name,
                         program_name=src.program_name))
    assert any(e.instr.encoding is Encoding.THUMB16 for e in out[1])
    return out


def zero_address_trace():
    """Loads and stores at address 0, and loads whose lines share the
    L2, d-cache and i-cache sets of their own pc's line, filled at the
    same position; every entry starts a new i-line."""
    ldr = Instruction(Opcode.LDR, dests=(2,), srcs=(1,), uid=0)
    add = Instruction(Opcode.ADD, dests=(1,), srcs=(2, 1), uid=1)
    st = Instruction(Opcode.STR, srcs=(2, 1), uid=2)
    br = Instruction(Opcode.B, cond=Cond.NE, target=0, uid=3)
    statics = [(ldr, 0x1000), (add, 0x1040), (st, 0x1080), (br, 0x10C0)]
    entries = []
    for k in range(400):
        instr, pc = statics[k % 4]
        mem = None
        if instr is ldr:
            # 0x40000 is a whole number of L2 (and smaller) set strides
            mem = 0 if k % 48 == 0 else pc + (1 + k % 40 // 4) * 0x40000
        elif instr is st:
            mem = 0
        taken = (k % 24 != 23) if instr is br else None
        entries.append(TraceEntry(k, instr, pc, mem, taken))
    return Trace(entries, name="zero", program_name="zero")


class TestRoundTrip:
    def test_reloaded_equals_materialized(self, traces):
        for trace in traces:
            loaded = reload(trace)
            assert len(loaded) == len(trace)
            assert loaded.columns() == trace.columns()
            assert loaded.entries == trace.entries

    def test_columns_are_stdlib_and_shared(self, traces):
        columns = reload(traces[0]).columns()
        assert (columns.index.typecode, columns.mem.typecode) == ("i", "q")
        assert isinstance(columns.taken, bytes)
        assert set(columns.taken) <= {0, 1, 2}
        loaded = reload(traces[0])
        assert loaded.columns() is loaded.columns()

    def test_loaded_occurrences_share_one_instruction(self, traces):
        loaded = reload(traces[0])
        by_uid = {}
        for entry in loaded:
            assert by_uid.setdefault((entry.uid, entry.pc),
                                     entry.instr) is entry.instr

    def test_dump_of_a_loaded_trace_is_byte_identical(self, traces):
        first = io.StringIO()
        dump_trace(traces[0], first)
        second = io.StringIO()
        dump_trace(load_trace(io.StringIO(first.getvalue())), second)
        assert second.getvalue() == first.getvalue()

    def test_loaded_trace_pickles(self, traces):
        loaded = reload(traces[0])
        again = pickle.loads(pickle.dumps(loaded))
        assert again.columns() == loaded.columns()
        assert again.entries == traces[0].entries

    def test_zero_address_round_trips(self):
        trace = zero_address_trace()
        loaded = reload(trace)
        assert loaded.entries == trace.entries
        assert loaded[0].mem_addr == 0
        assert loaded[1].mem_addr is None


class TestNoEntries:
    @pytest.fixture
    def no_entries(self, monkeypatch):
        def refuse(columns):
            raise AssertionError("TraceEntry objects were built")
        monkeypatch.setattr(dynamic, "_entries_of", refuse)

    def test_batch_run_builds_no_entries(self, traces, no_entries):
        reference = traces[0]
        loaded = reload(reference)
        configs = [HARDWARE_CONFIGS.create(name) for name in FIG11_CONFIGS]
        assert len(loaded) == len(reference)
        stats = simulate_batch(loaded, configs)
        assert batch_mod.last_batch_report()["fast"] == len(configs)
        assert "entries" not in vars(loaded)
        for config, got in zip(configs, stats):
            want = simulate(reference, config, engine="inline")
            assert got.to_dict() == want.to_dict(), config.name

    def test_fetched_bytes_build_no_entries(self, traces, no_entries):
        for trace in traces:
            loaded = reload(trace)
            assert loaded.dynamic_bytes() == sum(
                e.instr.size_bytes for e in trace.entries)
            assert loaded.count_thumb() == sum(
                1 for e in trace.entries
                if e.instr.encoding is Encoding.THUMB16)
            assert "entries" not in vars(loaded)

    def test_entries_are_built_once_on_first_read(self, traces):
        loaded = reload(traces[0])
        entries = loaded.entries
        assert loaded.entries is entries
        assert loaded[5] is entries[5]


class _FifoPolicy:
    """A custom policy: insertion order, hits do not promote."""

    name = "fifo"

    def new_set(self):
        return []

    def access(self, ways, tag, assoc):
        if tag in ways:
            return True, False
        evicted = len(ways) >= assoc
        self.fill(ways, tag, assoc)
        return False, evicted

    def fill(self, ways, tag, assoc):
        if tag not in ways:
            ways.insert(0, tag)
            del ways[assoc:]

    def probe(self, ways, tag):
        return tag in ways


def _memory_configs():
    """(id, config): the Fig 11 memory configs and the other cases."""
    cases = [(name, HARDWARE_CONFIGS.create(name)) for name in FIG11_CONFIGS]
    cases.append(("trrip", HARDWARE_CONFIGS.create("trrip-icache")))
    cases.append(("fifo", replace(GOOGLE_TABLET, name="fifo", memory=replace(
        GOOGLE_TABLET.memory, icache_policy="fifo"))))
    cases.append(("small-l2", replace(GOOGLE_TABLET, name="small-l2",
                                      memory=replace(GOOGLE_TABLET.memory,
                                                     l2_bytes=16 * 1024,
                                                     l2_assoc=2))))
    return cases


@pytest.fixture(autouse=True)
def fifo_policy():
    with ICACHE_POLICIES.scoped("fifo", _FifoPolicy):
        yield


class TestWarmImages:
    @staticmethod
    def check(trace, config):
        mc = config.memory
        reference = MemorySystem(mc)
        reference.warm(trace)
        arrays = batch_mod._build_trace_arrays(np, reload(trace))
        icache, dc_image, l2_image = batch_mod._warm_caches(np, arrays, mc)
        assert icache._sets == reference.icache._sets
        assert batch_mod._image_rows(dc_image) == reference.dcache._sets
        assert batch_mod._image_rows(l2_image) == reference.l2._sets
        return reference

    @pytest.mark.parametrize("name,config", _memory_configs(),
                             ids=[c[0] for c in _memory_configs()])
    def test_images_equal_warm(self, traces, name, config):
        for trace in traces:
            self.check(trace, config)

    @pytest.mark.parametrize("name,config", _memory_configs(),
                             ids=[c[0] for c in _memory_configs()])
    def test_zero_address_images_equal_warm(self, name, config):
        reference = self.check(zero_address_trace(), config)
        assert reference.dcache.probe(0)

    def test_small_l2_is_over_subscribed(self, traces):
        config = dict(_memory_configs())["small-l2"]
        l2 = self.check(traces[0], config).l2
        size = config.memory.line_bytes
        lines = {e.pc // size for e in traces[0]} | {
            e.mem_addr // size for e in traces[0] if e.mem_addr is not None}
        per_set = Counter(line % l2.num_sets for line in lines)
        assert max(per_set.values()) > l2.assoc

    @pytest.mark.parametrize("name", ["fifo", "small-l2", "trrip"])
    def test_batch_equals_inline(self, traces, name):
        config = dict(_memory_configs())[name]
        for trace in traces + [zero_address_trace()]:
            got = simulate_batch(reload(trace), [config])[0]
            want = simulate(trace, config, engine="inline")
            assert got.to_dict() == want.to_dict()

    def test_images_are_memoized_per_geometry(self, traces):
        arrays = batch_mod._build_trace_arrays(np, reload(traces[0]))
        for name in FIG11_CONFIGS:
            batch_mod._warm_caches(
                np, arrays, HARDWARE_CONFIGS.create(name).memory)
        warm_keys = [key for key in arrays.profiles if key[0] == "warm"]
        # one d-cache and one L2 geometry, two i-cache sizes
        assert sorted(key[1] for key in warm_keys) == \
            ["dcache", "icache", "icache", "l2"]


class TestTraceEntry:
    def test_entry_cannot_be_assigned(self, traces):
        entry = traces[0][3]
        with pytest.raises(AttributeError):
            entry.pc = 0
        with pytest.raises(AttributeError):
            entry.mem_addr = 4

    def test_fields_defaults_uid_and_hash(self):
        instr = Instruction(Opcode.MOV, dests=(1,), imm=3, uid=7)
        entry = TraceEntry(seq=2, instr=instr, pc=0x40)
        assert (entry.mem_addr, entry.taken) == (None, None)
        assert entry.uid == 7
        twin = TraceEntry(2, instr, 0x40, None, None)
        assert entry == twin and hash(entry) == hash(twin)
        assert entry != TraceEntry(2, instr, 0x40, 0, None)
