"""Tests for trace serialization."""

import io

import pytest

from repro.isa import Cond, Instruction, Opcode
from repro.trace import Trace, TraceEntry
from repro.trace.trace_io import (
    TraceFormatError,
    dump_trace,
    dump_trace_to_path,
    load_trace,
    load_trace_from_path,
)
from repro.workloads import generate, get_profile


@pytest.fixture(scope="module")
def trace():
    return generate(get_profile("Email"), walk_blocks=60).trace()


class TestRoundTrip:
    def test_full_round_trip(self, trace):
        buffer = io.StringIO()
        count = dump_trace(trace, buffer)
        assert count == len(trace)
        buffer.seek(0)
        loaded = load_trace(buffer)
        assert len(loaded) == len(trace)
        assert loaded.name == trace.name
        assert loaded.program_name == trace.program_name
        for a, b in zip(trace, loaded):
            assert a.seq == b.seq
            assert a.uid == b.uid
            assert a.pc == b.pc
            assert a.mem_addr == b.mem_addr
            assert a.taken == b.taken
            assert a.instr.signature() == b.instr.signature()
            assert a.instr.encoding == b.instr.encoding

    def test_dependences_survive_round_trip(self, trace):
        from repro.trace import compute_producers
        buffer = io.StringIO()
        dump_trace(trace, buffer)
        buffer.seek(0)
        loaded = load_trace(buffer)
        assert compute_producers(trace) == compute_producers(loaded)

    def test_path_helpers(self, trace, tmp_path):
        path = tmp_path / "trace.tsv"
        dump_trace_to_path(trace, str(path))
        loaded = load_trace_from_path(str(path))
        assert len(loaded) == len(trace)

    def test_loaded_trace_simulates_identically(self, trace):
        from repro.cpu import simulate
        buffer = io.StringIO()
        dump_trace(trace, buffer)
        buffer.seek(0)
        loaded = load_trace(buffer)
        assert simulate(trace).cycles == simulate(loaded).cycles


class TestCdpAndThumbRoundTrip:
    """A CritIC-compiled trace (CDP markers + Thumb-converted sizes) must
    survive dump/load exactly — the artifact cache stores scheme traces
    this way and re-simulates them expecting bit-identical stats."""

    @pytest.fixture(scope="class")
    def scheme_trace(self):
        from repro.compiler import CriticPass, PassManager, region_oracle
        from repro.profiler import FinderConfig, find_critic_profile
        workload = generate(get_profile("Email"), walk_blocks=60)
        trace = workload.trace()
        profile = find_critic_profile(
            trace, workload.program, FinderConfig(), app_name="Email",
        )
        records = profile.select_for_compiler(max_length=5)
        result = PassManager([
            CriticPass(records, mode="cdp",
                       may_alias=region_oracle(workload.memory)),
        ]).run(workload.program)
        return workload.trace_for(result.program)

    def test_trace_contains_cdp_and_thumb(self, scheme_trace):
        assert any(e.instr.cdp_cover is not None for e in scheme_trace)
        assert any(e.instr.size_bytes == 2 for e in scheme_trace)

    def test_cdp_markers_and_sizes_round_trip(self, scheme_trace):
        buffer = io.StringIO()
        dump_trace(scheme_trace, buffer)
        buffer.seek(0)
        loaded = load_trace(buffer)
        assert len(loaded) == len(scheme_trace)
        for a, b in zip(scheme_trace, loaded):
            assert a.instr.cdp_cover == b.instr.cdp_cover
            assert a.instr.size_bytes == b.instr.size_bytes
            assert a.instr.encoding == b.instr.encoding
            assert a.instr.signature() == b.instr.signature()

    def test_loaded_scheme_trace_simulates_identically(self, scheme_trace):
        import dataclasses
        from repro.cpu import simulate
        buffer = io.StringIO()
        dump_trace(scheme_trace, buffer)
        buffer.seek(0)
        loaded = load_trace(buffer)
        assert dataclasses.asdict(simulate(scheme_trace)) \
            == dataclasses.asdict(simulate(loaded))


def _dumps(trace):
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    return buffer.getvalue()


def _loads(text):
    return load_trace(io.StringIO(text))


class TestIdentityAndEdges:
    def test_one_instruction_object_per_static(self, trace):
        loaded = _loads(_dumps(trace))
        by_static = {}
        for entry in loaded:
            by_static.setdefault((entry.uid, entry.pc), set()).add(
                id(entry.instr))
        assert all(len(ids) == 1 for ids in by_static.values())
        distinct = {id(e.instr) for e in loaded}
        assert len(distinct) == len(by_static)
        assert len(distinct) == len({(id(e.instr), e.pc) for e in trace})

    def test_loader_keeps_uids(self, trace):
        loaded = _loads(_dumps(trace))
        assert [e.instr.uid for e in loaded] == [e.instr.uid for e in trace]

    def test_one_instruction_at_two_pcs(self):
        shared = Instruction(Opcode.ADD, dests=(1,), srcs=(2,), imm=4,
                             uid=9)
        other = Instruction(Opcode.LDR, dests=(3,), srcs=(1,), uid=10)
        entries = [
            TraceEntry(0, shared, 0x100),
            TraceEntry(1, other, 0x104, mem_addr=0x8000),
            TraceEntry(2, shared, 0x200),
            TraceEntry(3, shared, 0x100),
        ]
        loaded = _loads(_dumps(Trace(entries, name="two-pcs")))
        assert [(e.seq, e.pc, e.mem_addr, e.uid) for e in loaded] == \
            [(e.seq, e.pc, e.mem_addr, e.uid) for e in entries]
        assert all(a.instr == b.instr for a, b in zip(entries, loaded))
        assert loaded[0].instr is loaded[3].instr
        assert loaded[0].instr is not loaded[2].instr

    def test_window_round_trips(self, trace):
        window = trace.window(100, 250)
        assert window[0].seq == 100
        loaded = _loads(_dumps(window))
        assert loaded.name == window.name
        assert [(e.seq, e.uid, e.pc, e.mem_addr, e.taken) for e in loaded] \
            == [(e.seq, e.uid, e.pc, e.mem_addr, e.taken) for e in window]

    def test_empty_trace_round_trips(self):
        loaded = _loads(_dumps(Trace([], name="empty", program_name="p")))
        assert len(loaded) == 0
        assert (loaded.name, loaded.program_name) == ("empty", "p")

    def test_non_consecutive_seqs_refuse_to_dump(self, trace):
        gapped = Trace([trace[0], trace[2]])
        with pytest.raises(ValueError, match="consecutive"):
            dump_trace(gapped, io.StringIO())

    def test_statics_written_once(self, trace):
        text = _dumps(trace)
        statics = [line for line in text.splitlines() if "\t" in line]
        assert len(statics) == len({(id(e.instr), e.pc) for e in trace})
        assert len(statics) < len(trace)


class TestErrors:
    """Every malformation raises ``TraceFormatError`` — a ``ValueError``,
    the one exception ``ArtifactCache.load_trace`` turns into a miss."""

    @pytest.fixture(scope="class")
    def text(self):
        entries = [
            TraceEntry(0, Instruction(Opcode.MOV, dests=(1,), imm=3, uid=0),
                       0x10),
            TraceEntry(1, Instruction(Opcode.LDR, dests=(2,), srcs=(1,),
                                      uid=1), 0x14, mem_addr=0x8000),
            TraceEntry(2, Instruction(Opcode.B, cond=Cond.NE, target=0,
                                      uid=2), 0x18, taken=True),
        ]
        return _dumps(Trace(entries, name="x", program_name="p"))

    @staticmethod
    def _replace_line(text, prefix, new):
        lines = text.split("\n")
        at = next(i for i, line in enumerate(lines)
                  if line.startswith(prefix))
        lines[at] = new
        return "\n".join(lines)

    def test_fixture_loads(self, text):
        loaded = _loads(text)
        assert [(e.mem_addr, e.taken) for e in loaded] == \
            [(None, None), (0x8000, None), (None, True)]

    def test_bad_header(self):
        with pytest.raises(TraceFormatError, match="bad header"):
            _loads("not a trace\n")

    def test_v1_header(self):
        v1 = "# repro-trace v1\n# name=x\n0\t0\t0x10\t-\t-\tNOP\n"
        with pytest.raises(TraceFormatError, match="bad header"):
            _loads(v1)

    def test_wrong_field_count(self, text):
        bad = self._replace_line(text, "1\t", "1\t0x14")
        with pytest.raises(TraceFormatError, match="3 tab-separated"):
            _loads(bad)

    def test_bad_assembly(self, text):
        bad = self._replace_line(text, "1\t", "1\t0x14\tFROB R1")
        with pytest.raises(TraceFormatError):
            _loads(bad)

    def test_bad_hex_pc(self, text):
        bad = self._replace_line(text, "1\t", "1\t0xzz\tLDR R2, R1")
        with pytest.raises(TraceFormatError):
            _loads(bad)

    @pytest.mark.parametrize("cut", [0.25, 0.5, 0.75, 0.9, 0.99])
    def test_truncated_text(self, text, cut):
        with pytest.raises(TraceFormatError):
            _loads(text[:int(len(text) * cut)])

    def test_truncated_column_line(self, text):
        bad = self._replace_line(text, "m ", "m -,8000")
        with pytest.raises(TraceFormatError, match="disagree"):
            _loads(bad)

    def test_missing_column_line(self, text):
        bad = self._replace_line(text, "t ", "")
        with pytest.raises(TraceFormatError, match="columns"):
            _loads(bad)

    def test_columns_disagree_with_header(self, text):
        bad = text.replace("# entries=3", "# entries=4")
        with pytest.raises(TraceFormatError, match="disagree"):
            _loads(bad)

    def test_statics_disagree_with_header(self, text):
        bad = text.replace("# statics=3", "# statics=2")
        with pytest.raises(TraceFormatError):
            _loads(bad)

    @pytest.mark.parametrize("index", ["0,1,3", "0,-1,2", "0,x,2"])
    def test_bad_static_index(self, text, index):
        bad = self._replace_line(text, "i ", "i " + index)
        with pytest.raises(TraceFormatError):
            _loads(bad)

    def test_bad_mem_hex(self, text):
        bad = self._replace_line(text, "m ", "m -,80g0,-")
        with pytest.raises(TraceFormatError):
            _loads(bad)

    def test_unknown_taken_char(self, text):
        bad = self._replace_line(text, "t ", "t --Y")
        with pytest.raises(TraceFormatError):
            _loads(bad)

    @pytest.mark.parametrize("field", ["statics", "entries", "seq0"])
    def test_missing_or_bad_header_count(self, text, field):
        missing = "\n".join(line for line in text.split("\n")
                            if not line.startswith(f"# {field}="))
        with pytest.raises(TraceFormatError, match=field):
            _loads(missing)
        negative = self._replace_line(text, f"# {field}=", f"# {field}=-1")
        with pytest.raises(TraceFormatError, match=field):
            _loads(negative)

    def test_blank_and_comment_lines_skipped(self, text):
        lines = text.split("\n")
        # header, name, program | statics=, entries=, seq0=, static 0
        # | statics 1 and 2, the three columns
        noisy = "\n".join(lines[:3] + ["", "# a note", ""] + lines[3:7]
                          + ["# between statics", ""] + lines[7:])
        loaded = _loads(noisy)
        assert len(loaded) == 3
        assert loaded.name == "x"
