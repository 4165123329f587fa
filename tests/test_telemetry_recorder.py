"""Tests for the pipeline flight recorder.

The golden file under ``tests/data/`` pins the exact JSONL a tiny
20-instruction trace produces; regenerate it after *intentional* timing
changes with::

    PYTHONPATH=src python tests/test_telemetry_recorder.py
"""

import json
from functools import partial
from pathlib import Path

import pytest

from repro.cpu import GOOGLE_TABLET
from repro.cpu import simulate as _simulate
from repro.isa import Instruction, Opcode
from repro.telemetry import FlightRecorder, STALL_CAUSES, parse_jsonl
from repro.telemetry.recorder import _rle
from repro.telemetry.view import render
from repro.telemetry import view as tview
from repro.trace import BasicBlock, Program, materialize
from repro.workloads import generate, get_profile

#: These tests check the Python cycle loop itself (the batch engine's
#: reference), so they name it rather than take the default engine.
simulate = partial(_simulate, engine="inline")

GOLDEN = Path(__file__).parent / "data" / "flight_recorder_golden.jsonl"


def tiny_trace():
    """A deterministic 20-instruction trace (one block walked twice)."""
    instrs = [
        Instruction(Opcode.ADD, dests=(k % 4,), srcs=((k + 1) % 8,))
        for k in range(10)
    ]
    program = Program([BasicBlock(0, instrs)])
    return materialize(program, [0, 0])


def app_trace():
    """A small generated app trace with real branch/stall behaviour."""
    return generate(get_profile("Music"), walk_blocks=60).trace()


class TestGoldenFile:
    def test_tiny_trace_matches_golden(self):
        recorder = FlightRecorder()
        simulate(tiny_trace(), recorder=recorder)
        assert recorder.to_jsonl() == GOLDEN.read_text()

    def test_golden_shape(self):
        records = parse_jsonl(GOLDEN.read_text())
        header = records[0]
        assert header[0] == "R"
        assert header[1]["instructions"] == 20
        assert header[1]["config"] == GOOGLE_TABLET.name
        instr_records = [r for r in records if r[0] == "I"]
        assert len(instr_records) == 20
        for record in instr_records:
            _tag, _pos, _pc, head, fetch, dec, dsp, iss, cmp_c, commit = \
                record
            assert head <= fetch <= dec <= dsp <= iss < cmp_c <= commit


class TestObserverInvariants:
    def test_simstats_bit_identical_with_recorder(self):
        trace = app_trace()
        recorder = FlightRecorder()
        with_rec = simulate(trace, recorder=recorder)
        without = simulate(trace)
        assert with_rec.to_dict() == without.to_dict()
        assert recorder.runs == 1

    def test_stall_causes_sum_to_fetch_stalls(self):
        trace = app_trace()
        recorder = FlightRecorder()
        stats = simulate(trace, recorder=recorder)
        totals = recorder.stall_totals()
        assert totals == stats.fetch.stall_counts()
        assert set(totals) == set(STALL_CAUSES)
        assert sum(totals.values()) > 0  # a real app does stall
        assert totals["icache"] + totals["branch"] + totals["switch"] \
            == stats.fetch.stall_for_i
        assert totals["backpressure"] == stats.fetch.stall_for_rd

    def test_max_cycles_cutoff_records_partial_pipeline(self):
        trace = app_trace()
        recorder = FlightRecorder()
        stats = simulate(trace, max_cycles=30, recorder=recorder)
        records = recorder.records()
        instr_records = [r for r in records if r[0] == "I"]
        # Only instructions that entered the pipeline are recorded, and
        # the ones past commit match the committed count exactly.
        assert 0 < len(instr_records) < len(trace)
        committed = [r for r in instr_records if r[9] >= 0]
        assert len(committed) == stats.instructions


class TestFileBackend:
    def test_env_knob_appends_runs(self, tmp_path, monkeypatch):
        out = tmp_path / "flight.jsonl"
        monkeypatch.setenv("REPRO_FLIGHT_RECORDER", str(out))
        trace = tiny_trace()
        simulate(trace)
        simulate(trace)
        records = parse_jsonl(out.read_text())
        assert sum(1 for r in records if r[0] == "R") == 2
        assert sum(1 for r in records if r[0] == "I") == 40

    def test_unset_env_means_no_recorder(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLIGHT_RECORDER", raising=False)
        assert FlightRecorder.from_env() is None


class TestRle:
    def test_merges_consecutive_same_cause(self):
        stalls = [(5, 1), (6, 1), (7, 1), (9, 1), (10, 2), (11, 2)]
        assert _rle(stalls) == [(1, 5, 3), (1, 9, 1), (2, 10, 2)]

    def test_empty(self):
        assert _rle([]) == []


class TestView:
    def test_render_sections(self):
        recorder = FlightRecorder()
        simulate(app_trace(), recorder=recorder)
        text = render(recorder.records(), top=5)
        assert "per-stage residency" in text
        assert "issue_wait" in text
        assert "top 5 slowest instructions" in text
        assert "fetch stalls by cause" in text
        for cause in STALL_CAUSES:
            assert cause in text

    def test_cli(self, tmp_path, capsys):
        out = tmp_path / "flight.jsonl"
        recorder = FlightRecorder(path=str(out))
        simulate(tiny_trace(), recorder=recorder)
        code = tview.main([str(out), "--top", "3"])
        assert code == 0
        assert "flight recorder: 1 run(s)" in capsys.readouterr().out

    def test_cli_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert tview.main([str(empty)]) == 1


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    recorder = FlightRecorder()
    simulate(tiny_trace(), recorder=recorder)
    GOLDEN.write_text(recorder.to_jsonl())
    print(f"wrote {GOLDEN} ({len(recorder.lines)} records)")
