"""Unit + property tests for the dynamic DFG container."""

from hypothesis import given, settings, strategies as st

from repro.dfg import Dfg
from repro.isa import Instruction, Opcode
from repro.trace import Trace, TraceEntry


def alu(dest, *srcs):
    return Instruction(Opcode.ADD, dests=(dest,), srcs=srcs)


def trace_of(instrs):
    return Trace([
        TraceEntry(seq=i, instr=ins.with_uid(i), pc=0x1000 + 4 * i)
        for i, ins in enumerate(instrs)
    ])


class TestDfg:
    def test_consumers_match_producers(self):
        dfg = Dfg(trace_of([alu(0, 6), alu(1, 0), alu(2, 0, 1)]))
        assert list(dfg.consumers[0]) == [1, 2]
        assert tuple(dfg.producers[2]) == (0, 1)
        assert list(dfg.fanouts) == [2, 1, 0]

    def test_sole_producer_children(self):
        dfg = Dfg(trace_of([alu(0, 6), alu(1, 0), alu(2, 0, 1)]))
        # position 1 reads only position 0 -> kept edge;
        # position 2 reads both -> not a sole-producer child.
        assert dfg.sole_producer_children(0) == [1]

    def test_chain_roots(self):
        dfg = Dfg(trace_of([alu(0, 6), alu(1, 0), alu(2, 1)]))
        assert dfg.chain_roots() == [0]

    def test_entry_accessor(self):
        trace = trace_of([alu(0, 6)])
        dfg = Dfg(trace)
        assert dfg.entry(0) is trace.entries[0]
        assert len(dfg) == 1


@st.composite
def random_traces(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    instrs = []
    for _ in range(n):
        dest = draw(st.integers(min_value=0, max_value=7))
        nsrc = draw(st.integers(min_value=0, max_value=2))
        srcs = tuple(
            draw(st.integers(min_value=0, max_value=7)) for _ in range(nsrc)
        )
        instrs.append(alu(dest, *srcs))
    return trace_of(instrs)


@given(random_traces())
@settings(max_examples=40)
def test_property_edges_point_backwards(trace):
    """Producers always precede consumers in the dynamic order, and
    fanout equals the out-degree of the consumer inversion."""
    dfg = Dfg(trace)
    for pos, producers in enumerate(dfg.producers):
        for producer in producers:
            assert producer < pos
            assert pos in dfg.consumers[producer]
    assert list(dfg.fanouts) == [len(c) for c in dfg.consumers]


@given(random_traces())
@settings(max_examples=40)
def test_property_kept_edges_form_forest(trace):
    """Every node has at most one kept (sole-producer) incoming edge, so
    kept edges form a forest — the precondition for IC enumeration."""
    dfg = Dfg(trace)
    kept_parents = {}
    for parent in range(len(dfg)):
        for child in dfg.sole_producer_children(parent):
            assert child not in kept_parents
            kept_parents[child] = parent
    # Roots are exactly the nodes without a kept incoming edge.
    for root in dfg.chain_roots():
        assert root not in kept_parents
