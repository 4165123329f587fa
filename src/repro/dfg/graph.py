"""Dynamic Data Flow Graph of a trace.

Nodes are positions in the trace; edges run producer -> consumer.  This is
the structure the paper's criticality analysis operates on: fanout
(out-degree) marks critical instructions, and chains of sole-producer edges
are the Instruction Chains (ICs) of Sec. III-A.

One graph per trace: ``Dfg(trace)`` keeps its arrays (CSR in
``array('i')``) in a memo keyed weakly by the trace, and the profiler's
windows are cut from it (:meth:`Dfg.window`) rather than rebuilt.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain
from typing import List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro.trace.dependence import compute_producers
from repro.trace.dynamic import Trace, TraceEntry

#: trace -> (prod_ptr, prod_idx, cons_ptr, cons_idx, fanouts, sole).  The
#: values must not refer to the trace, or its weak key could never die.
_GRAPHS: "WeakKeyDictionary[Trace, Tuple[array, ...]]" = WeakKeyDictionary()


class Rows:
    """Rows of a CSR adjacency: row ``i`` is ``index[ptr[i]:ptr[i + 1]]``."""

    def __init__(self, ptr: array, index: array):
        self.ptr = ptr
        self.index = index

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def __getitem__(self, pos: int) -> array:
        return self.index[self.ptr[pos]:self.ptr[pos + 1]]


def _graph_arrays(producers: Sequence[Sequence[int]]) -> Tuple[array, ...]:
    """CSR producers and consumers (consumer rows ascending), fanouts and
    sole producers (-1: none or several) of per-position producer rows."""
    prod_ptr = array("i", [0, *accumulate(map(len, producers))])
    prod_idx = array("i", chain.from_iterable(producers))
    sole = array("i", [r[0] if len(r) == 1 else -1 for r in producers])
    fanouts = array("i", bytes(4 * len(producers)))
    for p in prod_idx:
        fanouts[p] += 1
    cons_ptr = array("i", [0, *accumulate(fanouts)])
    cons_idx = array("i", bytes(4 * len(prod_idx)))
    cursor = list(cons_ptr)
    for pos, row in enumerate(producers):
        for p in row:
            cons_idx[cursor[p]] = pos
            cursor[p] += 1
    return prod_ptr, prod_idx, cons_ptr, cons_idx, fanouts, sole


class Dfg:
    """Dependence graph of one trace (or one window of it).

    ``Dfg(trace)`` builds the trace's graph once and memoizes it; a graph
    given its ``arrays`` (a window's) is not memoized.

    Attributes:
        trace: the underlying trace.
        producers / consumers: per-position direct producer / consumer
            positions, as :class:`Rows`.
        fanouts: per-position direct fanout.
        sole: per-position sole producer, -1 with zero or several.
    """

    def __init__(self, trace: Trace,
                 arrays: Optional[Tuple[array, ...]] = None):
        if arrays is None:
            arrays = _GRAPHS.get(trace)
        if arrays is None:
            arrays = _GRAPHS[trace] = _graph_arrays(compute_producers(trace))
        self.trace = trace
        self.producers = Rows(arrays[0], arrays[1])
        self.consumers = Rows(arrays[2], arrays[3])
        self.fanouts, self.sole = arrays[4], arrays[5]

    def __len__(self) -> int:
        return len(self.trace)

    def entry(self, pos: int) -> TraceEntry:
        """Trace entry at position ``pos``."""
        return self.trace.entries[pos]

    def window(self, start: int, length: int) -> "Dfg":
        """The graph of ``trace.window(start, length)``, cut from this one.

        Any producer a window position sees inside the window is also its
        producer in the trace, so the window's producers are the trace's
        producers at or after ``start``, shifted; fanouts are recounted
        inside the window.  The result equals a rebuild on the window.
        """
        ptr, index = self.producers.ptr, self.producers.index
        stop = min(start + length, len(self.trace))
        rows = [[p - start for p in index[a:b] if p >= start]
                for a, b in zip(ptr[start:stop], ptr[start + 1:stop + 1])]
        return Dfg(self.trace.window(start, length), _graph_arrays(rows))

    # -- sole-producer structure (the IC skeleton) --------------------------

    def sole_producer_children(self, pos: int) -> List[int]:
        """Consumers of ``pos`` whose *only* producer is ``pos``.

        A kept edge ``u -> v`` means v becomes schedulable the moment u
        completes — the definition of chain membership for an IC: the path
        through kept edges is independently schedulable (paper Sec. III-A1).
        """
        sole = self.sole
        return [v for v in self.consumers[pos] if sole[v] == pos]

    def chain_roots(self) -> List[int]:
        """Positions at which a maximal IC can start: the nodes with zero or
        several producers, so no kept edge enters them."""
        return [pos for pos, parent in enumerate(self.sole) if parent < 0]

    def is_self_contained_path(self, path: Sequence[int]) -> bool:
        """Check the IC condition for an explicit path of positions.

        Every non-head member must have the previous member as its only
        producer (paper's example: ``I0,I1,I21`` fails because ``I21``
        also depends on ``I11`` outside the path).
        """
        sole = self.sole
        return bool(path) and all(
            sole[cur] == prev for prev, cur in zip(path, path[1:]))
