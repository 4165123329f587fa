"""Programs, dynamic traces, dependence analysis, and sampling."""

from repro.trace.dependence import (
    FLAG_WRITERS,
    compute_consumers,
    compute_fanouts,
    compute_producers,
    reads_flags,
    writes_flags,
)
from repro.trace.dynamic import Trace, TraceColumns, TraceEntry
from repro.trace.materialize import (
    HashedPattern,
    MemoryModel,
    StridedPattern,
    TableMemoryModel,
    materialize,
)
from repro.trace.program import BLOCK_ALIGN, BasicBlock, Program, TEXT_BASE
from repro.trace.sampling import SamplePlan, plan_samples, sample_trace
from repro.trace.trace_io import (
    TraceFormatError,
    dump_trace,
    dump_trace_to_path,
    load_trace,
    load_trace_from_path,
)

__all__ = [
    "BasicBlock",
    "BLOCK_ALIGN",
    "FLAG_WRITERS",
    "HashedPattern",
    "MemoryModel",
    "Program",
    "SamplePlan",
    "StridedPattern",
    "TableMemoryModel",
    "TEXT_BASE",
    "Trace",
    "TraceColumns",
    "TraceEntry",
    "TraceFormatError",
    "compute_consumers",
    "dump_trace",
    "dump_trace_to_path",
    "load_trace",
    "load_trace_from_path",
    "compute_fanouts",
    "compute_producers",
    "materialize",
    "plan_samples",
    "reads_flags",
    "sample_trace",
    "writes_flags",
]
