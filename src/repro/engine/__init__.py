"""Trace-compiled vectorized access engine (ROADMAP item 1).

Two phases behind the existing hierarchy API:

1. **Compile** — workload generators emit their access stream as a flat
   structured-array :class:`AccessTrace` (``compile_trace()`` entry
   points in :mod:`repro.workloads`), with numpy doing the address
   arithmetic; the compiled trace is each workload's only stream.
2. **Replay** — :func:`replay` interprets the trace with a fused fast
   path for DRAM-resident single-page accesses (inlining exactly the
   EFFECTS.json-certified kernels, batching their COSTS.json-proven
   commutative stat updates) and delegates everything else to the
   unmodified scalar path; the fallback boundary is derived from
   BATCH.json's ORDER_DEPENDENT classifications.

``FlatFlashConfig.engine.enabled=False`` replays the same trace with
every row delegated (:func:`fused_blockers` names it as a blocker);
results are byte-identical either way (tests/test_engine_equivalence.py
and the sweep byte-identity gate enforce it).  See docs/engine.md.
"""

from repro.engine.guards import fused_blockers, fused_supported
from repro.engine.kernels import DELEGATED_ORDER_DEPENDENT, KERNELS, KernelSpec
from repro.engine.trace import OP_LOAD, OP_STORE, TRACE_DTYPE, AccessTrace, TraceRecorder
from repro.engine.replay import ReplayResult, replay

__all__ = [
    "AccessTrace",
    "TraceRecorder",
    "TRACE_DTYPE",
    "OP_LOAD",
    "OP_STORE",
    "ReplayResult",
    "replay",
    "fused_blockers",
    "fused_supported",
    "KERNELS",
    "KernelSpec",
    "DELEGATED_ORDER_DEPENDENT",
]
