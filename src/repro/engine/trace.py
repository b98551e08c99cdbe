"""Flat structured-array access traces (phase 1 of the replay engine).

A compiled trace is the engine's exchange format: one numpy structured
array with a row per memory access, in program order.  Workload
generators emit it from ``compile_trace()`` entry points; the replay
interpreter (:mod:`repro.engine.replay`) consumes it.  The row layout is

====== ====== =====================================================
field  dtype  meaning
====== ====== =====================================================
addr   <u8    virtual byte address
size   <u4    access size in bytes
op     <u1    0 = load, 1 = store
thread <u2    logical thread id (0 for single-threaded workloads)
ts     <u8    issue timestamp hint in ns (0 when untimed)
====== ====== =====================================================

``thread`` and ``ts`` are carried for multi-threaded compilers and for
externally captured traces; the single-clock interpreter replays rows
strictly in array order, which is the order the workload issues them.

This is the one trace format: workload compilers, the live
:class:`TraceRecorder`, :func:`repro.workloads.synthetic.synthetic_trace`
and ``.npz`` files (:meth:`AccessTrace.save`/:meth:`AccessTrace.load`)
all produce it, and :func:`repro.engine.replay` runs it.  Addresses are
absolute, so a trace replays on any system that maps the same regions
in the same order.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

#: Operation codes of the ``op`` column.
OP_LOAD = 0
OP_STORE = 1

#: One row per access, program order.  Little-endian fixed layout so
#: saved traces are portable across hosts.
TRACE_DTYPE = np.dtype(
    [
        ("addr", "<u8"),
        ("size", "<u4"),
        ("op", "<u1"),
        ("thread", "<u2"),
        ("ts", "<u8"),
    ]
)


class AccessTrace:
    """An immutable compiled access trace over :data:`TRACE_DTYPE` rows."""

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray) -> None:
        if rows.dtype != TRACE_DTYPE:
            raise TypeError(f"trace rows must have dtype {TRACE_DTYPE}, got {rows.dtype}")
        if rows.ndim != 1:
            raise ValueError(f"trace rows must be 1-D, got shape {rows.shape}")
        self.rows = rows

    # ------------------------------------------------------------------ #
    # Builders
    # ------------------------------------------------------------------ #

    @classmethod
    def from_columns(
        cls,
        addrs: Sequence[int],
        sizes: Sequence[int],
        ops: Sequence[int],
        threads: Optional[Sequence[int]] = None,
        timestamps: Optional[Sequence[int]] = None,
    ) -> "AccessTrace":
        """Build a trace from per-column arrays (broadcast scalars allowed)."""
        addr_col = np.asarray(addrs, dtype=np.uint64)
        count = addr_col.shape[0]
        rows = np.zeros(count, dtype=TRACE_DTYPE)
        rows["addr"] = addr_col
        rows["size"] = np.broadcast_to(np.asarray(sizes, dtype=np.uint32), (count,))
        rows["op"] = np.broadcast_to(np.asarray(ops, dtype=np.uint8), (count,))
        if threads is not None:
            rows["thread"] = np.broadcast_to(np.asarray(threads, dtype=np.uint16), (count,))
        if timestamps is not None:
            rows["ts"] = np.broadcast_to(np.asarray(timestamps, dtype=np.uint64), (count,))
        return cls(rows).validate()

    @classmethod
    def loads(cls, addrs: Sequence[int], size: int) -> "AccessTrace":
        """All-load trace of fixed-size accesses."""
        return cls.from_columns(addrs, size, OP_LOAD)

    @classmethod
    def stores(cls, addrs: Sequence[int], size: int) -> "AccessTrace":
        """All-store trace of fixed-size accesses."""
        return cls.from_columns(addrs, size, OP_STORE)

    @classmethod
    def interleaved_rw(cls, addrs: Sequence[int], size: int) -> "AccessTrace":
        """Read-modify-write trace: a load then a store at each address.

        This is GUPS's access shape — each random update reads the word
        and writes it back before moving on.
        """
        addr_col = np.asarray(addrs, dtype=np.uint64)
        rows = np.zeros(2 * addr_col.shape[0], dtype=TRACE_DTYPE)
        rows["addr"] = np.repeat(addr_col, 2)
        rows["size"] = size
        rows["op"][1::2] = OP_STORE
        return cls(rows).validate()

    # ------------------------------------------------------------------ #
    # Validation / persistence
    # ------------------------------------------------------------------ #

    def validate(self) -> "AccessTrace":
        """Reject rows no scalar access could issue (size 0, bad opcode)."""
        rows = self.rows
        if rows.shape[0]:
            if int(rows["size"].min()) <= 0:
                raise ValueError("trace contains a zero-size access")
            if int(rows["op"].max()) > OP_STORE:
                raise ValueError("trace contains an op code other than load/store")
        return self

    def save(self, path: str) -> None:
        """Persist to ``.npz`` (compressed, dtype-checked on load)."""
        np.savez_compressed(path, rows=self.rows)

    @classmethod
    def load(cls, path: str) -> "AccessTrace":
        with np.load(path) as archive:
            return cls(np.ascontiguousarray(archive["rows"], dtype=TRACE_DTYPE)).validate()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    @property
    def num_loads(self) -> int:
        return int(np.count_nonzero(self.rows["op"] == OP_LOAD))

    @property
    def num_stores(self) -> int:
        return int(np.count_nonzero(self.rows["op"] == OP_STORE))

    def __repr__(self) -> str:
        return (
            f"AccessTrace(ops={len(self)}, loads={self.num_loads}, "
            f"stores={self.num_stores})"
        )


class TraceRecorder:
    """Wraps a memory system, recording every load/store it forwards.

    ``trace`` is the recorded stream as an :class:`AccessTrace`, ready for
    :func:`repro.engine.replay` or :meth:`AccessTrace.save`.
    """

    def __init__(self, system: Any) -> None:
        self.system = system
        self._addrs: List[int] = []
        self._sizes: List[int] = []
        self._ops: List[int] = []

    def _record(self, addr: int, size: int, op: int) -> None:
        self._addrs.append(addr)
        self._sizes.append(size)
        self._ops.append(op)

    def load(self, addr: int, size: int):
        self._record(addr, size, OP_LOAD)
        return self.system.load(addr, size)

    def store(self, addr: int, size: int, data=None):
        self._record(addr, size, OP_STORE)
        return self.system.store(addr, size, data)

    @property
    def trace(self) -> AccessTrace:
        return AccessTrace.from_columns(self._addrs, self._sizes, self._ops)
