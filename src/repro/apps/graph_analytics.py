"""GraphChi-style graph analytics over a memory system (§5.3, Fig. 10).

The engine places the CSR arrays (indptr, edge indices) and the per-vertex
state (ranks / labels) in mapped regions and charges every array touch to
the memory system: edge lists are streamed at cache-line granularity
(sequential), per-vertex state is accessed randomly (skewed toward
high-in-degree vertices on power-law graphs).  That is exactly the access
mix of the paper's modified GraphChi with "the entire graphs in FlatFlash".

Numeric results are computed on shadow numpy arrays while the memory
system accounts the accesses — the values are exact, the timing comes from
the simulator.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.memory_system import MemorySystem
from repro.engine import OP_STORE, TRACE_DTYPE, AccessTrace, replay, replay_enabled
from repro.workloads.graphs import CSRGraph


def _edge_lines(indptr: np.ndarray, esize: int, line: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per vertex, the first cache line of its edge range and how many
    lines the range touches (0 for a vertex without out-edges)."""
    start = indptr[:-1] * esize
    end = indptr[1:] * esize
    first_line = start // line
    return first_line, np.where(end > start, -(-end // line) - first_line, 0)


class GraphEngine:
    """PageRank and Connected-Component Labeling over mapped graph data."""

    #: Bytes per element for the mapped arrays (64-bit ids and floats).
    ELEMENT_SIZE = 8

    def __init__(self, system: MemorySystem, graph: CSRGraph, name: str = "graph") -> None:
        graph.validate()
        self.system = system
        self.graph = graph
        page = system.page_size
        vertex_bytes = (graph.num_vertices + 1) * self.ELEMENT_SIZE
        edge_bytes = max(1, graph.num_edges) * self.ELEMENT_SIZE
        self.indptr_region = system.mmap(
            -(-vertex_bytes // page), name=f"{name}.indptr"
        )
        self.edges_region = system.mmap(-(-edge_bytes // page), name=f"{name}.edges")
        self.state_region = system.mmap(
            -(-vertex_bytes // page), name=f"{name}.state"
        )
        self._line = system.config.geometry.cacheline_size
        self._per_line = self._line // self.ELEMENT_SIZE

    # ------------------------------------------------------------------ #
    # Access charging helpers
    # ------------------------------------------------------------------ #

    def _touch_state(self, vertex: int, is_write: bool) -> None:
        addr = self.state_region.addr(vertex * self.ELEMENT_SIZE)
        if is_write:
            self.system.store(addr, self.ELEMENT_SIZE)
        else:
            self.system.load(addr, self.ELEMENT_SIZE)

    def _stream_edges(self, first_edge: int, count: int) -> None:
        """Charge a sequential cache-line stream over an edge range."""
        if count <= 0:
            return
        start = first_edge * self.ELEMENT_SIZE
        end = (first_edge + count) * self.ELEMENT_SIZE
        line = self._line
        addr = (start // line) * line
        while addr < end:
            self.system.load(self.edges_region.addr(addr), line)
            addr += line

    def _touch_indptr(self, vertex: int) -> None:
        self.system.load(
            self.indptr_region.addr(vertex * self.ELEMENT_SIZE), self.ELEMENT_SIZE
        )

    # ------------------------------------------------------------------ #
    # Trace compilation (engine phase 1)
    # ------------------------------------------------------------------ #

    def _iteration_trace(self, target_writes: bool) -> AccessTrace:
        """One iteration's access stream as a flat trace.

        Per vertex, in the scalar charging order: indptr load, own-state
        load, sequential edge-line stream, and — with ``target_writes``
        (PageRank's push phase) — one state store per out-edge target.
        The stream depends only on the graph structure and geometry, so
        it is compiled once and cached on the graph object (the cache is
        keyed by the region base addresses, which repeat across sweep
        cells that map the same graph the same way).

        The compile is vectorised: each vertex owns a segment of
        ``2 + lines + stores`` rows, an exclusive cumsum of the segment
        lengths gives each segment's start, and the edge-line and store
        rows are scattered into place through ``np.repeat`` offsets —
        no Python work per vertex or per row.
        """
        esize = self.ELEMENT_SIZE
        line = self._line
        indptr_base = self.indptr_region.addr(0)
        edges_base = self.edges_region.addr(0)
        state_base = self.state_region.addr(0)
        key = (
            "pagerank-iteration" if target_writes else "vertex-scan",
            line,
            indptr_base,
            edges_base,
            state_base,
        )
        cache = self.graph.__dict__.setdefault("_engine_traces", {})
        trace = cache.get(key)
        if trace is not None:
            return trace
        graph = self.graph
        indptr = np.asarray(graph.indptr, dtype=np.int64)
        degrees = np.diff(indptr)
        first_line, line_counts = _edge_lines(indptr, esize, line)
        seg_lengths = 2 + line_counts
        if target_writes:
            seg_lengths = seg_lengths + degrees
        seg_starts = np.zeros(graph.num_vertices, dtype=np.int64)
        np.cumsum(seg_lengths[:-1], out=seg_starts[1:])
        vertex_offsets = np.arange(graph.num_vertices, dtype=np.int64) * esize

        rows = np.zeros(int(seg_lengths.sum()), dtype=TRACE_DTYPE)
        addr = rows["addr"]
        rows["size"] = esize
        addr[seg_starts] = indptr_base + vertex_offsets
        addr[seg_starts + 1] = state_base + vertex_offsets
        # Edge lines: the k-th line of a vertex sits at its segment start
        # + 2 + k and reads line first_line + k; ``np.repeat`` spreads the
        # per-vertex bases so one arange supplies every k at once.
        total_lines = int(line_counts.sum())
        line_starts = np.zeros(graph.num_vertices, dtype=np.int64)
        np.cumsum(line_counts[:-1], out=line_starts[1:])
        ordinal = np.arange(total_lines, dtype=np.int64)
        line_pos = np.repeat(seg_starts + 2 - line_starts, line_counts) + ordinal
        addr[line_pos] = (
            edges_base + (np.repeat(first_line - line_starts, line_counts) + ordinal) * line
        )
        rows["size"][line_pos] = line
        if target_writes:
            # Stores follow the vertex's edge lines, in edge order.
            store_pos = np.repeat(
                seg_starts + 2 + line_counts - indptr[:-1], degrees
            ) + np.arange(graph.num_edges, dtype=np.int64)
            addr[store_pos] = state_base + np.asarray(graph.indices, dtype=np.int64) * esize
            rows["op"][store_pos] = OP_STORE
        trace = AccessTrace(rows).validate()
        cache[key] = trace
        return trace

    # ------------------------------------------------------------------ #
    # Algorithms
    # ------------------------------------------------------------------ #

    def pagerank(
        self,
        iterations: int = 5,
        damping: float = 0.85,
        charge_accesses: bool = True,
    ) -> np.ndarray:
        """Push-style PageRank; returns the rank vector.

        ``charge_accesses=False`` computes without touching the memory
        system (for verification against a reference implementation).
        """
        if iterations <= 0:
            raise ValueError(f"iterations must be > 0, got {iterations}")
        graph = self.graph
        n = graph.num_vertices
        ranks = np.full(n, 1.0 / n, dtype=np.float64)
        out_degree = np.maximum(1, np.diff(graph.indptr)).astype(np.float64)
        use_engine = charge_accesses and replay_enabled(self.system)
        if use_engine:
            # Replay the compiled iteration stream and do the push-phase
            # math with one edge-ordered scatter-add: np.add.at applies
            # updates in edge order, the same float accumulation sequence
            # as the per-vertex loop, so the ranks are bit-identical.
            trace = self._iteration_trace(target_writes=True)
            degrees = np.diff(graph.indptr)
            for _ in range(iterations):
                replay(self.system, trace)
                next_ranks = np.zeros(n, dtype=np.float64)
                np.add.at(
                    next_ranks, graph.indices, np.repeat(ranks / out_degree, degrees)
                )
                dangling = ranks[degrees == 0].sum()
                ranks = (1.0 - damping) / n + damping * (next_ranks + dangling / n)
            return ranks
        for _ in range(iterations):
            next_ranks = np.zeros(n, dtype=np.float64)
            for vertex in range(n):
                first = int(graph.indptr[vertex])
                last = int(graph.indptr[vertex + 1])
                degree = last - first
                if charge_accesses:
                    self._touch_indptr(vertex)
                    self._touch_state(vertex, is_write=False)  # read own rank
                    self._stream_edges(first, degree)
                if degree == 0:
                    continue
                share = ranks[vertex] / out_degree[vertex]
                targets = graph.indices[first:last]
                np.add.at(next_ranks, targets, share)
                if charge_accesses:
                    for target in targets:
                        self._touch_state(int(target), is_write=True)
            dangling = ranks[np.diff(graph.indptr) == 0].sum()
            ranks = (1.0 - damping) / n + damping * (next_ranks + dangling / n)
        return ranks

    # ------------------------------------------------------------------ #
    # GraphChi-style sharded execution (parallel sliding windows)
    # ------------------------------------------------------------------ #

    def _ensure_csc(self) -> None:
        """Build the target-sorted (CSC) edge layout GraphChi shards use.

        Each shard's edges are stored together with their source values, so
        a shard pass is one sequential stream plus updates confined to the
        shard's vertex interval — that is what lets GraphChi keep the
        active state DRAM-resident for any graph size.
        """
        if hasattr(self, "_csc_sources"):
            return
        graph = self.graph
        order = np.argsort(graph.indices, kind="stable")
        self._csc_sources = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64), np.diff(graph.indptr)
        )[order]
        targets_sorted = graph.indices[order]
        counts = np.bincount(targets_sorted, minlength=graph.num_vertices)
        self._csc_indptr = np.zeros(graph.num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=self._csc_indptr[1:])
        # Shard storage: each edge record carries (source id, source value).
        shard_bytes = max(1, graph.num_edges) * 2 * self.ELEMENT_SIZE
        self.shard_region = self.system.mmap(
            -(-shard_bytes // self.system.page_size), name="graph.shards"
        )

    def _stream_shard(self, first_edge: int, count: int) -> None:
        """Sequential stream over a shard's (source, value) edge records."""
        if count <= 0:
            return
        start = first_edge * 2 * self.ELEMENT_SIZE
        end = (first_edge + count) * 2 * self.ELEMENT_SIZE
        addr = (start // self._line) * self._line
        while addr < end:
            self.system.load(self.shard_region.addr(addr), self._line)
            addr += self._line

    def pagerank_sharded(
        self,
        iterations: int = 5,
        damping: float = 0.85,
        num_shards: Optional[int] = None,
        charge_accesses: bool = True,
    ) -> np.ndarray:
        """PageRank with GraphChi's sharded access pattern.

        Results are identical to :meth:`pagerank`; only the *memory access
        pattern* differs — per shard: one sequential edge stream (records
        carry the source values), writes confined to the shard's vertex
        interval, and a sequential rewrite of the shard's source values at
        the end of the iteration.
        """
        if iterations <= 0:
            raise ValueError(f"iterations must be > 0, got {iterations}")
        self._ensure_csc()
        graph = self.graph
        n = graph.num_vertices
        if num_shards is None:
            num_shards = max(1, n * self.ELEMENT_SIZE // (16 * self.system.page_size))
        if num_shards < 1 or num_shards > n:
            raise ValueError(f"num_shards must be in [1, {n}], got {num_shards}")
        bounds = np.linspace(0, n, num_shards + 1, dtype=np.int64)
        ranks = np.full(n, 1.0 / n, dtype=np.float64)
        out_degree = np.maximum(1, np.diff(graph.indptr)).astype(np.float64)
        for _ in range(iterations):
            next_ranks = np.zeros(n, dtype=np.float64)
            for shard in range(num_shards):
                lo, hi = int(bounds[shard]), int(bounds[shard + 1])
                first = int(self._csc_indptr[lo])
                last = int(self._csc_indptr[hi])
                if charge_accesses:
                    self._stream_shard(first, last - first)
                sources = self._csc_sources[first:last]
                shares = ranks[sources] / out_degree[sources]
                targets_in_shard = np.repeat(
                    np.arange(lo, hi, dtype=np.int64),
                    np.diff(self._csc_indptr[lo : hi + 1]),
                )
                np.add.at(next_ranks, targets_in_shard, shares)
                if charge_accesses:
                    # Window-local updates: one store per touched vertex.
                    for vertex in np.unique(targets_in_shard):
                        self._touch_state(int(vertex), is_write=True)
            if charge_accesses:
                # End of iteration: rewrite the shards' attached source
                # values (sequential, like GraphChi's shard rewrite).
                self._stream_shard(0, graph.num_edges)
            dangling = ranks[np.diff(graph.indptr) == 0].sum()
            ranks = (1.0 - damping) / n + damping * (next_ranks + dangling / n)
        return ranks

    def connected_components(
        self, max_iterations: int = 100, charge_accesses: bool = True
    ) -> np.ndarray:
        """Label propagation over the undirected closure; returns labels.

        Two vertices share a label iff they are weakly connected.
        """
        graph = self.graph
        n = graph.num_vertices
        labels = np.arange(n, dtype=np.int64)
        # Propagate over both edge directions (weak connectivity).
        sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
        targets = graph.indices
        use_engine = charge_accesses and replay_enabled(self.system)
        scan_trace = self._iteration_trace(target_writes=False) if use_engine else None
        state_base = self.state_region.addr(0)
        for _iteration in range(max_iterations):
            changed = False
            if use_engine:
                replay(self.system, scan_trace)
            else:
                for vertex in range(n):
                    first = int(graph.indptr[vertex])
                    last = int(graph.indptr[vertex + 1])
                    if charge_accesses:
                        self._touch_indptr(vertex)
                        self._touch_state(vertex, is_write=False)
                        self._stream_edges(first, last - first)
            # Vectorized min-label exchange along every edge (both ways).
            new_labels = labels.copy()
            np.minimum.at(new_labels, targets, labels[sources])
            np.minimum.at(new_labels, sources, labels[targets])
            if charge_accesses:
                updated = np.nonzero(new_labels != labels)[0]
                if use_engine:
                    if updated.shape[0]:
                        replay(
                            self.system,
                            AccessTrace.stores(
                                state_base + updated * self.ELEMENT_SIZE,
                                self.ELEMENT_SIZE,
                            ),
                        )
                else:
                    for vertex in updated:
                        self._touch_state(int(vertex), is_write=True)
            if not np.array_equal(new_labels, labels):
                changed = True
            labels = new_labels
            if not changed:
                break
        return labels
