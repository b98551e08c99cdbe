"""Tests for the graph engine: results must be *correct*, not just timed."""

import importlib

import numpy as np
import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DRAMOnly, FlatFlash, small_config
from repro.apps.graph_analytics import GraphEngine
from repro.engine import AccessTrace
from repro.workloads.graphs import CSRGraph, connected_pairs_graph, power_law_graph

graph_analytics_module = importlib.import_module("repro.apps.graph_analytics")


def to_networkx(graph: CSRGraph) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(graph.num_vertices))
    for source in range(graph.num_vertices):
        for target in graph.neighbors(source):
            g.add_edge(source, int(target))
    return g


@pytest.fixture
def small_graph():
    return power_law_graph(120, avg_degree=5, seed=11)


def make_engine(graph, system_cls=FlatFlash):
    config = small_config(track_data=False)
    return GraphEngine(system_cls(config), graph)


def test_pagerank_sums_to_one(small_graph):
    engine = make_engine(small_graph)
    ranks = engine.pagerank(iterations=3)
    assert ranks.sum() == pytest.approx(1.0, abs=1e-6)


def test_pagerank_matches_networkx(small_graph):
    engine = make_engine(small_graph)
    ours = engine.pagerank(iterations=40, charge_accesses=False)
    reference = nx.pagerank(
        to_networkx(small_graph), alpha=0.85, max_iter=200, tol=1e-10
    )
    ref = np.array([reference[v] for v in range(small_graph.num_vertices)])
    # Parallel-edge handling can differ slightly; ordering must agree at top.
    top_ours = set(np.argsort(ours)[-5:])
    top_ref = set(np.argsort(ref)[-5:])
    assert len(top_ours & top_ref) >= 4
    assert np.corrcoef(ours, ref)[0, 1] > 0.98


def test_pagerank_same_result_with_and_without_charging(small_graph):
    engine_a = make_engine(small_graph)
    engine_b = make_engine(small_graph)
    charged = engine_a.pagerank(iterations=3, charge_accesses=True)
    free = engine_b.pagerank(iterations=3, charge_accesses=False)
    assert np.allclose(charged, free)


def test_pagerank_charges_memory_accesses(small_graph):
    engine = make_engine(small_graph)
    engine.pagerank(iterations=1)
    counters = engine.system.stats.counters()
    assert counters["mem.loads"] > small_graph.num_vertices


def test_connected_components_ground_truth():
    graph = connected_pairs_graph(60, num_components=5, seed=12)
    engine = make_engine(graph)
    labels = engine.connected_components(max_iterations=100)
    assert len(set(labels.tolist())) == 5


def test_connected_components_members_share_labels():
    graph = connected_pairs_graph(40, num_components=2, seed=13)
    engine = make_engine(graph)
    labels = engine.connected_components(max_iterations=100)
    reference = nx.weakly_connected_components(to_networkx(graph))
    for component in reference:
        values = {int(labels[v]) for v in component}
        assert len(values) == 1


def test_invalid_iterations_rejected(small_graph):
    engine = make_engine(small_graph)
    with pytest.raises(ValueError):
        engine.pagerank(iterations=0)


def test_engine_maps_three_regions(small_graph):
    engine = make_engine(small_graph)
    names = [region.name for region in engine.system.regions]
    assert any("indptr" in name for name in names)
    assert any("edges" in name for name in names)
    assert any("state" in name for name in names)


def test_results_identical_across_systems(small_graph):
    flat = make_engine(small_graph, FlatFlash).pagerank(iterations=2)
    dram = GraphEngine(
        DRAMOnly(small_config(track_data=False).scaled(dram_pages=4_096)), small_graph
    ).pagerank(iterations=2)
    assert np.allclose(flat, dram)


class TestShardedPageRank:
    def test_results_match_unsharded(self, small_graph=None):
        graph = power_law_graph(300, avg_degree=6, seed=21)
        plain = make_engine(graph).pagerank(iterations=4, charge_accesses=False)
        sharded = make_engine(graph).pagerank_sharded(
            iterations=4, num_shards=5, charge_accesses=False
        )
        assert np.allclose(plain, sharded)

    def test_single_shard_equals_unsharded(self):
        graph = power_law_graph(200, avg_degree=5, seed=22)
        plain = make_engine(graph).pagerank(iterations=2, charge_accesses=False)
        sharded = make_engine(graph).pagerank_sharded(
            iterations=2, num_shards=1, charge_accesses=False
        )
        assert np.allclose(plain, sharded)

    def test_shard_bounds_validated(self):
        graph = power_law_graph(100, avg_degree=4, seed=23)
        engine = make_engine(graph)
        with pytest.raises(ValueError):
            engine.pagerank_sharded(num_shards=0)
        with pytest.raises(ValueError):
            engine.pagerank_sharded(iterations=0)

    def test_sharded_charges_sequential_streams(self):
        graph = power_law_graph(300, avg_degree=6, seed=24)
        engine = make_engine(graph)
        engine.pagerank_sharded(iterations=1, num_shards=4)
        names = [region.name for region in engine.system.regions]
        assert any("shards" in name for name in names)
        assert engine.system.stats.counters()["mem.loads"] > 0

    def test_sharded_keeps_window_writes_local(self):
        """The write working set per shard pass is the shard interval, so
        with shards sized under DRAM the paging baselines stop thrashing."""
        from repro import UnifiedMMap

        # Vertex state (4 pages) exceeds DRAM (2 frames): the unsharded
        # engine's scattered writes thrash, the sharded windows do not.
        graph = power_law_graph(2_000, avg_degree=3, seed=25)

        def run(shards):
            config = small_config(track_data=False)
            config.geometry.dram_pages = 2
            config.geometry.ssd_pages = 8_192
            engine = GraphEngine(UnifiedMMap(config.validate()), graph)
            if shards is None:
                engine.pagerank(iterations=1)
            else:
                engine.pagerank_sharded(iterations=1, num_shards=shards)
            return engine.system.page_movements

        assert run(4) < run(None) / 5


# --------------------------------------------------------------------- #
# Compiled iteration trace vs the per-vertex reference generator
# --------------------------------------------------------------------- #


def reference_iteration_trace(engine, target_writes):
    """The iteration stream built one vertex at a time, in the scalar
    charging order: indptr load, own-state load, the vertex's edge cache
    lines, then (``target_writes``) one state store per out-edge."""
    esize = engine.ELEMENT_SIZE
    line = engine._line
    indptr_base = engine.indptr_region.addr(0)
    edges_base = engine.edges_region.addr(0)
    state_base = engine.state_region.addr(0)
    graph = engine.graph
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    addrs, sizes, ops = [], [], []
    for vertex in range(graph.num_vertices):
        first = indptr[vertex]
        last = indptr[vertex + 1]
        addrs += [indptr_base + vertex * esize, state_base + vertex * esize]
        sizes += [esize, esize]
        ops += [0, 0]
        if last > first:
            edge_addr = (first * esize // line) * line
            end = last * esize
            while edge_addr < end:
                addrs.append(edges_base + edge_addr)
                sizes.append(line)
                ops.append(0)
                edge_addr += line
            if target_writes:
                for target in indices[first:last]:
                    addrs.append(state_base + target * esize)
                    sizes.append(esize)
                    ops.append(1)
    return AccessTrace.from_columns(addrs, sizes, ops)


def graph_from_degrees(degrees, seed):
    degrees = np.asarray(degrees, dtype=np.int64)
    indptr = np.zeros(degrees.shape[0] + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    targets = np.random.default_rng(seed).integers(0, degrees.shape[0], size=int(indptr[-1]))
    return CSRGraph(int(degrees.shape[0]), indptr, targets.astype(np.int64))


def engine_with_line(graph, line):
    config = small_config(track_data=False)
    config.geometry.cacheline_size = line
    return GraphEngine(FlatFlash(config.validate()), graph)


def assert_trace_matches_reference(engine, target_writes):
    compiled = engine._iteration_trace(target_writes=target_writes).rows
    reference = reference_iteration_trace(engine, target_writes).rows
    assert compiled.shape == reference.shape, "row count differs from the reference"
    assert compiled.tobytes() == reference.tobytes(), "rows differ from the reference"


@settings(max_examples=60, deadline=None)
@given(
    degrees=st.lists(
        st.one_of(st.just(0), st.integers(1, 20), st.integers(500, 700)),
        min_size=1,
        max_size=12,
    ),
    line=st.sampled_from([32, 64, 128]),
    target_writes=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_compiled_iteration_trace_matches_reference(degrees, line, target_writes, seed):
    """Zero-degree vertices, one-vertex graphs, edge ranges on and off
    cache-line boundaries and edge streams crossing a page all compile to
    the reference rows."""
    engine = engine_with_line(graph_from_degrees(degrees, seed), line)
    assert_trace_matches_reference(engine, target_writes)


#: Degrees whose edge ranges start and end off every line boundary (8-byte
#: edges: the ends fall at bytes 24 and 4_824), the long one crossing the
#: edge region's first page, with zero-degree vertices in between.
UNALIGNED_DEGREES = [3, 0, 600, 5, 0]


@pytest.mark.parametrize("line", [32, 64, 128])
@pytest.mark.parametrize("degrees", [[0], [7], UNALIGNED_DEGREES], ids=str)
@pytest.mark.parametrize("target_writes", [True, False])
def test_compiled_iteration_trace_edge_cases(degrees, line, target_writes):
    engine = engine_with_line(graph_from_degrees(degrees, seed=1), line)
    assert_trace_matches_reference(engine, target_writes)


def test_mutant_missing_unaligned_end_line_is_caught(monkeypatch):
    """A compiler that drops the last edge line when a range ends off a
    line boundary must fail the reference comparison."""

    def one_line_short(indptr, esize, line):
        start = indptr[:-1] * esize
        end = indptr[1:] * esize
        first_line = start // line
        return first_line, np.where(end > start, end // line - first_line, 0)

    monkeypatch.setattr(graph_analytics_module, "_edge_lines", one_line_short)
    engine = engine_with_line(graph_from_degrees(UNALIGNED_DEGREES, seed=1), 64)
    with pytest.raises(AssertionError, match="row count differs"):
        assert_trace_matches_reference(engine, target_writes=True)
