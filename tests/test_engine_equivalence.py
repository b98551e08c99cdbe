"""Differential gate for the trace-replay engine (ROADMAP item 1).

Random traces — mixed read/write, multi-thread, skewed and sequential,
promotion-triggering densities — are executed twice against identically
configured systems: once through the scalar ``load``/``store`` loop and
once through :func:`repro.engine.replay`.  Every observable must match
exactly: per-op latencies, stats counters (hit/miss classifications,
promotion decisions), final page-table state, TLB content and order,
DRAM frame state, and the simulated clock.

Two seeded mutants then check the gate has teeth: an off-by-one at a
chunk boundary and a dropped promotion settle must each be caught at the
expected assertion.

The suite-wide sanitizer/domain-tag instrumentation is switched off here
(module fixture): with it on, :func:`repro.engine.guards.fused_blockers`
forces the whole-trace scalar fallback, which is exercised separately in
``test_fallback_under_instrumentation``.
"""

import cProfile
import importlib
import pstats

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.graph_analytics import GraphEngine
from repro.apps.kvstore import KVStore, run_ycsb
from repro.baselines import DRAMOnly, TraditionalStack, UnifiedMMap
from repro.config import EngineConfig, small_config
from repro.core.hierarchy import FlatFlash
from repro.engine import AccessTrace, replay
from repro.sim import domain_tags, sanitizers
from repro.sim.stats import LatencyStats
from repro.workloads.graphs import power_law_graph
from repro.workloads.ycsb import YCSB_A, YCSB_B, YCSB_D, OpType, generate_ops

# The package re-exports the replay *function* under the submodule's
# name, so fetch the module itself for monkeypatching internals.
replay_module = importlib.import_module("repro.engine.replay")

SYSTEMS = {
    "FlatFlash": FlatFlash,
    "UnifiedMMap": UnifiedMMap,
    "TraditionalStack": TraditionalStack,
    "DRAMOnly": DRAMOnly,
}
REGION_PAGES = 24


@pytest.fixture(scope="module", autouse=True)
def _plain_simulators():
    """Shadow instrumentation off, so the fused fast path actually runs."""
    previous_sanitizers = sanitizers.set_default_enabled(False)
    previous_tags = domain_tags.set_enabled(False)
    yield
    sanitizers.set_default_enabled(previous_sanitizers)
    domain_tags.set_enabled(previous_tags)


def build_system(kind_name, track_data=False, chunk_ops=64, dram_store_ns=None):
    """A small system + one mapped region; tiny chunks exercise chunking."""
    config = small_config(
        track_data=track_data, engine=EngineConfig(enabled=True, chunk_ops=chunk_ops)
    )
    if dram_store_ns is not None:
        config.latency.dram_store_ns = dram_store_ns
    if kind_name == "DRAMOnly":
        config.geometry.dram_pages = REGION_PAGES + 8
    kind = SYSTEMS[kind_name]
    system = kind(config)
    region = system.mmap(REGION_PAGES)
    return system, region


def observable_state(system):
    """Everything the scalar path can have mutated, exactly."""
    page_table = {
        vpn: (pte.domain.name, pte.present, pte.frame_index, pte.ssd_page, pte.persist)
        for vpn, pte in system.page_table._entries.items()
    }
    tlb_order = list(system.tlb._cached.keys())
    frames = [
        (
            frame.index,
            frame.vpn,
            frame.dirty,
            frame.referenced,
            None if frame.data is None else bytes(frame.data),
        )
        for frame in system.dram.frames
    ]
    return {
        "page_table": page_table,
        "tlb": tlb_order,
        "frames": frames,
        "clock": system.clock.now,
        "stats": system.stats.snapshot(),
    }


def run_scalar(system, trace):
    """Reference semantics: one public load/store per trace row."""
    latencies = []
    for addr, size, op, _thread, _ts in trace.rows.tolist():
        if op:
            result = system.store(int(addr), int(size))
        else:
            result = system.load(int(addr), int(size))
        latencies.append(result.latency_ns)
    return latencies


def assert_equivalent(kind_name, trace, track_data=False, chunk_ops=64, dram_store_ns=None):
    scalar_system, _ = build_system(kind_name, track_data, chunk_ops, dram_store_ns)
    engine_system, _ = build_system(kind_name, track_data, chunk_ops, dram_store_ns)
    scalar_latencies = run_scalar(scalar_system, trace)
    result = replay(engine_system, trace)
    assert result.blockers == [], "fused mode unexpectedly off"
    assert result.latencies.tolist() == scalar_latencies, "latencies diverged"
    scalar_state = observable_state(scalar_system)
    engine_state = observable_state(engine_system)
    for key in scalar_state:
        assert engine_state[key] == scalar_state[key], f"{kind_name} diverged on {key}"
    return result


# --------------------------------------------------------------------- #
# Hypothesis-generated traces
# --------------------------------------------------------------------- #

page = 4096


@st.composite
def traces(draw, max_ops=120):
    """Mixed-shape traces over the mapped region, as (addr, size, op) rows."""
    num_ops = draw(st.integers(min_value=1, max_value=max_ops))
    shape = draw(st.sampled_from(["uniform", "hot", "sequential"]))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        addrs = rng.integers(0, REGION_PAGES * page - 128, size=num_ops)
    elif shape == "hot":
        # High page reuse: SSD-resident pages cross FlatFlash's promotion
        # threshold, so in-flight promotions and settles get exercised.
        hot_pages = rng.integers(0, max(2, REGION_PAGES // 8), size=num_ops)
        addrs = hot_pages * page + rng.integers(0, page - 64, size=num_ops)
    else:
        stride = draw(st.sampled_from([8, 64, 256]))
        addrs = (np.arange(num_ops, dtype=np.int64) * stride) % (REGION_PAGES * page - 128)
    sizes = rng.choice([1, 8, 64, 100, 128], size=num_ops)
    ops = rng.integers(0, 2, size=num_ops)
    threads = rng.integers(0, 4, size=num_ops)
    return addrs.astype(np.int64), sizes.astype(np.int64), ops, threads


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=traces(),
    kind_name=st.sampled_from(sorted(SYSTEMS)),
    track_data=st.booleans(),
    # A store dearer than a load keeps a load/store mix-up in the fused
    # tallies visible; the default config prices both at 100 ns.
    dram_store_ns=st.sampled_from([None, 130]),
)
def test_random_traces_equivalent(rows, kind_name, track_data, dram_store_ns):
    addrs, sizes, ops, threads = rows
    base = build_system(kind_name)[1].addr(0)
    trace = AccessTrace.from_columns(base + addrs, sizes, ops, threads=threads)
    assert_equivalent(kind_name, trace, track_data=track_data, dram_store_ns=dram_store_ns)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chunk_ops=st.integers(min_value=1, max_value=130), seed=st.integers(0, 2**31))
def test_chunk_boundaries_invisible(chunk_ops, seed):
    """Chunk size is an implementation detail: any value replays the same."""
    rng = np.random.default_rng(seed)
    num_ops = 128
    addrs = rng.integers(0, REGION_PAGES * page - 128, size=num_ops).astype(np.int64)
    trace = AccessTrace.interleaved_rw(addrs, 8)
    assert_equivalent("FlatFlash", trace, chunk_ops=chunk_ops)


def test_promotion_decisions_match():
    """Hot SSD pages cross the promotion threshold identically both ways."""
    rng = np.random.default_rng(3)
    hot = rng.integers(0, 3, size=400) * page + rng.integers(0, page - 8, size=400)
    trace = AccessTrace.interleaved_rw(hot.astype(np.int64), 8)
    scalar_system, _ = build_system("FlatFlash")
    engine_system, _ = build_system("FlatFlash")
    run_scalar(scalar_system, trace)
    replay(engine_system, trace)
    promoted_scalar = scalar_system.stats.counters().get("mem.promotions", 0)
    promoted_engine = engine_system.stats.counters().get("mem.promotions", 0)
    assert promoted_scalar == promoted_engine
    assert observable_state(scalar_system) == observable_state(engine_system)


def test_fallback_under_instrumentation():
    """Sanitizers active -> whole-trace scalar fallback, still exact."""
    previous = sanitizers.set_default_enabled(True)
    try:
        rng = np.random.default_rng(5)
        addrs = rng.integers(0, REGION_PAGES * page - 128, size=60).astype(np.int64)
        trace = AccessTrace.interleaved_rw(addrs, 8)
        scalar_system, _ = build_system("FlatFlash")
        engine_system, _ = build_system("FlatFlash")
        scalar_latencies = run_scalar(scalar_system, trace)
        result = replay(engine_system, trace)
        assert result.blockers  # fused mode refused, not silently wrong
        assert result.fused_ops == 0
        assert result.latencies.tolist() == scalar_latencies
        assert observable_state(scalar_system) == observable_state(engine_system)
    finally:
        sanitizers.set_default_enabled(previous)


def test_raising_replay_leaves_scalar_state():
    """An unmapped row raises exactly like scalar, with stats flushed."""
    scalar_system, region = build_system("FlatFlash")
    engine_system, _ = build_system("FlatFlash")
    good = region.addr(0) + np.arange(10, dtype=np.int64) * 8
    unmapped = np.int64(REGION_PAGES * page * 64)
    addrs = np.concatenate([good, [unmapped]])
    trace = AccessTrace.loads(addrs, 8)
    with pytest.raises(KeyError) as scalar_err:
        run_scalar(scalar_system, trace)
    with pytest.raises(KeyError) as engine_err:
        replay(engine_system, trace)
    assert str(scalar_err.value) == str(engine_err.value)
    assert observable_state(scalar_system) == observable_state(engine_system)


# --------------------------------------------------------------------- #
# Seeded mutants: the gate must catch them at the expected assertion
# --------------------------------------------------------------------- #


def test_mutant_chunk_boundary_off_by_one_is_caught(monkeypatch):
    """Dropping the row straddling a chunk boundary must trip the gate."""

    real = replay_module._replay_fused

    def mutant_replay_fused(system, rows, latencies):
        return real(system, rows[:-1], latencies[:-1])

    monkeypatch.setattr(replay_module, "_replay_fused", mutant_replay_fused)
    rng = np.random.default_rng(9)
    addrs = rng.integers(0, REGION_PAGES * page - 128, size=64).astype(np.int64)
    trace = AccessTrace.interleaved_rw(addrs, 8)
    with pytest.raises(AssertionError, match="latencies diverged"):
        assert_equivalent("FlatFlash", trace, chunk_ops=64)


def test_mutant_dropped_promotion_is_caught(monkeypatch):
    """Skipping promotion settles must show up in page-table/frame state."""
    monkeypatch.setattr(FlatFlash, "_settle_promotions", lambda self: None)
    rng = np.random.default_rng(3)
    hot = rng.integers(0, 3, size=400) * page + rng.integers(0, page - 8, size=400)
    trace = AccessTrace.interleaved_rw(hot.astype(np.int64), 8)
    engine_system, _ = build_system("FlatFlash")
    replay(engine_system, trace)
    mutated = observable_state(engine_system)
    monkeypatch.undo()
    reference_system, _ = build_system("FlatFlash")
    replay(reference_system, trace)
    reference = observable_state(reference_system)
    assert mutated != reference  # the suite's state comparison catches it
    assert mutated["page_table"] != reference["page_table"]


# --------------------------------------------------------------------- #
# Call budget of a fused row
# --------------------------------------------------------------------- #

#: The calls a fused row may make: the PTE peek (``dict.get``), the TLB and
#: DRAM LRU moves, and on a TLB miss the fill's capacity test and eviction.
PTE_PEEK = "<method 'get' of 'dict' objects>"
LRU_MOVE = "<method 'move_to_end' of 'collections.OrderedDict' objects>"
TLB_EVICT = "<method 'popitem' of 'collections.OrderedDict' objects>"
TLB_FULL = "<built-in method builtins.len>"
#: Calls a replay makes outside its row loop (set-up, per chunk, flush).
SETUP_CALLS = 16


def test_fused_rows_make_no_bookkeeping_calls():
    """An all-DRAM-resident replay calls nothing per row but the PTE peek
    and the LRU moves: no latency ``append``, no tally ``dict.get``."""
    config = small_config(engine=EngineConfig(enabled=True))
    config.geometry.dram_pages = 64
    config.geometry.tlb_entries = 8
    system = DRAMOnly(config.validate())
    region = system.mmap(48)
    rng = np.random.default_rng(7)
    words = rng.integers(0, 48 * page // 8, size=2_000)
    # Load then store per word: the store hits the TLB, most loads miss.
    trace = AccessTrace.interleaved_rw(region.addr(0) + words * 8, 8)
    replay(system, trace)  # warm-up: every page mapped, the TLB full
    hits_before = system.tlb._hits.hits
    profiler = cProfile.Profile()
    profiler.enable()
    result = replay(system, trace)
    profiler.disable()
    rows = len(trace)
    assert result.fused_ops == rows
    hits = system.tlb._hits.hits - hits_before
    misses = rows - hits
    assert 0 < hits < rows
    calls = {func[2]: stat[1] for func, stat in pstats.Stats(profiler).stats.items()}
    assert calls.get("<method 'append' of 'list' objects>", 0) == 0
    assert rows <= calls[PTE_PEEK] <= rows + SETUP_CALLS
    assert calls[LRU_MOVE] == rows + hits
    assert calls[TLB_EVICT] == misses
    assert misses <= calls[TLB_FULL] <= misses + SETUP_CALLS
    per_row = {PTE_PEEK, LRU_MOVE, TLB_EVICT, TLB_FULL}
    others = {name: count for name, count in calls.items() if name not in per_row}
    assert max(others.values()) <= SETUP_CALLS, others


# --------------------------------------------------------------------- #
# Graph workloads: engine on vs engine off
# --------------------------------------------------------------------- #

graph_module = importlib.import_module("repro.apps.graph_analytics")


def assert_every_row_delegated(replays):
    """Engine off: the same compiled stream ran, with no row fused."""
    assert replays, "the engine-off run replayed nothing"
    for result in replays:
        assert result.fused_ops == 0
        assert result.delegated_ops == result.total_ops > 0
        assert "engine disabled by config" in result.blockers


def run_graph(algorithm, engine, chunk_ops):
    """One graph app on FlatFlash; its footprint is ~4x DRAM."""
    graph = power_law_graph(800, avg_degree=6.0, seed=17)
    config = small_config(engine=EngineConfig(enabled=engine, chunk_ops=chunk_ops))
    config.geometry.dram_pages = 4
    app = GraphEngine(FlatFlash(config.validate()), graph)
    if algorithm == "pagerank":
        values = app.pagerank(iterations=2)
    else:
        values = app.connected_components(max_iterations=3)
    state = observable_state(app.system)
    state["background_ns"] = app.system.background_ns
    return values, state


@pytest.mark.parametrize("chunk_ops", [1, 7, EngineConfig().chunk_ops])
@pytest.mark.parametrize("algorithm", ["pagerank", "connected_components"])
def test_graph_engine_matches_scalar(algorithm, chunk_ops, monkeypatch):
    replays = []
    real = graph_module.replay

    def spying(system, trace):
        result = real(system, trace)
        replays.append(result)
        return result

    monkeypatch.setattr(graph_module, "replay", spying)
    scalar_values, scalar_state = run_graph(algorithm, engine=False, chunk_ops=chunk_ops)
    assert_every_row_delegated(replays)
    replays.clear()
    engine_values, engine_state = run_graph(algorithm, engine=True, chunk_ops=chunk_ops)
    assert engine_values.tobytes() == scalar_values.tobytes()
    for key in scalar_state:
        assert engine_state[key] == scalar_state[key], f"{algorithm} diverged on {key}"
    assert all(result.blockers == [] for result in replays)
    assert sum(result.fused_ops for result in replays) > 0
    assert sum(result.delegated_ops for result in replays) > 0
    assert engine_state["stats"]["mem.promotions"] > 0


# --------------------------------------------------------------------- #
# run_ycsb, engine on and off, vs the per-op reference KV driver
# --------------------------------------------------------------------- #

kvstore_module = importlib.import_module("repro.apps.kvstore")
ycsb_module = importlib.import_module("repro.workloads.ycsb")

#: 64-byte records filling the whole mapped region, all of them drawn
#: from: 24 pages over 16 DRAM frames, so paging systems keep faulting.
KV_RECORDS = REGION_PAGES * page // 64


def build_store(kind_name, engine, chunk_ops=64):
    """A KV store over the region; tiny chunks split the run into many."""
    config = small_config(engine=EngineConfig(enabled=engine, chunk_ops=chunk_ops))
    if kind_name == "DRAMOnly":
        config.geometry.dram_pages = REGION_PAGES + 8
    return KVStore(SYSTEMS[kind_name](config), capacity_records=KV_RECORDS)


def ycsb_state(store):
    state = observable_state(store.system)
    state["background_ns"] = store.system.background_ns
    return state


def spy_replays(monkeypatch):
    """Record every ReplayResult run_ycsb produces."""
    results = []
    real = kvstore_module.replay

    def spying(system, trace):
        result = real(system, trace)
        results.append(result)
        return result

    monkeypatch.setattr(kvstore_module, "replay", spying)
    return results


def reference_run_ycsb(store, workload, num_ops, num_records, seed):
    """The reference driver: one get or put per ``generate_ops`` op, keys
    wrapped to the store's capacity, each op counted before its access."""
    stats = LatencyStats(workload.name)
    for op, key in generate_ops(workload, num_ops, num_records, seed=seed):
        if key >= store.capacity_records:
            key = key % store.capacity_records
        if op is OpType.READ:
            _value, latency = store.get(key)
        else:
            latency = store.put(key)
        stats.record(latency)
    return stats


def assert_ycsb_equivalent(
    kind_name, workload, num_ops=600, seed=3, chunk_ops=64, engine_on=True
):
    """``run_ycsb`` matches the per-op reference driver exactly."""
    scalar_store = build_store(kind_name, engine=False)
    engine_store = build_store(kind_name, engine=engine_on, chunk_ops=chunk_ops)
    scalar = reference_run_ycsb(scalar_store, workload, num_ops, KV_RECORDS, seed=seed)
    engine = run_ycsb(engine_store, workload, num_ops, KV_RECORDS, seed=seed)
    assert engine.samples == scalar.samples, "samples diverged"
    assert (engine.count, engine.total, engine.minimum, engine.maximum) == (
        scalar.count,
        scalar.total,
        scalar.minimum,
        scalar.maximum,
    )
    scalar_state = ycsb_state(scalar_store)
    engine_state = ycsb_state(engine_store)
    for key in scalar_state:
        assert engine_state[key] == scalar_state[key], f"{kind_name} diverged on {key}"


@pytest.mark.parametrize("kind_name", sorted(SYSTEMS))
@pytest.mark.parametrize("workload", [YCSB_A, YCSB_B, YCSB_D], ids=lambda w: w.name)
def test_run_ycsb_engine_matches_scalar(kind_name, workload, monkeypatch):
    replays = spy_replays(monkeypatch)
    chunks = -(-600 // 64)  # one replay per compiled chunk
    assert_ycsb_equivalent(kind_name, workload, engine_on=False)
    assert len(replays) == chunks
    assert_every_row_delegated(replays)
    replays.clear()
    assert_ycsb_equivalent(kind_name, workload)
    assert len(replays) == chunks
    assert all(result.blockers == [] for result in replays)
    if kind_name == "UnifiedMMap":
        assert sum(result.fused_ops for result in replays) > 0


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chunk_ops=st.integers(min_value=1, max_value=700), seed=st.integers(0, 2**16))
def test_run_ycsb_chunk_size_invisible(chunk_ops, seed):
    assert_ycsb_equivalent("UnifiedMMap", YCSB_D, num_ops=300, seed=seed, chunk_ops=chunk_ops)


def assert_ycsb_raises_alike(kind_name, arm, error):
    """The reference driver and ``run_ycsb`` with the engine off and on all
    raise ``error`` at the same op and leave the same state."""
    stores = []
    for driver, engine in (
        (reference_run_ycsb, False),
        (run_ycsb, False),
        (run_ycsb, True),
    ):
        store = build_store(kind_name, engine=engine)
        arm(store.system)
        with pytest.raises(error):
            driver(store, YCSB_A, 600, KV_RECORDS, seed=5)
        stores.append(store)
    counters = [store.system.stats.counters() for store in stores]
    ops = [c.get("kv.gets", 0) + c.get("kv.puts", 0) for c in counters]
    assert 64 < ops[0] < 600 and ops[0] % 64 != 1  # raised mid-chunk, not at its start
    for store, store_counters in zip(stores[1:], counters[1:]):
        for name in ("kv.gets", "kv.puts"):
            assert store_counters.get(name) == counters[0].get(name), name
        assert ycsb_state(store) == ycsb_state(stores[0])


def reference_clock_at(kind_name, op_index):
    """Simulated time at which the reference run starts op ``op_index``."""
    store = build_store(kind_name, engine=False)
    stats = reference_run_ycsb(store, YCSB_A, 600, KV_RECORDS, seed=5)
    return sum(stats.samples[:op_index])


@pytest.mark.parametrize("kind_name", ["FlatFlash", "UnifiedMMap"])
def test_run_ycsb_power_loss_mid_chunk(kind_name):
    from repro.sim.clock import PowerLossTriggered

    deadline = reference_clock_at(kind_name, 300) + 1
    assert_ycsb_raises_alike(
        kind_name, lambda system: system.clock.arm_power_loss(deadline), PowerLossTriggered
    )


def test_run_ycsb_fault_raised_on_delegated_row():
    """A page fault that raises mid-chunk on the fused path (no blockers)."""
    from repro.host.page_table import Domain

    start = reference_clock_at("UnifiedMMap", 300)

    class InjectedMediaError(Exception):
        pass

    def arm(system):
        real = system._access_page

        def failing(vpn, offset, size, is_write, data):
            pte = system.page_table._entries.get(vpn)
            resident = pte is not None and pte.present and pte.domain is Domain.DRAM
            if not resident and system.clock.now >= start:
                raise InjectedMediaError(vpn)
            return real(vpn, offset, size, is_write, data)

        system._access_page = failing

    assert_ycsb_raises_alike("UnifiedMMap", arm, InjectedMediaError)


def test_mutant_shifted_ycsb_chunk_boundary_is_caught(monkeypatch):
    """A compile chunk starting one op after its predecessor ended must
    trip the run_ycsb gate."""

    def shifted(num_ops, chunk_ops):
        for start in range(0, num_ops, chunk_ops):
            yield start + (start > 0), min(start + chunk_ops, num_ops)

    monkeypatch.setattr(ycsb_module, "chunk_bounds", shifted)
    with pytest.raises(AssertionError, match="samples diverged"):
        assert_ycsb_equivalent("UnifiedMMap", YCSB_A)
