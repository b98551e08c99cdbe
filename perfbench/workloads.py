"""The four benchmark workloads, each driven through its public entry point.

Every workload is one closed-loop, single-threaded batch of operations on
a freshly built memory system (pagerank: one per graph) whose modelled
caches (TLB, CPU cache, DRAM, SSD-Cache, PLB) start empty, exactly as in
the sweep cell that uses the same entry point: users pay that fill on
every experiment.  ``setup`` builds the configuration, the systems, their
mappings and the inputs; ``run``
issues the operations through the entry point, and ``outcome`` turns its
return value into an :class:`Outcome` whose digest covers every simulated
quantity (clock, background time, every stat).

The seed drives every RNG and the graph generator, so one seed always
gives the same inputs and the same digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.apps import database, graph_analytics, kvstore
from repro.config import EngineConfig
from repro.experiments.common import build_system, scaled_config
from repro.sim.sanitizers import SanitizerConfig
from repro.workloads import graphs, gups, oltp, ycsb


@dataclass
class Episode:
    """The memory systems set up for one batch of operations."""

    #: One fresh system per input (pagerank runs several graphs a batch).
    systems: List[Any]
    seed: int
    #: Operations the batch will issue (the unit of ``ops_per_s``).
    planned_ops: int
    #: Workload-specific inputs and application objects.
    parts: Dict[str, Any] = field(default_factory=dict)

    @property
    def system(self) -> Any:
        """The system of a workload that builds only one."""
        (system,) = self.systems
        return system


@dataclass
class Outcome:
    """What one batch did, in simulated terms."""

    ops: int
    sim_ns: int
    digest: str
    counters: Dict[str, int]
    #: Workload-specific results kept for the output checks.
    extra: Dict[str, Any] = field(default_factory=dict)


def simulated_digest(systems: List[Any], result: Dict[str, Any]) -> str:
    """SHA-256 over each system's clock, background time and every stat,
    and ``result``."""
    payload = {
        "systems": [
            {
                "clock_ns": system.clock.now,
                "background_ns": system.background_ns,
                "stats": system.stats.snapshot(),
            }
            for system in systems
        ],
        "result": result,
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def total_counters(systems: List[Any]) -> Dict[str, int]:
    """Every counter summed over ``systems``."""
    total: Dict[str, int] = {}
    for system in systems:
        for name, value in system.stats.counters().items():
            total[name] = total.get(name, 0) + value
    return total


def merged_stats(systems: List[Any]) -> Dict[str, float]:
    """``StatRegistry.as_dict`` over ``systems``: counts add up, and every
    ratio and mean is taken again over the pooled samples."""
    merged: Dict[str, float] = {}
    weighted: Dict[str, float] = {}
    for system in systems:
        flat = system.stats.as_dict()
        for key, value in flat.items():
            stem, _, kind = key.rpartition(".")
            if kind == "ratio":
                weighted[key] = weighted.get(key, 0.0) + value * flat[f"{stem}.total"]
            elif kind == "mean_ns":
                weighted[key] = weighted.get(key, 0.0) + value * flat[f"{stem}.count"]
            else:
                merged[key] = merged.get(key, 0) + value
    for key, value in weighted.items():
        stem, _, kind = key.rpartition(".")
        base = merged[f"{stem}.total" if kind == "ratio" else f"{stem}.count"]
        merged[key] = value / base if base else 0.0
    return merged


def accesses(system: Any) -> int:
    counters = system.stats.counters()
    return counters.get("mem.loads", 0) + counters.get("mem.stores", 0)


def _config(sanitizers: bool, engine: bool, track_data: bool, **geometry: Any):
    overrides: Dict[str, Any] = {}
    if sanitizers:
        overrides["sanitizers"] = SanitizerConfig.all()
    if not engine:
        overrides["engine"] = EngineConfig(enabled=False)
    return scaled_config(track_data=track_data, **geometry, **overrides)


OnSystem = Optional[Callable[[Any], None]]


class Workload:
    """One benchmark workload: its sizes, set-up, batch and output checks."""

    name = ""

    def __init__(self, **sizes: int) -> None:
        self.sizes = sizes

    def setup(
        self,
        seed: int,
        sanitizers: bool = False,
        engine: bool = True,
        track_data: bool = False,
        on_system: OnSystem = None,
    ) -> Episode:
        raise NotImplementedError

    def run(self, episode: Episode) -> Any:
        """Issue the batch through the public entry point; returns its value."""
        raise NotImplementedError

    def outcome(self, episode: Episode, value: Any) -> Outcome:
        """Digest a finished batch (kept out of the timed region)."""
        raise NotImplementedError

    def checks(self, seed: int, outcome: Outcome) -> List[str]:
        """Workload-specific output checks; returns the failures."""
        raise NotImplementedError


def _built(system: Any, on_system: OnSystem) -> Any:
    if on_system is not None:
        on_system(system)
    return system


class GUPS(Workload):
    """HPCC RandomAccess on FlatFlash through ``run_gups``."""

    name = "gups"

    def setup(self, seed, sanitizers=False, engine=True, track_data=False, on_system=None):
        dram_pages = self.sizes["dram_pages"]
        config = _config(
            sanitizers, engine, track_data, dram_pages=dram_pages, ssd_to_dram=512
        )
        system = _built(build_system("FlatFlash", config), on_system)
        region = system.mmap(dram_pages * 16, name="gups-table")
        updates = self.sizes["updates"]
        return Episode(
            [system],
            seed,
            planned_ops=2 * updates,
            parts={"region": region, "rng": np.random.default_rng(seed), "updates": updates},
        )

    def run(self, episode):
        parts = episode.parts
        return gups.run_gups(
            episode.system, parts["region"], parts["updates"], rng=parts["rng"]
        )

    def outcome(self, episode, result):
        system = episode.system
        fields = {
            "updates": result.updates,
            "elapsed_ns": result.elapsed_ns,
            "page_movements": result.page_movements,
        }
        return Outcome(
            ops=accesses(system),
            sim_ns=result.elapsed_ns,
            digest=simulated_digest([system], fields),
            counters=system.stats.counters(),
        )

    def checks(self, seed, outcome):
        """``run_gups(verify=True)`` with payloads on must leave the table
        equal to a numpy XOR reference drawn from the same seed."""
        check = self.setup(seed, track_data=True)
        system = check.system
        region = check.parts["region"]
        updates = check.parts["updates"]
        gups.run_gups(system, region, updates, rng=np.random.default_rng(seed), verify=True)
        table = bytearray()
        for page in range(region.num_pages):
            data = system.load(region.page_addr(page), system.page_size).data
            table += data if data is not None else bytes(system.page_size)
        words = region.size // 8
        rng = np.random.default_rng(seed)
        indices = rng.integers(0, words, size=updates)
        values = rng.integers(0, 2**63, size=updates, dtype=np.uint64)
        reference = np.zeros(words, dtype=np.uint64)
        np.bitwise_xor.at(reference, indices, values)
        if not np.array_equal(np.frombuffer(bytes(table), dtype="<u8"), reference):
            return ["gups: table after verify=True differs from the numpy XOR reference"]
        return []


class PageRank(Workload):
    """Push PageRank on FlatFlash through ``GraphEngine.pagerank``.

    One batch runs several graphs drawn from the seed, each on its own
    fresh system.  How much of a run the engine fuses depends on where the
    power-law graph puts its hubs (one graph's fused share ranges from
    0.75 to 0.99 over seeds), so with one graph a batch the per-op metrics
    would be a property of the seed; pooling a batch's graphs averages
    that out.
    """

    name = "pagerank"

    def graph_seeds(self, seed: int) -> List[int]:
        """The seeds of the batch's graphs, drawn from the run's seed."""
        state = np.random.SeedSequence(seed).generate_state(self.sizes["graphs"])
        return [int(value) for value in state]

    def setup(self, seed, sanitizers=False, engine=True, track_data=False, on_system=None):
        systems, apps = [], []
        for graph_seed in self.graph_seeds(seed):
            graph = graphs.power_law_graph(
                self.sizes["vertices"], avg_degree=18.0, seed=graph_seed
            )
            footprint_pages = -(-(graph.num_edges + 2 * graph.num_vertices) * 8 // 4_096)
            config = _config(
                sanitizers,
                engine,
                track_data,
                dram_pages=max(8, footprint_pages // 3),
                ssd_to_dram=256,
            )
            system = _built(build_system("FlatFlash", config), on_system)
            systems.append(system)
            apps.append(graph_analytics.GraphEngine(system, graph, name="friendster-like"))
        iterations = self.sizes["iterations"]
        return Episode(
            systems,
            seed,
            planned_ops=iterations * sum(self._rows_per_iteration(app) for app in apps),
            parts={"apps": apps, "iterations": iterations},
        )

    @staticmethod
    def _rows_per_iteration(app) -> int:
        """Accesses of one push iteration: per vertex an indptr load, an
        own-state load, its edge cache lines and one store per out-edge."""
        graph = app.graph
        esize = app.ELEMENT_SIZE
        line = app.system.config.geometry.cacheline_size
        first = graph.indptr[:-1] * esize
        last = graph.indptr[1:] * esize
        lines = np.where(last > first, -(-last // line) - first // line, 0)
        return int(2 * graph.num_vertices + lines.sum() + graph.num_edges)

    def run(self, episode):
        iterations = episode.parts["iterations"]
        return [app.pagerank(iterations=iterations) for app in episode.parts["apps"]]

    def outcome(self, episode, ranks):
        systems = episode.systems
        fields = {"ranks_sha256": [hashlib.sha256(r.tobytes()).hexdigest() for r in ranks]}
        return Outcome(
            ops=sum(accesses(system) for system in systems),
            sim_ns=sum(system.clock.now for system in systems),
            digest=simulated_digest(systems, fields),
            counters=total_counters(systems),
            extra={"ranks": ranks},
        )

    def checks(self, seed, outcome):
        """Each graph's ranks must equal the uncharged computation bit for bit."""
        episode = self.setup(seed)
        iterations = episode.parts["iterations"]
        apps = episode.parts["apps"]
        for index, (app, ranks) in enumerate(zip(apps, outcome.extra["ranks"])):
            reference = app.pagerank(iterations=iterations, charge_accesses=False)
            if not np.array_equal(ranks, reference):
                return [f"pagerank: graph {index} ranks differ from pagerank(charge_accesses=False)"]
        return []


class YCSB(Workload):
    """YCSB-A on the UnifiedMMap paging baseline through ``run_ycsb``."""

    name = "ycsb"

    def setup(self, seed, sanitizers=False, engine=True, track_data=False, on_system=None):
        dram_pages = 32
        config = _config(
            sanitizers, engine, track_data, dram_pages=dram_pages, ssd_to_dram=256
        )
        system = _built(build_system("UnifiedMMap", config), on_system)
        records = 8 * dram_pages * 4_096 // ycsb.RECORD_SIZE
        store = kvstore.KVStore(system, capacity_records=records)
        return Episode(
            [system],
            seed,
            planned_ops=self.sizes["ops"],
            parts={"app": store, "records": records},
        )

    def run(self, episode):
        return kvstore.run_ycsb(
            episode.parts["app"],
            ycsb.YCSB_A,
            num_ops=episode.planned_ops,
            num_records=episode.parts["records"],
            theta=0.99,
            seed=episode.seed,
        )

    def outcome(self, episode, latencies):
        system = episode.system
        fields = {"count": latencies.count, "total_ns": latencies.total}
        return Outcome(
            ops=latencies.count,
            sim_ns=system.clock.now,
            digest=simulated_digest([system], fields),
            counters=system.stats.counters(),
            extra={"latencies": latencies.samples},
        )

    def checks(self, seed, outcome):
        counters = outcome.counters
        served = counters.get("kv.gets", 0) + counters.get("kv.puts", 0)
        issued = self.sizes["ops"]
        if served != issued:
            return [f"ycsb: kv.gets + kv.puts = {served}, issued {issued}"]
        return []


class TPCB(Workload):
    """TPC-B with per-transaction logging on FlatFlash through ``run_oltp``."""

    name = "tpcb"

    THREADS = 16

    def setup(self, seed, sanitizers=False, engine=True, track_data=False, on_system=None):
        config = _config(sanitizers, engine, track_data, dram_pages=48, ssd_to_dram=64)
        system = _built(build_system("FlatFlash", config), on_system)
        return Episode([system], seed, planned_ops=self.sizes["transactions"])

    def run(self, episode):
        return database.run_oltp(
            episode.system,
            oltp.TPCB,
            num_transactions=episode.planned_ops,
            num_threads=self.THREADS,
            table_pages=192,
            seed=episode.seed,
        )

    def outcome(self, episode, result):
        system = episode.system
        fields = {
            "transactions": result.transactions,
            "elapsed_ns": result.elapsed_ns,
            "log_lock_contention": result.log_lock_contention,
        }
        return Outcome(
            ops=result.transactions,
            sim_ns=result.elapsed_ns,
            digest=simulated_digest([system], fields),
            counters=system.stats.counters(),
        )

    def checks(self, seed, outcome):
        commits = outcome.counters.get("db.commits", 0)
        ran = self.sizes["transactions"]
        if commits != ran:
            return [f"tpcb: db.commits = {commits}, ran {ran} transactions"]
        return []


#: Sizes of one batch.  ``full`` is what the benchmark measures; ``smoke``
#: runs every code path in well under a second for the self-test.
SCALES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "gups": {"dram_pages": 64, "updates": 30_000},
        "pagerank": {"vertices": 5_000, "graphs": 16, "iterations": 1},
        "ycsb": {"ops": 30_000},
        "tpcb": {"transactions": 3_200},
    },
    "smoke": {
        "gups": {"dram_pages": 16, "updates": 1_000},
        "pagerank": {"vertices": 600, "graphs": 2, "iterations": 1},
        "ycsb": {"ops": 1_000},
        "tpcb": {"transactions": 160},
    },
}

WORKLOADS = {cls.name: cls for cls in (GUPS, PageRank, YCSB, TPCB)}


def make(name: str, scale: str = "full") -> Workload:
    return WORKLOADS[name](**SCALES[scale][name])
