#!/usr/bin/env python3
"""Benchmark of the FlatFlash simulator: end to end and layer by layer.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload {gups,pagerank,ycsb,tpcb} \\
        --seed N --seconds S --trace {0,1}

One process runs one workload in a closed loop on one thread.  It repeats
the same seeded batch on fresh systems until ``--seconds`` have passed,
timing each set-up (``setup_s`` is the fastest of several per batch) and
only the call into the public entry point (``ops_per_s`` is the fastest
batch's rate).  Every batch must produce the first batch's simulated
digest; a batch that raises or differs counts its operations as failed.
One more batch runs under cProfile for ``host_calls_per_op``, the
interpretive work per op, which unlike wall time repeats exactly on a
host whose speed drifts.  A verification pass then reruns the batch with
every sanitizer on and the replay engine off (the scalar reference path)
and must reproduce the digest, and runs the workload's own output check.
With ``--trace 1`` one more batch runs under the span tracer
(perfbench/spans.py) and must again reproduce the digest; its spans are
written to perfbench/out/.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones).  The exit code is 0 only when every check passed.

The ``sim_*`` metrics and per-layer counts are the model's simulated
quantities.  The model is not validated against hardware: they compare
versions of this program, they are not accuracy figures.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Set-ups timed per batch (the batch runs on the last one).  ``setup_s`` is
#: the fastest set-up of the run: interference from the rest of the host
#: only ever slows a set-up down, and on a host whose speed drifts the
#: median of a run follows the drift while the fastest stays put.
SETUPS_PER_BATCH = 5

END_TO_END = (
    ("sim_ns_per_op", "ns"),
    ("host_calls_per_op", "calls/op"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("ops_per_s", "1/s"),
    ("engine.self_frac", "fraction"),
    ("engine.fused_share", "fraction"),
    ("engine.total_rows", "count"),
    ("ssd.self_frac", "fraction"),
    ("ssd.cache_hit_ratio", "fraction"),
    ("ssd.cache_lookups", "count"),
    ("ssd.cache_fills_per_op", "count/op"),
    ("ssd.flash_reads_per_op", "count/op"),
    ("ssd.flash_programs_per_op", "count/op"),
    ("ssd.flash_erases", "count"),
    ("ssd.gc_runs", "count"),
    ("ssd.write_amplification", "ratio"),
    ("ssd.host_writes", "count"),
    ("ssd.gc_background_ns_per_op", "ns/op"),
    ("interconnect.self_frac", "fraction"),
    ("interconnect.mmio_reads_per_op", "count/op"),
    ("interconnect.mmio_writes_per_op", "count/op"),
    ("interconnect.bytes_per_op", "B/op"),
    ("core.self_frac", "fraction"),
    ("core.promotions", "count"),
    ("core.evictions", "count"),
    ("core.background_ns_per_op", "ns/op"),
    ("core.sim_ns_share.dram", "fraction"),
    ("core.sim_ns_share.ssd", "fraction"),
    ("core.sim_ns_share.cpu_cache", "fraction"),
    ("core.sim_ns_share.plb", "fraction"),
    ("core.access_sim_ns", "ns"),
    ("core.access_p50_ns", "ns"),
    ("core.access_p99_ns", "ns"),
    ("core.accesses", "count"),
    ("core.persist_stores", "count"),
    ("core.commits", "count"),
    ("host.self_frac", "fraction"),
    ("host.tlb_hit_ratio", "fraction"),
    ("host.tlb_lookups", "count"),
    ("host.page_walks_per_op", "count/op"),
    ("host.tlb_shootdowns", "count"),
    ("host.plb_promotions_started", "count"),
    ("host.plb_mediated_accesses", "count"),
    ("host.cpu_cache_hit_ratio", "fraction"),
    ("host.cpu_cache_lookups", "count"),
    ("baselines.self_frac", "fraction"),
    ("baselines.page_faults_per_op", "count/op"),
    ("baselines.dirty_writebacks_per_op", "count/op"),
    ("workloads.self_frac", "fraction"),
    ("apps.self_frac", "fraction"),
    ("sim.des_self_frac", "fraction"),
    ("sim.des_lock_contention", "fraction"),
    ("sim.des_lock_acquisitions", "count"),
    ("sim.stats_calls_per_op", "count/op"),
    ("sim.stats_self_frac", "fraction"),
    ("trace.overhead", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.ops", "count"),
)

UNITS = dict(END_TO_END + PER_LAYER)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or stop."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------- batches


def timed_batches(
    workload: Any, seed: int, seconds: float, mutate: Optional[Callable] = None
) -> Dict[str, Any]:
    """Repeat the seeded batch on fresh systems for ``seconds`` (at least two batches)."""
    rates: List[float] = []
    episode_s: List[float] = []
    setup_s: List[float] = []
    attempted = failed = batches = 0
    first = None
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or batches < 2:
        batches += 1
        planned = 1  # until set-up says otherwise
        try:
            for _ in range(SETUPS_PER_BATCH):
                # Free the previous system first, so that a set-up is not
                # charged for collecting its predecessor's garbage.
                episode = None
                gc.collect()
                t0 = time.perf_counter()
                episode = workload.setup(seed)
                setup_s.append(time.perf_counter() - t0)
            planned = episode.planned_ops
            if mutate is not None:
                mutate(episode)
            t2 = time.perf_counter()
            value = workload.run(episode)
            t3 = time.perf_counter()
            outcome = workload.outcome(episode, value)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            attempted += planned
            failed += planned
            continue
        attempted += outcome.ops
        if first is None:
            first = outcome
        if outcome.digest != first.digest or outcome.ops != planned:
            print(
                f"batch {len(rates) + 1}: digest {outcome.digest[:12]} / {outcome.ops} ops, "
                f"first batch {first.digest[:12]} / planned {planned} ops",
                file=sys.stderr,
            )
            failed += outcome.ops
            continue
        episode_s.append(setup_s[-1] + (t3 - t2))
        rates.append(outcome.ops / (t3 - t2))
    return {
        "first": first,
        "rates": rates,
        "episode_s": episode_s,
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
    }


def profiled_batch(workload: Any, seed: int) -> Tuple[float, str]:
    """One batch under cProfile; returns (calls per op, simulated digest).

    The count covers every Python and builtin call the batch makes, so it
    repeats exactly for one seed and moves only when the program does more
    or less interpretive work per op.
    """
    episode = workload.setup(seed)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        value = workload.run(episode)
    finally:
        profiler.disable()
    outcome = workload.outcome(episode, value)
    calls = sum(entry.callcount for entry in profiler.getstats())
    return calls / outcome.ops, outcome.digest


def _capture_latencies(systems: List[Any]) -> List[int]:
    """Record the latency of every access through the systems' ``_access``."""
    latencies: List[int] = []

    def recording(access):
        def record(vaddr, size, is_write, data):
            result = access(vaddr, size, is_write, data)
            latencies.append(result.latency_ns)
            return result

        return record

    for system in systems:
        system._access = recording(system._access)
    return latencies


def verify(workload: Any, seed: int, reference: Any) -> Tuple[List[str], List[int]]:
    """The verification pass; returns (failures, per-access latencies).

    Reruns the batch with every sanitizer on and the replay engine off, so
    gups and pagerank take the scalar reference path; the simulated digest
    must equal the timed batches'.  The per-access latencies come from this
    run, which the digest check ties to the timed batches.
    """
    from repro.sim.sanitizers import set_default_enabled

    problems: List[str] = []
    latencies: List[int] = []
    previous = set_default_enabled(True)  # also arms the DES lock sanitizer
    try:
        episode = workload.setup(seed, sanitizers=True, engine=False)
        latencies = _capture_latencies(episode.systems)
        checked = workload.outcome(episode, workload.run(episode))
        if checked.digest != reference.digest:
            problems.append(
                f"{workload.name}: digest with sanitizers on and the engine off "
                f"{checked.digest[:12]} != timed {reference.digest[:12]}"
            )
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        problems.append(f"{workload.name}: sanitizer run raised {exc!r}")
    finally:
        set_default_enabled(previous)
    try:
        problems.extend(workload.checks(seed, reference))
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        problems.append(f"{workload.name}: output check raised {exc!r}")
    samples = reference.extra.get("latencies")
    if samples is not None and samples != latencies:
        problems.append(f"{workload.name}: run_ycsb latencies differ from per-access latencies")
    return problems, latencies


# ----------------------------------------------------------------- traced


def traced_batch(workload: Any, seed: int) -> Tuple[Any, Any, Any, float]:
    """One batch under the span tracer; returns (tracer, episode, outcome, wall_s)."""
    import spans
    from repro.apps import database, graph_analytics, kvstore
    from repro.core import persistence
    from repro.sim import des, stats
    from repro.workloads import graphs, gups, zipfian

    tracer = spans.Tracer()
    try:
        for module, attr in (
            (gups, "run_gups"),
            (gups, "compile_trace"),
            (graphs, "power_law_graph"),
            (kvstore, "run_ycsb"),
            (database, "run_oltp"),
            (database, "generate_transactions"),
        ):
            tracer.wrap_function(module, attr)
        tracer.wrap_function(kvstore, "generate_ops", steps=True)
        tracer.wrap_replay(gups)
        tracer.wrap_replay(graph_analytics)
        for cls in (
            stats.Counter,
            stats.RatioStat,
            stats.LatencyStats,
            stats.StatRegistry,
            zipfian.ZipfianGenerator,
            zipfian.LatestGenerator,
            database.MiniDB,
            persistence.PersistentRegion,
            des.Simulator,
        ):
            tracer.wrap_class(cls)
        tracer.wrap_spawn(des.Simulator)
        tracer.capture_locks(database, "Lock")
        tracer.capture_locks(database, "Semaphore")
        gc.collect()
        with tracer.span("batch") as root:
            with tracer.span("setup"):
                episode = workload.setup(seed, on_system=tracer.wrap_live)
                apps = episode.parts.get("apps", [episode.parts.get("app")])
                for app in apps:
                    if app is not None:
                        tracer.wrap_live(app, depth=0)
            with tracer.span("run"):
                value = workload.run(episode)
    finally:
        tracer.restore()
    return tracer, episode, workload.outcome(episode, value), root.seconds


def layer_metrics(
    tracer: Any, episode: Any, outcome: Any, wall_s: float, untraced_s: float,
    latencies: List[int],
) -> Dict[str, float]:
    """Per-layer metrics of the traced batch; every ratio also has its base."""
    from repro.sim.stats import LatencyStats
    from workloads import merged_stats

    counters = outcome.counters
    snapshot = merged_stats(episode.systems)
    ops = outcome.ops
    wall_ns = wall_s * 1e9
    own = tracer.self_ns_by_layer()
    calls = tracer.calls_by_layer()

    def count(name: str) -> int:
        return counters.get(name, 0)

    def per_op(value: float) -> float:
        return value / ops

    def share(layer: str) -> float:
        return own.get(layer, 0) / wall_ns

    def ratio_of(name: str) -> Tuple[float, int]:
        return snapshot.get(f"{name}.ratio", 0.0), int(snapshot.get(f"{name}.total", 0))

    def latency_sum(name: str) -> float:
        return snapshot.get(f"{name}.count", 0) * snapshot.get(f"{name}.mean_ns", 0.0)

    fused = sum(f for f, _ in tracer.replays)
    rows = sum(t for _, t in tracer.replays)
    cache_hit, cache_lookups = ratio_of("ssd_cache.hits")
    tlb_hit, tlb_lookups = ratio_of("tlb.hits")
    cpu_hit, cpu_lookups = ratio_of("cpu_cache.hits")
    access_ns = latency_sum("mem.access")
    acquisitions = sum(lock.acquisitions for lock in tracer.locks)
    contended = sum(lock.contended_acquisitions for lock in tracer.locks)
    host_writes = count("ftl.host_writes")
    summary = LatencyStats("per-access")
    summary.extend(latencies)
    metrics = {
        "engine.self_frac": share("engine"),
        "engine.fused_share": fused / rows if rows else 0.0,
        "engine.total_rows": rows,
        "ssd.self_frac": share("ssd"),
        "ssd.cache_hit_ratio": cache_hit,
        "ssd.cache_lookups": cache_lookups,
        "ssd.cache_fills_per_op": per_op(count("ssd.cache_fills")),
        "ssd.flash_reads_per_op": per_op(count("flash.page_reads")),
        "ssd.flash_programs_per_op": per_op(count("flash.page_programs")),
        "ssd.flash_erases": count("flash.block_erases"),
        "ssd.gc_runs": count("ftl.gc_runs"),
        "ssd.write_amplification": (
            (host_writes + count("ftl.gc_writes")) / host_writes if host_writes else 1.0
        ),
        "ssd.host_writes": host_writes,
        "ssd.gc_background_ns_per_op": per_op(count("gc.background_ns")),
        "interconnect.self_frac": share("interconnect"),
        "interconnect.mmio_reads_per_op": per_op(count("pcie.mmio_reads")),
        "interconnect.mmio_writes_per_op": per_op(count("pcie.mmio_writes")),
        "interconnect.bytes_per_op": per_op(
            count("pcie.bytes_to_device") + count("pcie.bytes_from_device")
        ),
        "core.self_frac": share("core"),
        "core.promotions": count("mem.promotions"),
        "core.evictions": count("mem.evictions"),
        "core.background_ns_per_op": per_op(count("mem.background_ns")),
        "core.access_sim_ns": access_ns,
        "core.access_p50_ns": summary.p50 if latencies else 0,
        "core.access_p99_ns": summary.p99 if latencies else 0,
        "core.accesses": len(latencies),
        "core.persist_stores": count("pmem.persist_stores"),
        "core.commits": count("pmem.commits"),
        "host.self_frac": share("host"),
        "host.tlb_hit_ratio": tlb_hit,
        "host.tlb_lookups": tlb_lookups,
        "host.page_walks_per_op": per_op(count("page_table.walks")),
        "host.tlb_shootdowns": count("tlb.shootdowns"),
        "host.plb_promotions_started": count("plb.promotions_started"),
        "host.plb_mediated_accesses": count("mem.plb_mediated_accesses"),
        "host.cpu_cache_hit_ratio": cpu_hit,
        "host.cpu_cache_lookups": cpu_lookups,
        "baselines.self_frac": share("baselines"),
        "baselines.page_faults_per_op": per_op(count("mem.page_faults")),
        "baselines.dirty_writebacks_per_op": per_op(
            count("mem.pages_out") if episode.systems[0].name != "FlatFlash" else 0
        ),
        "workloads.self_frac": share("workloads"),
        "apps.self_frac": share("apps"),
        "sim.des_self_frac": share("sim.des"),
        "sim.des_lock_contention": contended / acquisitions if acquisitions else 0.0,
        "sim.des_lock_acquisitions": acquisitions,
        "sim.stats_calls_per_op": per_op(calls.get("sim.stats", 0)),
        "sim.stats_self_frac": share("sim.stats"),
        "trace.overhead": wall_s / untraced_s,
        "trace.wall_s": wall_s,
        "trace.spans": len(tracer.start_col),
        "trace.ops": ops,
    }
    for source in ("dram", "ssd", "cpu_cache", "plb"):
        metrics[f"core.sim_ns_share.{source}"] = (
            latency_sum(f"mem.by_source.{source}") / access_ns if access_ns else 0.0
        )
    return metrics


# ------------------------------------------------------------------ main


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    mutate: Optional[Callable] = None,
) -> Dict[str, Any]:
    """Run one workload; returns the result object the CLI prints last.

    ``mutate`` is applied to every timed batch's live objects after set-up
    (the self-test uses it to plant a defect the checks must catch).
    """
    import workloads

    workload = workloads.make(name, scale)
    timed = timed_batches(workload, seed, seconds, mutate)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = timed["first"]
    problems: List[str] = []
    metrics: Dict[str, float] = {}
    if first is None or not timed["rates"]:
        problems.append(f"{name}: no batch completed")
    else:
        metrics = {
            "sim_ns_per_op": first.sim_ns / first.ops,
            "setup_s": min(timed["setup_s"]),
            "peak_rss_mb": peak_rss_mb,
            "ops_per_s": max(timed["rates"]),
        }
        try:
            metrics["host_calls_per_op"], digest = profiled_batch(workload, seed)
            if digest != first.digest:
                problems.append(f"{name}: profiled digest {digest[:12]} != {first.digest[:12]}")
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            problems.append(f"{name}: profiled batch raised {exc!r}")
        checked, latencies = verify(workload, seed, first)
        problems.extend(checked)
        if trace:
            try:
                tracer, episode, outcome, wall_s = traced_batch(workload, seed)
                if outcome.digest != first.digest:
                    problems.append(
                        f"{name}: traced digest {outcome.digest[:12]} "
                        f"!= untraced {first.digest[:12]}"
                    )
                tracer.write(OUT / f"spans-{name}.npz")
                metrics.update(
                    layer_metrics(
                        tracer, episode, outcome, wall_s,
                        statistics.median(timed["episode_s"]), latencies,
                    )
                )
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                problems.append(f"{name}: traced batch raised {exc!r}")
    attempted = max(1, timed["attempted"])
    failed = timed["failed"]
    correct = not problems and failed == 0
    keys = [key for key, _ in (PER_LAYER if trace else END_TO_END)]
    report = {
        "workload": name,
        "seed": seed,
        "batches": len(timed["rates"]),
        "ops_per_batch": first.ops if first is not None else 0,
        "ops_failed_frac": failed / attempted,
        "median_ops_per_s": statistics.median(timed["rates"]) if timed["rates"] else 0.0,
        "problems": problems,
        "all_metrics": metrics,
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": UNITS[key]} for key in keys if key in metrics
        },
    }
    return {"report": report, "result": result}


def render(report: Dict[str, Any]) -> List[str]:
    """Human-readable lines: every metric by name, value and unit."""
    lines = [
        f"workload {report['workload']}  seed {report['seed']}  "
        f"batches {report['batches']}  ops/batch {report['ops_per_batch']}",
        f"{'ops_failed_frac':<36} {report['ops_failed_frac']:<24.6g} fraction",
        f"{'median_ops_per_s':<36} {report['median_ops_per_s']:<24.10g} 1/s",
    ]
    metrics = report["all_metrics"]
    for key, unit in END_TO_END + PER_LAYER:
        if key in metrics:
            lines.append(f"{key:<36} {metrics[key]:<24.10g} {unit}")
    for problem in report["problems"]:
        lines.append(f"CHECK FAILED: {problem}")
    if not report["problems"]:
        lines.append("checks: all passed")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("gups", "pagerank", "ycsb", "tpcb"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    outcome = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in render(outcome["report"]):
        print(line)
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
