#!/usr/bin/env python3
"""Record an access trace, replay it on every system.

Traces make comparisons exact: the *same* byte-for-byte access stream runs
against each hierarchy.  This example builds a skewed trace, saves it to
disk, reloads it, and replays it on all three systems — then shows how
locality changes the verdict.  A trace holds absolute addresses, so each
system maps the same region before replaying it.

Run:  python examples/trace_replay.py
"""

import os
import tempfile

from repro.engine import AccessTrace, replay
from repro.experiments.common import build_system, scaled_config
from repro.workloads import synthetic_trace

REGION_PAGES = 64


def fresh_system(name: str):
    system = build_system(name, scaled_config(dram_pages=16, ssd_to_dram=256))
    return system, system.mmap(REGION_PAGES, name="trace")


def replay_everywhere(trace: AccessTrace, label: str) -> None:
    print(f"\n{label} ({len(trace)} ops, {trace.num_loads / len(trace):.0%} reads, "
          f"{REGION_PAGES} pages):")
    print(f"  {'system':>17} | mean access")
    for name in ("TraditionalStack", "UnifiedMMap", "FlatFlash"):
        system, _region = fresh_system(name)
        latencies = replay(system, trace).latencies
        print(f"  {name:>17} | {latencies.mean() / 1000:7.2f} us")


def main() -> None:
    # 1. Generate, save and reload a trace (what you would do with a real
    #    application recording via repro.engine.TraceRecorder).
    _system, region = fresh_system("FlatFlash")
    hot = synthetic_trace(region, 3_000, read_ratio=0.9, locality=0.9, seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "workload.npz")
        hot.save(path)
        reloaded = AccessTrace.load(path)
        print(f"saved and reloaded {len(reloaded)} ops from {path.split('/')[-1]}")

    # 2. The same trace on every system: high locality (hot 10% gets 90%).
    replay_everywhere(reloaded, "high-locality trace")

    # 3. A uniform-random trace: the paging systems lose their cache.
    cold = synthetic_trace(region, 3_000, read_ratio=0.9, locality=0.0, seed=1)
    replay_everywhere(cold, "uniform-random trace")

    print("\nByte-granular access keeps the random case bounded: 64B over PCIe")
    print("instead of 4KB through the page-fault path.")


if __name__ == "__main__":
    main()
