"""Synthetic cache-line access patterns (§5.1, Fig. 8).

The paper's first experiment maps a file spanning the whole SSD, warms the
system by touching the pages randomly, then measures the average latency of
sequential and random 64-byte accesses.  These functions reproduce that
driver against any :class:`~repro.core.memory_system.MemorySystem`.

Each driver compiles its access stream with its ``compile_*_trace`` twin
into a flat :class:`~repro.engine.trace.AccessTrace` and replays it through
:func:`repro.engine.replay`; with the engine off in the system's config
every row is delegated to the scalar path.  :func:`synthetic_trace` builds
a tunable-locality trace for record/replay comparisons.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.memory_system import MappedRegion, MemorySystem
from repro.engine import AccessTrace, replay
from repro.sim.stats import LatencyStats


def _check_access(region: MappedRegion, size: int, write_ratio: float) -> None:
    if not 0 < size <= region.size:
        raise ValueError(f"size must be in (0, {region.size}], got {size}")
    if not 0.0 <= write_ratio <= 1.0:
        raise ValueError(f"write_ratio must be in [0, 1], got {write_ratio}")


def compile_warmup_trace(
    region: MappedRegion,
    num_accesses: int,
    line_size: int,
    rng: Optional[np.random.Generator] = None,
) -> AccessTrace:
    """The :func:`warm_up` access stream as a flat trace."""
    if not 0 < line_size <= region.page_size:
        raise ValueError(f"line_size must be in (0, {region.page_size}], got {line_size}")
    if rng is None:
        rng = np.random.default_rng(42)
    pages = rng.integers(0, region.num_pages, size=num_accesses)
    lines_per_page = region.page_size // line_size
    offsets = rng.integers(0, lines_per_page, size=num_accesses) * line_size
    addrs = region.addr(0) + pages * region.page_size + offsets
    return AccessTrace.loads(addrs, line_size)


def warm_up(
    system: MemorySystem,
    region: MappedRegion,
    num_accesses: int,
    rng: Optional[np.random.Generator] = None,
) -> None:
    """Touch random pages of the region to populate caches and DRAM."""
    line = system.config.geometry.cacheline_size
    replay(system, compile_warmup_trace(region, num_accesses, line, rng))


def compile_sequential_trace(
    region: MappedRegion,
    num_ops: int,
    size: int = 64,
    write_ratio: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> AccessTrace:
    """The :func:`sequential_access` stream as a flat trace."""
    _check_access(region, size, write_ratio)
    if rng is None:
        rng = np.random.default_rng(7)
    writes = rng.random(num_ops) < write_ratio
    total_lines = region.size // size
    offsets = (np.arange(num_ops, dtype=np.int64) % total_lines) * size
    return AccessTrace.from_columns(
        region.addr(0) + offsets, size, writes.astype(np.uint8)
    )


def sequential_access(
    system: MemorySystem,
    region: MappedRegion,
    num_ops: int,
    size: int = 64,
    write_ratio: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> LatencyStats:
    """Sequential cache-line sweep over the region; returns per-op latencies."""
    trace = compile_sequential_trace(region, num_ops, size, write_ratio, rng)
    stats = LatencyStats("sequential")
    stats.extend(replay(system, trace).latencies.tolist())
    return stats


def compile_random_trace(
    region: MappedRegion,
    num_ops: int,
    size: int = 64,
    write_ratio: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> AccessTrace:
    """The :func:`random_access` stream as a flat trace."""
    _check_access(region, size, write_ratio)
    if rng is None:
        rng = np.random.default_rng(11)
    total_lines = region.size // size
    indices = rng.integers(0, total_lines, size=num_ops)
    writes = rng.random(num_ops) < write_ratio
    return AccessTrace.from_columns(
        region.addr(0) + indices * size, size, writes.astype(np.uint8)
    )


def random_access(
    system: MemorySystem,
    region: MappedRegion,
    num_ops: int,
    size: int = 64,
    write_ratio: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> LatencyStats:
    """Uniformly random cache-line accesses; returns per-op latencies."""
    trace = compile_random_trace(region, num_ops, size, write_ratio, rng)
    stats = LatencyStats("random")
    stats.extend(replay(system, trace).latencies.tolist())
    return stats


def synthetic_trace(
    region: MappedRegion,
    num_ops: int,
    read_ratio: float = 0.8,
    locality: float = 0.0,
    access_size: int = 64,
    seed: int = 1,
) -> AccessTrace:
    """A trace over ``region``: uniform random, or hot-clustered with
    ``locality`` — that fraction of accesses hits the hottest 10% of the
    region."""
    if not 0.0 <= read_ratio <= 1.0:
        raise ValueError(f"read_ratio must be in [0, 1], got {read_ratio}")
    _check_access(region, access_size, 0.0)
    if not 0.0 <= locality < 1.0:
        raise ValueError(f"locality must be in [0, 1), got {locality}")
    rng = np.random.default_rng(seed)
    slots = region.size // access_size
    hot = rng.random(num_ops) < locality
    slot = np.where(
        hot,
        rng.integers(0, max(1, slots // 10), size=num_ops),
        rng.integers(0, slots, size=num_ops),
    )
    stores = rng.random(num_ops) >= read_ratio
    return AccessTrace.from_columns(
        region.addr(0) + slot * access_size, access_size, stores.astype(np.uint8)
    )
