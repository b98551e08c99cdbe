"""Tests for trace recording, persistence and replay (one format: AccessTrace)."""

import numpy as np
import pytest

from repro import DRAMOnly, FlatFlash, UnifiedMMap, small_config
from repro.engine import OP_LOAD, TRACE_DTYPE, AccessTrace, TraceRecorder, replay
from repro.workloads import synthetic_trace


def mapped(cls=FlatFlash, pages=8, config=None):
    system = cls(config or small_config(track_data=False))
    return system, system.mmap(pages)


def test_footprint():
    """A synthetic trace's footprint is its region, in aligned accesses."""
    _system, region = mapped(pages=8)
    trace = synthetic_trace(region, 500, access_size=64, seed=3)
    addrs = trace.rows["addr"].astype(np.int64)
    assert len(trace) == 500
    assert addrs.min() >= region.addr(0)
    assert addrs.max() + 64 <= region.addr(0) + region.size
    assert np.all(addrs % 64 == 0)
    assert set(trace.rows["size"].tolist()) == {64}


def test_synthetic_trace_read_ratio():
    _system, region = mapped(pages=8)
    assert synthetic_trace(region, 300, read_ratio=1.0).num_stores == 0
    assert synthetic_trace(region, 300, read_ratio=0.0).num_loads == 0
    mixed = synthetic_trace(region, 2_000, read_ratio=0.8, seed=2)
    assert 0.75 < mixed.num_loads / len(mixed) < 0.85


def test_synthetic_trace_locality():
    _system, region = mapped(pages=64)
    hot = synthetic_trace(region, 2_000, locality=0.9, seed=5)
    cold = synthetic_trace(region, 2_000, locality=0.0, seed=5)
    assert len(set(hot.rows["addr"].tolist())) < len(set(cold.rows["addr"].tolist()))


def test_synthetic_trace_validation():
    _system, region = mapped(pages=1)
    with pytest.raises(ValueError):
        synthetic_trace(region, 10, read_ratio=2.0)
    with pytest.raises(ValueError):
        synthetic_trace(region, 10, locality=1.0)
    with pytest.raises(ValueError):
        synthetic_trace(region, 10, access_size=2 * region.size)


def test_save_load_round_trip(tmp_path):
    _system, region = mapped()
    trace = synthetic_trace(region, 50, seed=2)
    path = str(tmp_path / "trace.npz")
    trace.save(path)
    loaded = AccessTrace.load(path)
    assert loaded.rows.dtype == TRACE_DTYPE
    assert loaded.rows.tobytes() == trace.rows.tobytes()


def test_invalid_ops_rejected(tmp_path):
    """Rows no access could issue: at build time and at load time."""
    with pytest.raises(ValueError):
        AccessTrace.from_columns([0], 0, OP_LOAD)
    with pytest.raises(ValueError):
        AccessTrace.from_columns([0], 8, 2)
    rows = np.zeros(3, dtype=TRACE_DTYPE)  # size 0
    path = str(tmp_path / "bad.npz")
    np.savez_compressed(path, rows=rows)
    with pytest.raises(ValueError):
        AccessTrace.load(path)


def test_load_malformed_rejected(tmp_path):
    path = str(tmp_path / "bad.npz")
    np.savez_compressed(path, rows=np.zeros((3, 2), dtype=np.int64))
    with pytest.raises((TypeError, ValueError)):
        AccessTrace.load(path)


def test_replay_returns_stats():
    """One latency per row."""
    system, region = mapped()
    result = replay(system, synthetic_trace(region, 100, seed=3))
    assert result.latencies.shape == (100,)
    assert result.total_ops == 100
    assert (result.latencies > 0).all()


def test_replay_region_too_small_rejected():
    """A trace running past the mapped region raises like the access would."""
    _system, region = mapped(pages=2)
    trace = synthetic_trace(region, 200, seed=6)
    system, _region = mapped(pages=1)
    with pytest.raises(KeyError):
        replay(system, trace)


def test_same_trace_fair_comparison():
    """One trace, replayed on systems that map the same region."""
    _system, region = mapped(pages=16)
    trace = synthetic_trace(region, 300, read_ratio=0.9, seed=4)
    means = {}
    for cls in (FlatFlash, UnifiedMMap):
        system, _region = mapped(cls, pages=16)
        means[cls.name] = replay(system, trace).latencies.mean()
    assert means["FlatFlash"] != means["UnifiedMMap"]  # systems differ...
    # ...but replaying twice on identical systems is exactly reproducible.
    system, _region = mapped(FlatFlash, pages=16)
    assert replay(system, trace).latencies.mean() == means["FlatFlash"]


def test_append_and_len():
    system, region = mapped(pages=1)
    recorder = TraceRecorder(system)
    recorder.load(region.addr(0), 64)
    recorder.store(region.addr(64), 8)
    trace = recorder.trace
    assert len(trace) == 2
    assert (trace.num_loads, trace.num_stores) == (1, 1)
    assert trace.rows["size"].tolist() == [64, 8]


def test_recorder_captures_and_forwards():
    system, region = mapped(pages=4, config=small_config())
    recorder = TraceRecorder(system)
    recorder.store(region.addr(64), 8, b"recorded")
    result = recorder.load(region.addr(64), 8)
    assert result.data == b"recorded"
    trace = recorder.trace
    assert trace.rows["addr"].tolist() == [region.addr(64)] * 2
    assert trace.rows["op"].tolist() == [1, OP_LOAD]
    # The recorded trace replays on a fresh system mapping the same region.
    fresh, _region = mapped(DRAMOnly, pages=4, config=small_config())
    assert replay(fresh, trace).total_ops == 2


def test_empty_recorder_trace():
    system, _region = mapped()
    assert len(TraceRecorder(system).trace) == 0
