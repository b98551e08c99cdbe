"""Tests for workload generators: synthetic, GUPS, Zipfian, YCSB."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DRAMOnly, FlatFlash, small_config
from repro.engine import OP_LOAD, OP_STORE
from repro.workloads import ycsb
from repro.workloads.gups import run_gups
from repro.workloads.synthetic import random_access, sequential_access, warm_up
from repro.workloads.ycsb import (
    OP_CODES,
    WORKLOADS,
    YCSB_B,
    YCSB_D,
    OpType,
    YCSBWorkload,
    compile_trace,
    generate_op_chunks,
    generate_ops,
)
from repro.workloads.zipfian import LatestGenerator, ZipfianGenerator, scatter_multiplier


@pytest.fixture
def system():
    return FlatFlash(small_config(track_data=False))


class TestSynthetic:
    def test_sequential_returns_one_sample_per_op(self, system):
        region = system.mmap(8)
        stats = sequential_access(system, region, 100)
        assert stats.count == 100

    def test_random_returns_one_sample_per_op(self, system):
        region = system.mmap(8)
        stats = random_access(system, region, 100)
        assert stats.count == 100

    def test_write_ratio_bounds_checked(self, system):
        region = system.mmap(4)
        with pytest.raises(ValueError):
            sequential_access(system, region, 10, write_ratio=1.5)
        with pytest.raises(ValueError):
            random_access(system, region, 10, write_ratio=-0.1)

    def test_warm_up_touches_pages(self, system):
        region = system.mmap(8)
        warm_up(system, region, 50)
        assert system.stats.counters()["mem.loads"] == 50

    def test_deterministic_with_seed(self):
        def run():
            system = FlatFlash(small_config(track_data=False))
            region = system.mmap(8)
            stats = random_access(
                system, region, 200, rng=np.random.default_rng(5)
            )
            return stats.mean

        assert run() == run()


class TestGUPS:
    def test_updates_counted(self, system):
        region = system.mmap(16)
        result = run_gups(system, region, 200)
        assert result.updates == 200
        assert result.elapsed_ns > 0

    def test_gups_metric(self, system):
        region = system.mmap(16)
        result = run_gups(system, region, 100)
        assert result.gups == pytest.approx(100 / result.elapsed_ns)
        assert result.mean_update_ns == pytest.approx(result.elapsed_ns / 100)

    def test_verify_mode_xors_real_data(self):
        system = DRAMOnly(small_config())
        region = system.mmap(16)
        rng = np.random.default_rng(777)
        run_gups(system, region, 100, rng=rng, verify=True)
        # Re-derive the updated indices and check the xors landed.
        replay = np.random.default_rng(777)
        indices = replay.integers(0, region.size // 8, size=100)
        values = [system.load_u64(region.addr(int(i) * 8))[0] for i in indices]
        assert any(values)

    def test_invalid_update_count(self, system):
        region = system.mmap(4)
        with pytest.raises(ValueError):
            run_gups(system, region, 0)


class TestZipfian:
    def test_samples_in_range(self):
        zipf = ZipfianGenerator(1_000)
        samples = zipf.sample(5_000)
        assert samples.min() >= 0
        assert samples.max() < 1_000

    def test_skew_prefers_low_ranks(self):
        zipf = ZipfianGenerator(1_000, theta=0.99)
        samples = zipf.sample(20_000)
        head = np.mean(samples < 10)
        assert head > 0.2  # top-10 of 1000 gets >20% of traffic

    def test_scattered_spreads_hot_keys(self):
        zipf = ZipfianGenerator(1_000)
        scattered = zipf.sample_scattered(5_000)
        assert scattered.min() >= 0
        assert scattered.max() < 1_000
        # Scattering must not concentrate everything at the low end.
        assert np.mean(scattered < 10) < 0.2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10).sample(0)

    def test_latest_prefers_recent(self):
        latest = LatestGenerator(1_000)
        samples = latest.sample(10_000)
        assert np.mean(samples > 900) > 0.4

    def test_latest_insert_extends_keyspace(self):
        latest = LatestGenerator(100)
        key = latest.record_insert()
        assert key == 100
        assert latest.count == 101

    def test_latest_bulk_inserts_match_single_inserts(self):
        single, bulk = LatestGenerator(100), LatestGenerator(100)
        keys = [single.record_insert() for _ in range(5)]
        assert bulk.record_inserts(5).tolist() == keys
        assert bulk.count == single.count

    def test_latest_sample_after_matches_interleaved_samples(self):
        single, bulk = LatestGenerator(50, seed=8), LatestGenerator(50, seed=8)
        inserted = np.array([0, 0, 2, 3, 3, 7])
        expected = []
        for count in inserted.tolist():
            while single.count < 50 + count:
                single.record_insert()
            expected.append(int(single.sample(1)[0]))
        assert bulk.sample_after(inserted).tolist() == expected
        assert bulk.count == 50  # the insert count is not advanced


def per_call_multiplier(n):
    """The scatter multiplier as sample_scattered used to compute it per call."""
    multiplier = 2654435761 % n
    if np.gcd(multiplier, n) != 1:
        multiplier = 1
        for candidate in range(2654435761 % n, 2654435761 % n + n):
            if np.gcd(candidate % n, n) == 1 and candidate % n > 1:
                multiplier = candidate % n
                break
    return multiplier


class TestScatterMultiplier:
    """sample_scattered computes its multiplier once, with unchanged keys."""

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1_000, 16_384, 99_991])
    def test_scattered_keys_unchanged(self, n):
        ranks = ZipfianGenerator(n, seed=6).sample(2_000)
        expected = (ranks * per_call_multiplier(n) + 17) % n
        zipf = ZipfianGenerator(n, seed=6)
        singles = [zipf.sample_scattered(1) for _ in range(1_000)]
        keys = np.concatenate(singles + [zipf.sample_scattered(1_000)])
        assert keys.tolist() == expected.tolist()

    @pytest.mark.parametrize("n", [2654435761, 2 * 2654435761, 3 * 2654435761])
    def test_gcd_fallback_branch(self, n):
        # 2654435761 is prime: only its multiples take the fallback, and a
        # generator that large would need a CDF of billions of entries, so
        # the once-computed multiplier is checked on its own.
        assert np.gcd(2654435761 % n, n) != 1
        multiplier = scatter_multiplier(n)
        assert multiplier == per_call_multiplier(n)
        assert np.gcd(multiplier, n) == 1 and multiplier > 1


class TestYCSB:
    def test_op_mix_matches_workload(self):
        ops = list(generate_ops(YCSB_B, 10_000, 1_000, seed=3))
        reads = sum(1 for op, _ in ops if op is OpType.READ)
        updates = sum(1 for op, _ in ops if op is OpType.UPDATE)
        assert reads / len(ops) == pytest.approx(0.95, abs=0.02)
        assert updates / len(ops) == pytest.approx(0.05, abs=0.02)

    def test_workload_d_inserts_fresh_keys(self):
        ops = list(generate_ops(YCSB_D, 5_000, 1_000, seed=4))
        inserts = [key for op, key in ops if op is OpType.INSERT]
        assert inserts
        assert min(inserts) >= 1_000  # beyond the preloaded keyspace
        assert len(set(inserts)) == len(inserts)  # unique

    def test_keys_in_range_for_reads(self):
        ops = list(generate_ops(YCSB_B, 2_000, 500, seed=5))
        for op, key in ops:
            if op is not OpType.INSERT:
                assert 0 <= key < 500

    def test_ratio_validation(self):
        from repro.workloads.ycsb import YCSBWorkload

        bad = YCSBWorkload("bad", 0.5, 0.1, 0.1, "zipfian")
        with pytest.raises(ValueError):
            bad.validate()

    def test_all_named_workloads_valid(self):
        for workload in WORKLOADS.values():
            workload.validate()


YCSB_U = YCSBWorkload("YCSB-U", 0.5, 0.3, 0.2, "uniform")


def chunked_ops(workload, num_ops, num_records, theta, seed, chunk_ops):
    """generate_op_chunks' stream flattened to generate_ops' (op, key) pairs."""
    return [
        (OP_CODES[code], key)
        for codes, keys in generate_op_chunks(
            workload, num_ops, num_records, theta=theta, seed=seed, chunk_ops=chunk_ops
        )
        for code, key in zip(codes.tolist(), keys.tolist())
    ]


class TestChunkedCompile:
    """The vectorised, chunked compile is exactly generate_ops' stream."""

    @settings(max_examples=60, deadline=None)
    @given(
        workload=st.sampled_from(sorted(WORKLOADS) + ["uniform"]),
        num_ops=st.integers(1, 700),
        num_records=st.integers(1, 3_000),
        theta=st.floats(0.05, 0.99),
        seed=st.integers(0, 2**16),
        chunk=st.one_of(
            st.just(1), st.integers(2, 300), st.integers(701, 5_000)  # > num_ops
        ),
    )
    def test_stream_identity(self, workload, num_ops, num_records, theta, seed, chunk):
        workload = YCSB_U if workload == "uniform" else WORKLOADS[workload]
        expected = list(generate_ops(workload, num_ops, num_records, theta=theta, seed=seed))
        got = chunked_ops(workload, num_ops, num_records, theta, seed, chunk)
        assert got == expected

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1_000, 4_096])
    def test_stream_identity_with_inserts_across_chunks(self, chunk):
        for workload in (YCSB_D, YCSB_U):
            expected = list(generate_ops(workload, 2_000, 300, seed=11))
            assert chunked_ops(workload, 2_000, 300, 0.99, 11, chunk) == expected

    def test_trace_wraps_keys_like_the_driver(self):
        base, capacity, size = 1 << 20, 1_010, 64
        expected = [
            (base + (key % capacity) * size, OP_LOAD if op is OpType.READ else OP_STORE)
            for op, key in generate_ops(YCSB_D, 3_000, 1_000, seed=2)
        ]
        traces = list(
            compile_trace(YCSB_D, 3_000, 1_000, base, capacity_records=capacity, seed=2,
                          chunk_ops=500)
        )
        assert [len(trace) for trace in traces] == [500] * 6
        rows = np.concatenate([trace.rows for trace in traces])
        assert list(zip(rows["addr"].tolist(), rows["op"].tolist())) == expected
        assert set(rows["size"].tolist()) == {size}

    def test_invalid_arguments(self):
        for bad in (dict(num_ops=0), dict(num_records=0), dict(chunk_ops=0)):
            args = dict(num_ops=10, num_records=10, chunk_ops=4)
            args.update(bad)
            with pytest.raises(ValueError):
                next(generate_op_chunks(YCSB_B, **args))

    def test_mutant_shifted_chunk_boundary_is_caught(self, monkeypatch):
        """A chunk that starts one op after its predecessor ended must
        break the identity."""

        def shifted(num_ops, chunk_ops):
            for start in range(0, num_ops, chunk_ops):
                yield start + (start > 0), min(start + chunk_ops, num_ops)

        monkeypatch.setattr(ycsb, "chunk_bounds", shifted)
        expected = list(generate_ops(YCSB_B, 500, 200, seed=4))
        assert chunked_ops(YCSB_B, 500, 200, 0.99, 4, 64) != expected
