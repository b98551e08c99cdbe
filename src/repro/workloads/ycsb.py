"""Yahoo Cloud Serving Benchmark workload mixes (§5.4, Figs. 11-12).

The paper runs workloads B and D against Redis:

* **B** — 95 % reads / 5 % updates, Zipfian keys (photo tagging);
* **D** — 95 % reads / 5 % inserts, latest-skewed reads (status updates).

A and C are included for completeness (A: 50/50 update-heavy; C: read-only)
— they are useful for ablations.  Key-value pairs are 64 bytes, matching
the paper's setup.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.engine import OP_LOAD, OP_STORE, AccessTrace
from repro.workloads.zipfian import LatestGenerator, ZipfianGenerator


class OpType(enum.Enum):
    READ = "read"
    UPDATE = "update"
    INSERT = "insert"


@dataclass(frozen=True)
class YCSBWorkload:
    """One YCSB workload personality."""

    name: str
    read_ratio: float
    update_ratio: float
    insert_ratio: float
    distribution: str  # "zipfian", "latest" or "uniform"

    def validate(self) -> None:
        total = self.read_ratio + self.update_ratio + self.insert_ratio
        if not np.isclose(total, 1.0):
            raise ValueError(f"{self.name}: ratios sum to {total}, expected 1.0")
        if self.distribution not in ("zipfian", "latest", "uniform"):
            raise ValueError(f"{self.name}: unknown distribution {self.distribution!r}")


YCSB_A = YCSBWorkload("YCSB-A", 0.50, 0.50, 0.0, "zipfian")
YCSB_B = YCSBWorkload("YCSB-B", 0.95, 0.05, 0.0, "zipfian")
YCSB_C = YCSBWorkload("YCSB-C", 1.00, 0.00, 0.0, "zipfian")
YCSB_D = YCSBWorkload("YCSB-D", 0.95, 0.00, 0.05, "latest")

WORKLOADS = {w.name: w for w in (YCSB_A, YCSB_B, YCSB_C, YCSB_D)}

#: Key-value pair size used throughout §5.4.
RECORD_SIZE = 64


def generate_ops(
    workload: YCSBWorkload,
    num_ops: int,
    num_records: int,
    theta: float = 0.99,
    seed: int = 21,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[Tuple[OpType, int]]:
    """Yield ``(op, key)`` pairs following the workload's mix and skew.

    ``theta`` tunes the Zipfian skew, which is how the paper adjusts the
    working-set size relative to DRAM ("adjust the working set sizes by
    setting the request distribution parameter in YCSB").
    """
    workload.validate()
    if num_ops <= 0:
        raise ValueError(f"num_ops must be > 0, got {num_ops}")
    if num_records <= 0:
        raise ValueError(f"num_records must be > 0, got {num_records}")
    if rng is None:
        rng = np.random.default_rng(seed)

    zipf = ZipfianGenerator(num_records, theta=theta, seed=seed + 1)
    latest = LatestGenerator(num_records, theta=theta, seed=seed + 2)
    rolls = rng.random(num_ops)
    read_cut = workload.read_ratio
    update_cut = workload.read_ratio + workload.update_ratio

    for roll in rolls:
        if roll < read_cut:
            op = OpType.READ
        elif roll < update_cut:
            op = OpType.UPDATE
        else:
            op = OpType.INSERT
        if op is OpType.INSERT:
            key = latest.record_insert()
            yield op, key
            continue
        if workload.distribution == "latest":
            key = int(latest.sample(1)[0])
        elif workload.distribution == "zipfian":
            key = int(zipf.sample_scattered(1)[0])
        else:
            key = int(rng.integers(0, num_records))
        yield op, key


#: Ops compiled per chunk by :func:`compile_trace`.  The compiled columns
#: are a few arrays per op, so chunking bounds the compile's memory to a
#: chunk instead of the whole stream.
COMPILE_CHUNK_OPS = 4096

#: Op codes of :func:`generate_op_chunks`: indices into this tuple.
OP_CODES = (OpType.READ, OpType.UPDATE, OpType.INSERT)
_READ, _INSERT = 0, 2


def chunk_bounds(num_ops: int, chunk_ops: int) -> Iterator[Tuple[int, int]]:
    """``(start, end)`` of each chunk covering ``range(num_ops)`` in order."""
    for start in range(0, num_ops, chunk_ops):
        yield start, min(start + chunk_ops, num_ops)


def generate_op_chunks(
    workload: YCSBWorkload,
    num_ops: int,
    num_records: int,
    theta: float = 0.99,
    seed: int = 21,
    chunk_ops: int = COMPILE_CHUNK_OPS,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """:func:`generate_ops` vectorised: yields ``(codes, keys)`` arrays of at
    most ``chunk_ops`` ops each, indices into :data:`OP_CODES` and keys.

    Concatenated, the chunks are exactly :func:`generate_ops`' stream for
    the same arguments, whatever ``chunk_ops`` is: the op rolls come from
    the same single ``random(num_ops)`` draw, each chunk's Zipfian or
    latest ranks from one ``random(k)`` draw (numpy's generator returns
    the same doubles as ``k`` draws of one), and latest keys and insert
    keys carry the insert count across chunks.  Uniform keys keep one
    ``integers`` draw per op, whose stream is only guaranteed per call.
    """
    workload.validate()
    if num_ops <= 0:
        raise ValueError(f"num_ops must be > 0, got {num_ops}")
    if num_records <= 0:
        raise ValueError(f"num_records must be > 0, got {num_records}")
    if chunk_ops <= 0:
        raise ValueError(f"chunk_ops must be > 0, got {chunk_ops}")
    rng = np.random.default_rng(seed)
    zipf = ZipfianGenerator(num_records, theta=theta, seed=seed + 1)
    latest = LatestGenerator(num_records, theta=theta, seed=seed + 2)
    rolls = rng.random(num_ops)
    cuts = [workload.read_ratio, workload.read_ratio + workload.update_ratio]

    for start, end in chunk_bounds(num_ops, chunk_ops):
        # ``roll < cut`` per cut, as generate_ops' if/elif chain compares.
        codes = np.searchsorted(cuts, rolls[start:end], side="right")
        inserts = codes == _INSERT
        draws = ~inserts
        drawn = int(np.count_nonzero(draws))
        keys = np.empty(end - start, dtype=np.int64)
        if drawn and workload.distribution == "latest":
            keys[draws] = latest.sample_after(np.cumsum(inserts)[draws])
        elif drawn and workload.distribution == "zipfian":
            keys[draws] = zipf.sample_scattered(drawn)
        elif drawn:
            keys[draws] = [int(rng.integers(0, num_records)) for _ in range(drawn)]
        keys[inserts] = latest.record_inserts(end - start - drawn)
        yield codes.astype(np.uint8), keys


def compile_trace(
    workload: YCSBWorkload,
    num_ops: int,
    num_records: int,
    base_addr: int,
    capacity_records: Optional[int] = None,
    record_size: int = RECORD_SIZE,
    theta: float = 0.99,
    seed: int = 21,
    chunk_ops: int = COMPILE_CHUNK_OPS,
) -> Iterator[AccessTrace]:
    """Compile the workload's op stream to access traces of at most
    ``chunk_ops`` rows each (engine phase 1).

    Mirrors :func:`repro.apps.kvstore.run_ycsb`: each read becomes one
    ``record_size`` load and each update/insert one store, at
    ``base_addr + key * record_size`` with keys wrapped to
    ``capacity_records`` the way the driver wraps them.
    """
    if capacity_records is None:
        capacity_records = num_records
    for codes, keys in generate_op_chunks(
        workload, num_ops, num_records, theta=theta, seed=seed, chunk_ops=chunk_ops
    ):
        addrs = base_addr + (keys % capacity_records) * record_size
        ops = np.where(codes == _READ, OP_LOAD, OP_STORE)
        yield AccessTrace.from_columns(addrs, record_size, ops)
