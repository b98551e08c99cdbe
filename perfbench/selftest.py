#!/usr/bin/env python3
"""Tests of the benchmark's own checks, at smoke scale.

    python3 perfbench/selftest.py

* every workload runs, traced, with all checks passing, and every
  end-to-end and per-layer metric is printed with its unit;
* a seeded mutant planted on one live object of each timed batch — one
  access charged 1 ns extra, or one counter increment dropped — makes the
  output check fail;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

import run

run._import_program()

from repro.sim.stats import Counter  # noqa: E402

SEED = 3
WORKLOADS = ("gups", "pagerank", "ycsb", "tpcb")

#: The counter each workload's dropped-increment mutant targets.
DROPPED = {
    "gups": "ssd.cache_fills",
    "pagerank": "mem.promotions",
    "ycsb": "kv.gets",
    "tpcb": "db.commits",
}


def _nth_call(seed: int) -> int:
    """Which call a mutant hits, drawn from the seed."""
    return int(np.random.default_rng(seed).integers(1, 20))


def charge_one_extra_ns(nth: int):
    """Mutant: the ``nth`` page access of the batch costs 1 ns more."""

    def mutate(episode):
        system = episode.systems[0]
        access_page = system._access_page
        calls = [0]

        def mutant(*args):
            result = access_page(*args)
            calls[0] += 1
            if calls[0] == nth:
                result.latency_ns += 1
            return result

        system._access_page = mutant

    return mutate


class _DroppingCounter(Counter):
    __slots__ = ("_left",)

    def __init__(self, name: str, value: int, nth: int) -> None:
        super().__init__(name)
        self.value = value
        self._left = nth

    def add(self, amount: int = 1) -> None:
        self._left -= 1
        if self._left != 0:
            super().add(amount)


def drop_one_increment(name: str, nth: int):
    """Mutant: the ``nth`` increment of counter ``name`` is lost."""

    def mutate(episode):
        system = episode.systems[0]
        registry = system.stats
        old = registry.counter(name)
        new = _DroppingCounter(name, old.value, nth)
        registry._counters[name] = new
        holders = [system, *episode.parts.values()]
        seen = set()
        while holders:
            holder = holders.pop()
            if id(holder) in seen or not hasattr(holder, "__dict__"):
                continue
            seen.add(id(holder))
            for attr, value in list(vars(holder).items()):
                if value is old:
                    setattr(holder, attr, new)
                elif type(value).__module__.startswith("repro."):
                    holders.append(value)

    return mutate


def smoke(name: str, trace: bool = False, mutate=None):
    return run.run_benchmark(name, SEED, 0, trace, scale="smoke", mutate=mutate)


class BenchmarkChecks(unittest.TestCase):
    def test_every_workload_runs_traced_and_prints_every_metric(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                outcome = smoke(name, trace=True)
                report, result = outcome["report"], outcome["result"]
                self.assertEqual(report["problems"], [])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), {key for key, _ in run.PER_LAYER})
                lines = run.render(report)
                for key, unit in run.END_TO_END + run.PER_LAYER:
                    self.assertTrue(
                        any(line.split()[:1] == [key] and line.split()[-1] == unit for line in lines),
                        f"{name}: {key} not printed with unit {unit}",
                    )

    def test_untraced_result_holds_exactly_the_end_to_end_metrics(self):
        result = smoke("tpcb")["result"]
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {key for key, _ in run.END_TO_END})
        for entry in result["metrics"].values():
            self.assertGreater(entry["value"], 0)

    def test_extra_nanosecond_mutant_fails_the_check(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result = smoke(name, mutate=charge_one_extra_ns(_nth_call(SEED)))["result"]
                self.assertFalse(result["correct"])

    def test_dropped_increment_mutant_fails_the_check(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                mutate = drop_one_increment(DROPPED[name], _nth_call(SEED + 1))
                result = smoke(name, mutate=mutate)["result"]
                self.assertFalse(result["correct"])

    def test_exits_nonzero_without_a_result_outside_a_checkout(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench" / path.name)
        shutil.copy(run.HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            completed = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "gups", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(completed.returncode, 0)
        self.assertNotIn("{", completed.stdout)


if __name__ == "__main__":
    unittest.main()
