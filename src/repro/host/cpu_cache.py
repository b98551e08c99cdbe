"""Processor cache model for the persistence path and cacheable MMIO.

Two paper mechanisms need a CPU cache:

* §3.5's byte-granular persistence: stores to a persistent region may sit
  in the processor cache, so applications must ``clflush``/``clwb`` the
  lines and fence (write-verify read) before the data is durable.
* §3.1's cacheable MMIO: with a coherent interconnect (CAPI/CCIX/GenZ) the
  lines backed by the SSD BAR may be cached, letting re-references hit at
  DRAM-like latency instead of paying a PCIe round trip each time.

The model is a set-associative write-back cache over host-physical cache
line addresses.  It only tracks presence/dirtiness — payloads live in the
backing stores — which is all the latency accounting needs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.sim.stats import StatRegistry


class CPUCache:
    """Set-associative write-back cache keyed by cache-line address."""

    def __init__(
        self,
        num_lines: int = 512,
        ways: int = 8,
        line_size: int = 64,
        stats: Optional[StatRegistry] = None,
    ) -> None:
        if num_lines <= 0 or ways <= 0 or num_lines < ways:
            raise ValueError(f"invalid cache shape lines={num_lines} ways={ways}")
        if line_size <= 0:
            raise ValueError(f"line_size must be > 0, got {line_size}")
        self.line_size = line_size
        self.ways = ways
        self.num_sets = max(1, num_lines // ways)
        # Each set: line address -> dirty flag, LRU-ordered (oldest first).
        self._sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.stats = stats if stats is not None else StatRegistry()
        self._hits = self.stats.ratio("cpu_cache.hits")
        self._writebacks = self.stats.counter("cpu_cache.writebacks")
        self._flushes = self.stats.counter("cpu_cache.flushes")

    def access(self, phys_addr: int, is_write: bool) -> Tuple[bool, Optional[int]]:
        """Access one line; returns (hit, evicted dirty line address or None).

        A miss installs the line, evicting the set's LRU line; if the victim
        is dirty its address is returned so the caller can charge the
        write-back to the right backing store.
        """
        line = phys_addr // self.line_size
        cache_set = self._sets[line % self.num_sets]
        if line in cache_set:
            cache_set.move_to_end(line)
            if is_write:
                cache_set[line] = True
            self._hits.record(True)
            return True, None
        self._hits.record(False)
        evicted: Optional[int] = None
        if len(cache_set) >= self.ways:
            victim_line, victim_dirty = cache_set.popitem(last=False)
            if victim_dirty:
                self._writebacks.add()
                evicted = victim_line * self.line_size
        cache_set[line] = is_write
        return False, evicted

    def contains(self, phys_addr: int) -> bool:
        line = phys_addr // self.line_size
        return line in self._sets[line % self.num_sets]

    def is_dirty(self, phys_addr: int) -> bool:
        line = phys_addr // self.line_size
        return self._sets[line % self.num_sets].get(line, False)

    def flush_line(self, phys_addr: int) -> bool:
        """clflush: evict one line; returns True if a dirty line was flushed."""
        line = phys_addr // self.line_size
        cache_set = self._sets[line % self.num_sets]
        self._flushes.add()
        dirty = cache_set.pop(line, False)
        return dirty

    def flush_range(self, phys_addr: int, size: int) -> int:
        """Flush every line overlapping [phys_addr, phys_addr+size).

        Returns the number of dirty lines flushed (each needs a write to the
        backing store).
        """
        if size <= 0:
            raise ValueError(f"size must be > 0, got {size}")
        first = phys_addr // self.line_size
        last = (phys_addr + size - 1) // self.line_size
        dirty_count = 0
        for line in range(first, last + 1):
            if self.flush_line(line * self.line_size):
                dirty_count += 1
        return dirty_count

    @property
    def hit_ratio(self) -> float:
        return self._hits.ratio
