"""Skewed key distributions for the YCSB workloads (§5.4).

YCSB workloads B and D issue requests with a Zipfian distribution; D uses
the *latest* variant that skews toward recently inserted records.  The
generators here follow the YCSB definitions (Gray et al.'s rejection-free
Zipfian via the precomputed CDF) with numpy vectorization.
"""

from __future__ import annotations

import numpy as np

DEFAULT_THETA = 0.99  # YCSB's default Zipfian constant


def scatter_multiplier(n: int) -> int:
    """Multiplier of the fixed affine permutation that scatters hot ranks
    across [0, n); coprime with ``n`` so that it is a permutation."""
    multiplier = 2654435761 % n
    if np.gcd(multiplier, n) != 1:
        multiplier = 1
        for candidate in range(2654435761 % n, 2654435761 % n + n):
            if np.gcd(candidate % n, n) == 1 and candidate % n > 1:
                multiplier = candidate % n
                break
    return multiplier


class ZipfianGenerator:
    """Samples integers in [0, n) with P(i) proportional to 1/(i+1)^theta."""

    def __init__(self, n: int, theta: float = DEFAULT_THETA, seed: int = 1) -> None:
        if n <= 0:
            raise ValueError(f"n must be > 0, got {n}")
        if theta <= 0.0 or theta >= 1.0:
            # theta = 1 diverges with the closed form; YCSB uses 0.99.
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        self.n = n
        self.theta = theta
        self._rng = np.random.default_rng(seed)
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), theta)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        self._multiplier = scatter_multiplier(n)

    def sample(self, count: int = 1) -> np.ndarray:
        """Draw ``count`` skewed ranks (0 is the hottest)."""
        if count <= 0:
            raise ValueError(f"count must be > 0, got {count}")
        uniform = self._rng.random(count)
        return np.searchsorted(self._cdf, uniform, side="left")

    def sample_scattered(self, count: int = 1) -> np.ndarray:
        """Skewed ranks scrambled over the key space (hot keys spread out),
        matching YCSB's hashed item ordering."""
        ranks = self.sample(count)
        return (ranks * self._multiplier + 17) % self.n


class LatestGenerator:
    """YCSB's 'latest' distribution: skewed toward the newest records.

    Used by workload D (read latest): ranks are Zipfian distances from the
    most recently inserted key.
    """

    def __init__(self, initial_count: int, theta: float = DEFAULT_THETA, seed: int = 2) -> None:
        if initial_count <= 0:
            raise ValueError(f"initial_count must be > 0, got {initial_count}")
        self.count = initial_count
        self._zipf = ZipfianGenerator(initial_count, theta, seed)

    def record_insert(self) -> int:
        """A new record was inserted; returns its key."""
        key = self.count
        self.count += 1
        return key

    def record_inserts(self, inserts: int) -> np.ndarray:
        """``inserts`` new records were inserted; returns their keys, as
        that many :meth:`record_insert` calls would."""
        keys = np.arange(self.count, self.count + inserts, dtype=np.int64)
        self.count += inserts
        return keys

    def sample(self, batch: int = 1) -> np.ndarray:
        """Keys skewed toward the most recent insert."""
        distances = self._zipf.sample(batch)
        keys = (self.count - 1) - distances
        return np.maximum(keys, 0)

    def sample_after(self, inserted: np.ndarray) -> np.ndarray:
        """One key per entry of ``inserted``: entry *i* is drawn as
        :meth:`sample` would draw it after ``inserted[i]`` more inserts.

        The draws consume the same random stream as ``len(inserted)``
        calls of ``sample(1)``; the insert count itself is not advanced.
        """
        distances = self._zipf.sample(len(inserted))
        keys = (self.count - 1 + inserted) - distances
        return np.maximum(keys, 0)
