"""A minimal discrete-event simulator for multi-threaded sections.

The database-logging experiment (Fig. 14) needs genuine thread contention:
with a centralized log buffer every transaction serializes on one lock, while
FlatFlash's per-transaction logging lets log writes proceed concurrently.
This module provides just enough machinery for that — generator-based
processes that yield simulation commands:

* ``Delay(ns)`` — advance this process's local time by a service cost.
* ``Acquire(lock)`` / ``Release(lock)`` — FIFO mutual exclusion.

Example::

    sim = Simulator()
    lock = Lock("log")

    def worker(think_ns, hold_ns):
        for _ in range(10):
            yield Delay(think_ns)
            yield Acquire(lock)
            yield Delay(hold_ns)
            yield Release(lock)

    for _ in range(4):
        sim.spawn(worker(1000, 200))
    end_time = sim.run()
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Deque, Dict, Generator, List, Optional, Tuple, Union

from repro.sim.race import AccessRecorder
from repro.sim.sanitizers import LockSanitizer, default_enabled


class Delay:
    """Yield command: advance the process's time by ``ns`` nanoseconds."""

    __slots__ = ("ns",)

    def __init__(self, ns: int) -> None:
        if ns < 0:
            raise ValueError(f"delay must be non-negative, got {ns}")
        self.ns = int(ns)


class Lock:
    """A FIFO lock; processes that fail to acquire are queued in order."""

    __slots__ = ("name", "holder", "waiters", "acquisitions", "contended_acquisitions")

    def __init__(self, name: str = "lock") -> None:
        self.name = name
        self.holder: Optional[int] = None
        self.waiters: Deque[int] = deque()
        self.acquisitions = 0
        self.contended_acquisitions = 0

    @property
    def contention_ratio(self) -> float:
        """Fraction of acquisitions that had to wait."""
        if self.acquisitions == 0:
            return 0.0
        return self.contended_acquisitions / self.acquisitions

    def __repr__(self) -> str:
        return f"Lock({self.name}, holder={self.holder}, waiting={len(self.waiters)})"


class Acquire:
    """Yield command: block until ``lock`` is held by this process."""

    __slots__ = ("lock",)

    def __init__(self, lock: Lock) -> None:
        self.lock = lock


class Release:
    """Yield command: release ``lock`` (must be the current holder)."""

    __slots__ = ("lock",)

    def __init__(self, lock: Lock) -> None:
        self.lock = lock


class Semaphore:
    """A counting resource (e.g. a pool of flash channels): up to
    ``capacity`` holders at once, FIFO queueing beyond that."""

    __slots__ = ("name", "capacity", "holders", "waiters", "acquisitions", "contended_acquisitions")

    def __init__(self, capacity: int, name: str = "semaphore") -> None:
        if capacity <= 0:
            raise ValueError(f"semaphore capacity must be > 0, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.holders: set = set()
        self.waiters: Deque[int] = deque()
        self.acquisitions = 0
        self.contended_acquisitions = 0

    @property
    def contention_ratio(self) -> float:
        if self.acquisitions == 0:
            return 0.0
        return self.contended_acquisitions / self.acquisitions

    def __repr__(self) -> str:
        return (
            f"Semaphore({self.name}, {len(self.holders)}/{self.capacity} held, "
            f"waiting={len(self.waiters)})"
        )


class AcquireSlot:
    """Yield command: take one slot of ``semaphore`` (may block)."""

    __slots__ = ("semaphore",)

    def __init__(self, semaphore: Semaphore) -> None:
        self.semaphore = semaphore


class ReleaseSlot:
    """Yield command: return a slot of ``semaphore`` (must hold one)."""

    __slots__ = ("semaphore",)

    def __init__(self, semaphore: Semaphore) -> None:
        self.semaphore = semaphore


Command = Union[Delay, Acquire, Release, AcquireSlot, ReleaseSlot]
Process = Generator[Command, None, None]


class Timeout(Exception):
    """Raised by :meth:`Simulator.run` when ``until_ns`` passes with work left."""


class _ProcState:
    __slots__ = ("pid", "generator", "finished_at", "held_locks", "held_slots")

    def __init__(self, pid: int, generator: Process) -> None:
        self.pid = pid
        self.generator = generator
        self.finished_at: Optional[int] = None
        # Acquisition-ordered, so error cleanup can release in reverse.
        self.held_locks: List[Lock] = []
        self.held_slots: List[Semaphore] = []


class Simulator:
    """Event-heap scheduler for generator processes.

    Determinism: events at equal timestamps run in (time, sequence) order,
    and lock hand-off is FIFO, so a given set of processes always produces
    the same schedule.

    ``sanitizer`` enables shadow lock-discipline checks (bad releases,
    locks held at process exit, deadlock detection at block time).  When
    left ``None`` it follows the process-wide sanitizer default, which
    the test suite switches on.

    ``seed`` opts into a perturbed schedule: events at equal timestamps
    are ordered by a seeded random tie-break key instead of FIFO.  Any
    stat that changes under a different seed depends on the interleaving
    of same-timestamp events (see :func:`repro.sim.race.run_perturbed`).
    Lock hand-off stays FIFO either way.

    ``recorder`` installs a :class:`repro.sim.race.AccessRecorder` for
    the duration of :meth:`run`: the scheduler keeps the recorder's
    (pid, lockset) context current so instrumented shared-state accesses
    are attributed to the running process.
    """

    def __init__(
        self,
        sanitizer: Optional[LockSanitizer] = None,
        seed: Optional[int] = None,
        recorder: Optional[AccessRecorder] = None,
    ) -> None:
        self._heap: List[Tuple[int, int, int, int]] = []  # (time, tie, seq, pid)
        self._seq = 0
        self._procs: Dict[int, _ProcState] = {}
        self._blocked: Dict[int, Union[Lock, Semaphore]] = {}
        if sanitizer is None and default_enabled():
            sanitizer = LockSanitizer()
        self._sanitizer = sanitizer
        self._rng = None if seed is None else random.Random(seed)
        self._recorder = recorder
        self.now = 0

    def spawn(self, process: Process, start_ns: int = 0) -> int:
        """Register a process; it first runs at ``start_ns``. Returns its pid."""
        pid = len(self._procs)
        self._procs[pid] = _ProcState(pid, process)
        self._schedule(start_ns, pid)
        return pid

    def _schedule(self, time_ns: int, pid: int) -> None:
        tie = 0 if self._rng is None else self._rng.getrandbits(32)
        heapq.heappush(self._heap, (time_ns, tie, self._seq, pid))
        self._seq += 1

    def _sync_recorder(self, state: _ProcState) -> None:
        """Refresh the attached recorder's (pid, lockset) context for ``state``."""
        names = frozenset(
            [lock.name for lock in state.held_locks]
            + [sem.name for sem in state.held_slots]
        )
        self._recorder.set_context(state.pid, names)

    def _release_lock(self, pid: int, lock: Lock) -> None:
        """Release ``lock`` held by ``pid``, handing off to the next waiter."""
        sanitizer = self._sanitizer
        if sanitizer is not None:
            sanitizer.on_released(pid, lock)
        if lock.holder != pid:
            raise RuntimeError(
                f"process {pid} released {lock.name!r} held by {lock.holder}"
            )
        self._procs[pid].held_locks.remove(lock)
        if lock.waiters:
            next_pid = lock.waiters.popleft()
            lock.holder = next_pid
            self._procs[next_pid].held_locks.append(lock)
            del self._blocked[next_pid]
            self._schedule(self.now, next_pid)
            if sanitizer is not None:
                sanitizer.on_acquired(next_pid, lock)
        else:
            lock.holder = None

    def _release_slot(self, pid: int, semaphore: Semaphore) -> None:
        """Return ``pid``'s slot of ``semaphore``, handing off to a waiter."""
        sanitizer = self._sanitizer
        if sanitizer is not None:
            sanitizer.on_slot_released(pid, semaphore)
        if pid not in semaphore.holders:
            raise RuntimeError(
                f"process {pid} released {semaphore.name!r} without a slot"
            )
        semaphore.holders.discard(pid)
        self._procs[pid].held_slots.remove(semaphore)
        if semaphore.waiters:
            next_pid = semaphore.waiters.popleft()
            semaphore.holders.add(next_pid)
            self._procs[next_pid].held_slots.append(semaphore)
            del self._blocked[next_pid]
            self._schedule(self.now, next_pid)
            if sanitizer is not None:
                sanitizer.on_slot_acquired(next_pid, semaphore)

    def _cleanup_after_error(self, pid: int) -> None:
        """A process generator raised: release everything it still holds
        (in reverse acquisition order) so waiters are not deadlocked, and
        retire the process."""
        state = self._procs[pid]
        for lock in list(reversed(state.held_locks)):
            self._release_lock(pid, lock)
        for semaphore in list(reversed(state.held_slots)):
            self._release_slot(pid, semaphore)
        state.finished_at = self.now
        if self._sanitizer is not None:
            self._sanitizer.on_finished(pid)

    def _step_process(self, pid: int) -> None:
        """Advance one process until it blocks, delays, or finishes, with
        the attached recorder's context set to it (only called with a
        recorder attached; :meth:`run` calls :meth:`_run_slice` directly
        otherwise)."""
        state = self._procs[pid]
        self._sync_recorder(state)
        try:
            self._run_slice(state)
        finally:
            self._recorder.set_context(None, frozenset())

    def _run_slice(self, state: _ProcState) -> None:
        pid = state.pid
        sanitizer = self._sanitizer
        recording = self._recorder is not None
        while True:
            try:
                command = next(state.generator)
            except StopIteration:
                state.finished_at = self.now
                if sanitizer is not None:
                    sanitizer.on_finished(pid)
                return
            except Exception:
                self._cleanup_after_error(pid)
                raise
            if isinstance(command, Delay):
                # _schedule's body, inlined: one wake-up per Delay.
                heapq.heappush(
                    self._heap,
                    (
                        self.now + command.ns,
                        0 if self._rng is None else self._rng.getrandbits(32),
                        self._seq,
                        pid,
                    ),
                )
                self._seq += 1
                return
            if isinstance(command, Acquire):
                lock = command.lock
                lock.acquisitions += 1
                if lock.holder is None:
                    lock.holder = pid
                    state.held_locks.append(lock)
                    if sanitizer is not None:
                        sanitizer.on_acquired(pid, lock)
                    if recording:
                        self._sync_recorder(state)
                    continue  # acquired immediately; keep running
                lock.contended_acquisitions += 1
                lock.waiters.append(pid)
                self._blocked[pid] = lock
                if sanitizer is not None:
                    sanitizer.on_blocked(pid, lock)
                return
            if isinstance(command, Release):
                self._release_lock(pid, command.lock)
                if recording:
                    self._sync_recorder(state)
                continue  # keep running after a release
            if isinstance(command, AcquireSlot):
                semaphore = command.semaphore
                semaphore.acquisitions += 1
                if len(semaphore.holders) < semaphore.capacity:
                    semaphore.holders.add(pid)
                    state.held_slots.append(semaphore)
                    if sanitizer is not None:
                        sanitizer.on_slot_acquired(pid, semaphore)
                    if recording:
                        self._sync_recorder(state)
                    continue
                semaphore.contended_acquisitions += 1
                semaphore.waiters.append(pid)
                self._blocked[pid] = semaphore
                if sanitizer is not None:
                    sanitizer.on_blocked(pid, semaphore)
                return
            if isinstance(command, ReleaseSlot):
                self._release_slot(pid, command.semaphore)
                if recording:
                    self._sync_recorder(state)
                continue
            raise TypeError(f"process {pid} yielded unknown command: {command!r}")

    def run(self, until_ns: Optional[int] = None) -> int:
        """Run until all processes finish. Returns the final simulated time.

        Raises :class:`Timeout` if ``until_ns`` is reached first, and
        :class:`RuntimeError` on deadlock (blocked processes, empty heap).
        """
        from repro.sim import race

        recording = self._recorder is not None
        previous = race.install(self._recorder) if recording else None
        try:
            while self._heap:
                time_ns, _tie, _seq, pid = heapq.heappop(self._heap)
                if until_ns is not None and time_ns > until_ns:
                    raise Timeout(f"simulation exceeded {until_ns}ns at t={time_ns}ns")
                if time_ns < self.now:
                    raise RuntimeError("event scheduled in the past")
                self.now = time_ns
                if recording:
                    self._step_process(pid)
                else:
                    # No recorder context to keep current: run the slice
                    # without _step_process's wrapper.
                    self._run_slice(self._procs[pid])
        finally:
            if recording:
                race.install(previous)
        if self._blocked:
            blocked = sorted(self._blocked)
            raise RuntimeError(f"deadlock: processes {blocked} blocked forever")
        return self.now

    def finish_time(self, pid: int) -> int:
        """Completion time of a finished process."""
        state = self._procs.get(pid)
        if state is None:
            raise KeyError(f"unknown pid {pid}")
        if state.finished_at is None:
            raise ValueError(f"process {pid} has not finished")
        return state.finished_at
