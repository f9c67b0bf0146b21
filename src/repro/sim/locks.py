"""Simulated locks with FIFO waiters and contention accounting.

The software CATA implementation serializes every reconfiguration behind a
single runtime-level mutex (paper Section III-A: concurrent updates could
transiently exceed the power budget).  Section V-C reports that under bursty
reconfiguration — e.g. barrier releases in Blackscholes, Fluidanimate and
Bodytrack — the *maximum* lock acquisition time reaches 4.8–15 ms even though
the average reconfiguration latency is only 11–65 µs.  Those statistics come
straight out of this module's records.

A waiter spins on its core (busy C0, low activity) until granted; the energy
cost of spinning is therefore accounted automatically through the core model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .engine import Simulator
from .trace import Trace

__all__ = ["SimLock", "LockStats"]


@dataclass
class LockStats:
    """Aggregate contention statistics for one lock."""

    acquisitions: int = 0
    contended_acquisitions: int = 0
    total_wait_ns: float = 0.0
    max_wait_ns: float = 0.0
    total_hold_ns: float = 0.0

    @property
    def avg_wait_ns(self) -> float:
        return self.total_wait_ns / self.acquisitions if self.acquisitions else 0.0


@dataclass(slots=True)
class _Waiter:
    core_id: int
    request_ns: float
    on_granted: Callable[[], None]


class SimLock:
    """A mutex inside the simulation.  Grant order is strict FIFO.

    Usage::

        lock.acquire(core_id, lambda: ...critical section...; lock.release())

    The grant callback runs at the simulation instant the lock is obtained.
    The holder *must* eventually call :meth:`release`.
    """

    def __init__(self, sim: Simulator, name: str, trace: Optional[Trace] = None) -> None:
        self._sim = sim
        self.name = name
        self._trace = trace
        self._holder: Optional[int] = None
        self._grant_ns: float = 0.0
        self._request_ns: float = 0.0
        # FIFO waiter queue.  A deque, not a list: the hand-off in
        # release() pops from the *front*, and list.pop(0) is O(n) — under
        # the bursty reconfiguration storms of Section V-C dozens of cores
        # pile up here at barrier releases.
        self._queue: deque[_Waiter] = deque()
        self.stats = LockStats()

    # ------------------------------------------------------------- queries
    @property
    def held(self) -> bool:
        return self._holder is not None

    @property
    def holder(self) -> Optional[int]:
        return self._holder

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    # ----------------------------------------------------------- operation
    def acquire(self, core_id: int, on_granted: Callable[[], None]) -> None:
        """Request the lock for ``core_id``; ``on_granted`` fires when owned."""
        if self._holder == core_id:
            raise RuntimeError(f"core {core_id} would deadlock re-acquiring {self.name}")
        san = self._sim.sanitizer
        if san is not None:
            san.on_lock_acquire(self.name, core_id)
        if self._holder is None and not self._queue:
            self._grant(core_id, self._sim.now, on_granted)
        else:
            self.stats.contended_acquisitions += 1
            self._queue.append(
                _Waiter(core_id=core_id, request_ns=self._sim.now, on_granted=on_granted)
            )

    def _grant(self, core_id: int, request_ns: float, on_granted: Callable[[], None]) -> None:
        san = self._sim.sanitizer
        if san is not None:
            san.on_lock_grant(self.name, core_id)
        self._holder = core_id
        self._request_ns = request_ns
        self._grant_ns = self._sim.now
        wait = self._grant_ns - request_ns
        self.stats.acquisitions += 1
        self.stats.total_wait_ns += wait
        if wait > self.stats.max_wait_ns:
            self.stats.max_wait_ns = wait
        on_granted()

    def release(self) -> None:
        """Release the lock and hand it to the next FIFO waiter (if any)."""
        san = self._sim.sanitizer
        if san is not None:
            san.on_lock_release(self.name, self._holder)
        if self._holder is None:
            raise RuntimeError(f"release of unheld lock {self.name}")
        hold = self._sim.now - self._grant_ns
        self.stats.total_hold_ns += hold
        if self._trace is not None:
            self._trace.record_lock_wait(
                self.name, self._holder, self._request_ns, self._grant_ns, self._sim.now
            )
        self._holder = None
        if self._queue:
            # Hand over synchronously: a deferred grant would leave the lock
            # momentarily unheld and a same-instant acquire() could jump the
            # queue (two holders).  Recursion depth is bounded by the queue
            # length because contended critical sections complete in later
            # events; only immediately-aborting waiters chain on this stack.
            waiter = self._queue.popleft()
            self._grant(waiter.core_id, waiter.request_ns, waiter.on_granted)
