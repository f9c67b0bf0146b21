"""Deterministic discrete-event simulation engine.

The engine is the clock of the whole reproduction: every other component
(cores, DVFS controller, runtime workers, reconfiguration managers) advances
time exclusively by scheduling events here.

Design notes
------------
* Time is a float number of **nanoseconds** since simulation start.  All
  durations in the code base are expressed in nanoseconds; helper constants
  (:data:`US`, :data:`MS`) make call sites legible.
* Events at equal timestamps fire in scheduling order.  The heap entries are
  ``(time, seq, event)`` where ``seq`` is a monotonically increasing integer,
  which makes execution fully deterministic — a requirement called out in
  DESIGN.md (identical seeds must produce identical traces).
* Events are cancellable.  Cancellation is lazy: the entry stays in the heap
  and is skipped when popped.  This is the standard idiom for DES written on
  top of :mod:`heapq` and keeps ``cancel`` O(1).  To stop workloads that
  cancel en masse (DVFS ramp restarts, work-steal backoff timers) from
  scanning dead entries forever, the engine *compacts* the heap once
  cancelled entries outnumber live ones: the surviving ``(time, seq, event)``
  entries are re-heapified, which preserves the exact pop order because the
  ``(time, seq)`` prefix is a total order.
* :class:`Event` is a ``__slots__`` class with an explicit three-valued
  state (pending / fired / cancelled), not a dataclass — event allocation
  and the per-pop state test are the two hottest operations in the whole
  reproduction (this module is executed once per simulated event across the
  entire figure grid; see ``docs/performance.md``).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

__all__ = ["Event", "Simulator", "SimulationError", "NS", "US", "MS", "SEC"]

#: One nanosecond, the base time unit of the simulator.
NS: float = 1.0
#: One microsecond in nanoseconds.
US: float = 1_000.0
#: One millisecond in nanoseconds.
MS: float = 1_000_000.0
#: One second in nanoseconds.
SEC: float = 1_000_000_000.0

#: Event lifecycle states (module-level ints: fastest possible state test).
_PENDING = 0
_FIRED = 1
_CANCELLED = 2

#: Compaction threshold: never compact below this many dead entries (the
#: rebuild is O(heap), so tiny heaps are cheaper to scan lazily).
_COMPACT_MIN_DEAD = 64


class SimulationError(RuntimeError):
    """Raised for violations of engine invariants (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` / :meth:`Simulator.at`
    and can be cancelled before they fire.  ``payload`` is free-form metadata
    used only for debugging and tracing.

    The lifecycle state is explicit — pending, fired or cancelled — so
    :attr:`pending` is correct at every point of the lifecycle (before
    scheduling resolution, after firing, after cancellation).
    """

    __slots__ = ("time", "seq", "callback", "payload", "_state", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        payload: Any = None,
        sim: "Optional[Simulator]" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.payload = payload
        self._state = _PENDING
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent; a no-op once fired."""
        if self._state == _PENDING:
            self._state = _CANCELLED
            sim = self._sim
            if sim is not None:
                san = sim.sanitizer
                if san is not None:
                    san.on_event_cancel(self)
                sim._note_cancelled()

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` was called before the event fired."""
        return self._state == _CANCELLED

    @property
    def fired(self) -> bool:
        """True once the callback has run."""
        return self._state == _FIRED

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return self._state == _PENDING

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("pending", "fired", "cancelled")[self._state]
        return f"Event(t={self.time}, seq={self.seq}, {state})"


class Simulator:
    """Priority-queue discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.schedule(5.0, lambda: out.append(sim.now))
    >>> sim.run()
    >>> out
    [5.0]
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._next_seq: int = 0
        self._events_fired = 0
        self._running = False
        self._stop_requested = False
        #: Cancelled events still sitting in the heap (compaction trigger).
        self._dead = 0
        #: Optional invariant checker (``--sanitize``); ``None`` keeps every
        #: instrumented site on its zero-overhead fast path.
        self.sanitizer: Optional[Any] = None

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (diagnostics)."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    @property
    def cancelled_in_heap(self) -> int:
        """Cancelled-but-not-yet-reclaimed heap entries (diagnostics)."""
        return self._dead

    # ------------------------------------------------------------ scheduling
    def schedule(
        self, delay: float, callback: Callable[[], None], payload: Any = None
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` ns from now.

        ``delay`` must be non-negative; a zero delay fires after all events
        already scheduled for the current instant.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        # The body of at(), inlined: this is the per-event call.
        time = self._now + delay
        seq = self._next_seq
        self._next_seq = seq + 1
        ev = Event(time, seq, callback, payload, self)
        heapq.heappush(self._heap, (time, seq, ev))
        return ev

    def at(self, time: float, callback: Callable[[], None], payload: Any = None) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        ev = Event(time, seq, callback, payload, self)
        heapq.heappush(self._heap, (time, seq, ev))
        return ev

    # ------------------------------------------------------------ compaction
    def _note_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`Event.cancel`."""
        self._dead += 1
        if self._dead >= _COMPACT_MIN_DEAD and self._dead * 2 >= len(self._heap):
            self.compact()

    def compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Pop order is unchanged: entries are totally ordered by their
        ``(time, seq)`` prefix, and heapify of any subset reproduces that
        order.  Runs automatically when at least half the heap is dead.
        """
        # In-place: run()/step() hold a local reference to this list while
        # they drain it, and cancellations (hence compactions) happen inside
        # event callbacks.
        self._heap[:] = [entry for entry in self._heap if entry[2]._state == _PENDING]
        heapq.heapify(self._heap)
        self._dead = 0

    # --------------------------------------------------------------- running
    def request_stop(self) -> None:
        """Make the innermost :meth:`run` return before firing another event.

        Used by drivers that detect completion inside an event callback
        (e.g. the runtime system firing its last task).  No-op outside
        :meth:`run`; the flag is cleared when :meth:`run` is entered.
        """
        self._stop_requested = True

    def step(self) -> bool:
        """Fire the single next pending event.

        Returns ``False`` when the heap holds no fireable event.
        """
        heap = self._heap
        pop = heapq.heappop
        san = self.sanitizer
        while heap:
            time, _seq, ev = pop(heap)
            if ev._state:  # not _PENDING — only cancelled entries linger in the heap
                self._dead -= 1
                if san is not None:
                    san.on_dead_entry(ev)
                continue
            self._now = time
            if san is not None:
                san.on_event_fire(time, ev)
            ev._state = _FIRED
            self._events_fired += 1
            ev.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the event heap drains, ``until`` is reached,
        ``max_events`` events have fired, or :meth:`request_stop` is called.

        ``until`` is an inclusive upper bound: events scheduled exactly at
        ``until`` still fire; the clock is left at ``until`` if it is reached.
        ``max_events`` guards against runaway schedules in tests.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stop_requested = False
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        try:
            if until is None and max_events is None:
                san = self.sanitizer
                if san is not None:
                    # Sanitized drain loop: same pop discipline, plus the
                    # invariant hooks on every fired/reclaimed entry.
                    while heap:
                        entry = pop(heap)
                        ev = entry[2]
                        if ev._state:
                            self._dead -= 1
                            san.on_dead_entry(ev)
                            continue
                        self._now = entry[0]
                        san.on_event_fire(entry[0], ev)
                        ev._state = _FIRED
                        self._events_fired += 1
                        ev.callback()
                        if self._stop_requested:
                            return
                    return
                # Hot path: the unbounded drain loop used by full simulations.
                while heap:
                    entry = pop(heap)
                    ev = entry[2]
                    if ev._state:
                        self._dead -= 1
                        continue
                    self._now = entry[0]
                    ev._state = _FIRED
                    self._events_fired += 1
                    ev.callback()
                    if self._stop_requested:
                        return
                return
            san = self.sanitizer
            while heap:
                time, _seq, ev = heap[0]
                if ev._state:
                    pop(heap)
                    self._dead -= 1
                    if san is not None:
                        san.on_dead_entry(ev)
                    continue
                if until is not None and time > until:
                    self._now = until
                    return
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway event loop?"
                    )
                pop(heap)
                self._now = time
                if san is not None:
                    san.on_event_fire(time, ev)
                ev._state = _FIRED
                self._events_fired += 1
                fired += 1
                ev.callback()
                if self._stop_requested:
                    return
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
