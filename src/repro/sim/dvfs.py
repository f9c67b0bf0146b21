"""Per-core DVFS controller model.

Mirrors the gem5 DVFS extension the paper uses (Spiliopoulos et al. [31]):
each core has an independently settable operating point; a requested change
takes :attr:`~repro.sim.config.OverheadConfig.dvfs_transition_ns` (25 µs in
Table I) to take effect, during which the core keeps running at its old
point.  Re-requesting a level while a transition is in flight restarts the
ramp toward the new target (the controller serializes per core).

The controller knows nothing about budgets or criticality — those live in
:mod:`repro.core`.  It only executes transitions and notifies listeners.
"""

from __future__ import annotations

from typing import Callable, Optional

from .config import DVFSLevel, MachineConfig
from .engine import Event, Simulator
from .trace import Trace

__all__ = ["DVFSController"]

LevelListener = Callable[[int, DVFSLevel, DVFSLevel], None]


class DVFSController:
    """Tracks and changes the operating point of every core."""

    def __init__(
        self,
        sim: Simulator,
        machine: MachineConfig,
        trace: Trace,
        initial_levels: Optional[list[DVFSLevel]] = None,
    ) -> None:
        self._sim = sim
        self._machine = machine
        self._trace = trace
        self._transition_ns = machine.overheads.dvfs_transition_ns
        if initial_levels is None:
            initial_levels = [machine.slow] * machine.core_count
        if len(initial_levels) != machine.core_count:
            raise ValueError("initial_levels length must equal core_count")
        self._level: list[DVFSLevel] = list(initial_levels)
        self._pending_target: list[Optional[DVFSLevel]] = [None] * machine.core_count
        self._pending_event: list[Optional[Event]] = [None] * machine.core_count
        self._listeners: list[LevelListener] = []
        #: Fault injection: a stuck rail clamps every request to this level
        #: (``None`` = healthy).  Requests away from it still pay the ramp.
        self._stuck: list[Optional[DVFSLevel]] = [None] * machine.core_count

    # ------------------------------------------------------------- queries
    def level_of(self, core_id: int) -> DVFSLevel:
        """Operating point the core is *currently running at*."""
        return self._level[core_id]

    def target_of(self, core_id: int) -> DVFSLevel:
        """The level the core will be at once any in-flight ramp finishes."""
        pending = self._pending_target[core_id]
        return pending if pending is not None else self._level[core_id]

    def is_fast(self, core_id: int) -> bool:
        return self._level[core_id] is self._machine.fast

    def in_transition(self, core_id: int) -> bool:
        return self._pending_target[core_id] is not None

    def is_stuck(self, core_id: int) -> bool:
        """True once the rail was damaged by fault injection."""
        return self._stuck[core_id] is not None

    @property
    def transition_ns(self) -> float:
        return self._transition_ns

    def fast_count(self) -> int:
        """Number of cores currently *running* at the fast level."""
        return sum(1 for lv in self._level if lv is self._machine.fast)

    # ----------------------------------------------------------- listeners
    def add_listener(self, listener: LevelListener) -> None:
        """Register ``listener(core_id, old_level, new_level)`` for completed
        transitions."""
        self._listeners.append(listener)

    # ------------------------------------------------------------ requests
    def request(
        self,
        core_id: int,
        level: DVFSLevel,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> bool:
        """Start ramping ``core_id`` toward ``level``.

        Returns ``True`` if a transition was started, ``False`` if the core is
        already at (and stably at) the requested level.  ``on_complete`` fires
        when the new operating point is live; for a no-op request it fires
        immediately (same timestamp).

        A rail damaged by :meth:`force_stuck` clamps every request to the
        stuck level: asking for a different level still charges a full
        transition (the controller attempts the ramp) but the rail settles
        back where it is stuck.
        """
        stuck = self._stuck[core_id]
        if stuck is not None and level is not stuck:
            level = stuck
        elif level is self._level[core_id] and self._pending_target[core_id] is None:
            if on_complete is not None:
                on_complete()
            return False
        # Restart any in-flight ramp toward the latest target.
        ev = self._pending_event[core_id]
        if ev is not None:
            ev.cancel()
        self._pending_target[core_id] = level
        san = self._sim.sanitizer
        if san is not None:
            san.on_dvfs_request(core_id, level.name, self._sim.now)

        def _complete() -> None:
            san = self._sim.sanitizer
            if san is not None:
                san.on_dvfs_complete(
                    core_id, level.name, self._sim.now, self._transition_ns
                )
            old = self._level[core_id]
            self._level[core_id] = level
            self._pending_target[core_id] = None
            self._pending_event[core_id] = None
            self._trace.record_freq_change(core_id, self._sim.now, old.name, level.name)
            for listener in self._listeners:
                listener(core_id, old, level)
            if on_complete is not None:
                on_complete()

        self._pending_event[core_id] = self._sim.schedule(self._transition_ns, _complete)
        return True

    # ----------------------------------------------------- fault injection
    def force_stuck(self, core_id: int) -> None:
        """Damage the rail: it can no longer leave the slow level.

        If the core is currently fast (or ramping anywhere), one final ramp
        down to slow is started immediately; afterwards every request away
        from slow charges a full transition latency but lands back at slow.
        """
        slow = self._machine.slow
        self._stuck[core_id] = slow
        if self._level[core_id] is not slow or self._pending_target[core_id] is not None:
            self.request(core_id, slow)
