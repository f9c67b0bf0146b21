"""Per-core execution model.

A :class:`Core` runs one piece of :class:`ExecutableWork` at a time.  Work is
split into frequency-scaling CPU cycles ``W`` and frequency-invariant memory
time ``M`` (ns), uniformly interleaved, so wall time per unit of progress at
frequency ``f`` GHz is ``W/f + M``.  Mid-execution frequency changes re-solve
the remaining time from recorded progress — this is precisely the mechanism
that lets CATA accelerate an *already running* critical task and thereby fix
the static-binding problem of CATS (paper Section II-C).

Work items may additionally *block* partway through (a kernel service: I/O,
a contended page-fault lock — paper Section V-D): the core halts (C1) for the
blocked interval and resumes afterwards.  TurboMode observes those halts; the
CATA managers do not, exactly as the paper describes.

The core also runs *runtime overhead* (scheduler code, reconfiguration code)
via :meth:`run_overhead`, during which it is busy but makes no task progress.

All power-relevant attribute changes funnel through :meth:`_sync_energy`, so
the :class:`~repro.sim.energy.EnergyAccountant` sees an exact piecewise-
constant power signal.  A core never prices a state itself: it keeps the
accountant's process-wide table of resolved ``(watts, bucket)`` pairs for
its current DVFS level, so a transition is one lookup keyed ``(C-state,
busy, activity)`` plus :meth:`EnergyAccountant.transition
<repro.sim.energy.EnergyAccountant.transition>`.  The first time the
process meets a state, the miss builds (and so validates) its
:class:`~repro.sim.power.CoreState` and resolves it.

C-state change records are built by :meth:`Trace.record_cstate
<repro.sim.trace.Trace.record_cstate>` only when the trace is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, runtime_checkable

from .config import DVFSLevel, MachineConfig
from .dvfs import DVFSController
from .energy import EnergyAccountant
from .engine import Event, Simulator
from .power import CoreState
from .trace import Trace

__all__ = ["ExecutableWork", "Core", "CoreError"]


class CoreError(RuntimeError):
    """Raised on misuse of the core execution API."""


@runtime_checkable
class ExecutableWork(Protocol):
    """What the core needs to know about a task to execute it.

    Defined as a protocol so :mod:`repro.sim` does not depend on
    :mod:`repro.runtime` (strict bottom-up layering).
    """

    cpu_cycles: float
    mem_ns: float
    activity: float
    block_at: Optional[float]
    block_ns: float


@dataclass(slots=True)
class _Execution:
    work: ExecutableWork
    on_complete: Callable[[], None]
    on_block: Optional[Callable[[], None]]
    on_resume: Optional[Callable[[], None]]
    progress: float = 0.0
    last_update_ns: float = 0.0
    completion_event: Optional[Event] = None
    blocked: bool = False
    block_done: bool = False
    #: Single-entry memo of the wall-ns-per-progress denominator, keyed by
    #: frequency.  DVFS re-evaluation recomputes remaining time repeatedly
    #: at the same operating point; the float pipeline (divide + add) only
    #: needs to run once per (work, frequency).
    denom_freq_ghz: float = -1.0
    denom_ns: float = 0.0


class Core:
    """One simulated core: DVFS level, C-state, and work execution."""

    def __init__(
        self,
        core_id: int,
        sim: Simulator,
        machine: MachineConfig,
        dvfs: DVFSController,
        energy: EnergyAccountant,
        trace: Trace,
    ) -> None:
        self.core_id = core_id
        self._sim = sim
        self._machine = machine
        self._dvfs = dvfs
        self._energy = energy
        self._trace = trace
        self._cstate = "C0"
        self._busy = False
        self._activity = 0.0
        self._exec: Optional[_Execution] = None
        self._overhead_event: Optional[Event] = None
        self._overhead_done: Optional[Callable[[], None]] = None
        # The operating point is cached here and refreshed in
        # on_level_changed().  This relies on the existing wiring contract:
        # every completed DVFS transition is delivered to the core through
        # on_level_changed (RuntimeSystem registers the listener), which is
        # already required for correctness — progress re-solving would use
        # the wrong rate otherwise.
        self._level: DVFSLevel = dvfs.level_of(core_id)
        #: Resolved (watts, bucket) per (cstate, busy, activity) at
        #: ``_level``, refreshed with it in on_level_changed().
        self._power_states = energy.power_states(self._level)
        self._transition = energy.transition
        self._sync_energy()

    # ------------------------------------------------------------- queries
    @property
    def level(self) -> DVFSLevel:
        return self._level

    @property
    def cstate(self) -> str:
        return self._cstate

    @property
    def busy(self) -> bool:
        """True while executing a task or runtime overhead."""
        return self._busy

    @property
    def executing_task(self) -> bool:
        return self._exec is not None

    @property
    def blocked(self) -> bool:
        return self._exec is not None and self._exec.blocked

    @property
    def current_work(self) -> Optional[ExecutableWork]:
        return self._exec.work if self._exec is not None else None

    # ------------------------------------------------------ state plumbing
    def _sync_energy(self) -> None:
        power = self._power_states.get((self._cstate, self._busy, self._activity))
        if power is None:
            power = self._energy.resolve(
                CoreState(
                    level=self._level,
                    cstate=self._cstate,
                    activity=self._activity,
                    busy=self._busy,
                )
            )
        self._transition(self.core_id, power)

    def set_cstate(self, new_state: str) -> None:
        """Change ACPI C-state; used by the C-state controller and blocking."""
        if new_state == self._cstate:
            return
        self._trace.record_cstate(self.core_id, self._sim.now, self._cstate, new_state)
        self._cstate = new_state
        self._sync_energy()

    def on_level_changed(self, old_level: Optional[DVFSLevel] = None) -> None:
        """DVFS transition completed; re-solve any in-flight execution.

        Progress made before this instant accrued at the *old* operating
        point, so the catch-up advance must use the old rate.
        """
        self._level = self._dvfs.level_of(self.core_id)
        self._power_states = self._energy.power_states(self._level)
        if self._exec is not None and not self._exec.blocked:
            self._advance_progress(level=old_level)
            self._reschedule_completion()
        self._sync_energy()

    # ------------------------------------------------------ task execution
    def _rate_denominator_ns(
        self, work: ExecutableWork, level: Optional[DVFSLevel] = None
    ) -> float:
        """Wall ns per unit progress at the given (default: current) level."""
        freq = (level if level is not None else self._level).freq_ghz
        ex = self._exec
        if ex is not None and ex.work is work:
            if ex.denom_freq_ghz == freq:
                return ex.denom_ns
            denom = work.cpu_cycles / freq + work.mem_ns
            ex.denom_freq_ghz = freq
            ex.denom_ns = denom
            return denom
        return work.cpu_cycles / freq + work.mem_ns

    def remaining_ns(self) -> float:
        """Wall time to finish the current work at the current frequency."""
        if self._exec is None:
            raise CoreError("no work in flight")
        ex = self._exec
        return (1.0 - ex.progress) * self._rate_denominator_ns(ex.work)

    def _advance_progress(self, level: Optional[DVFSLevel] = None) -> None:
        ex = self._exec
        assert ex is not None
        elapsed = self._sim.now - ex.last_update_ns
        denom = self._rate_denominator_ns(ex.work, level)
        if denom > 0:
            ex.progress = min(1.0, ex.progress + elapsed / denom)
        else:
            ex.progress = 1.0
        ex.last_update_ns = self._sim.now

    def _next_stop_progress(self) -> float:
        """Progress point of the next interruption: block point or completion."""
        ex = self._exec
        assert ex is not None
        w = ex.work
        if w.block_at is not None and not ex.block_done and w.block_ns > 0:
            if ex.progress < w.block_at < 1.0:
                return w.block_at
        return 1.0

    def _reschedule_completion(self) -> None:
        ex = self._exec
        assert ex is not None
        if ex.completion_event is not None:
            ex.completion_event.cancel()
        stop = self._next_stop_progress()
        delta_ns = (stop - ex.progress) * self._rate_denominator_ns(ex.work)
        if stop >= 1.0:
            ex.completion_event = self._sim.schedule(delta_ns, self._finish_work)
        else:
            ex.completion_event = self._sim.schedule(delta_ns, self._enter_block)

    def begin_work(
        self,
        work: ExecutableWork,
        on_complete: Callable[[], None],
        on_block: Optional[Callable[[], None]] = None,
        on_resume: Optional[Callable[[], None]] = None,
    ) -> None:
        """Start executing ``work``; ``on_complete`` fires at the end.

        ``on_block``/``on_resume`` fire around a mid-task kernel block, after
        the C-state change has been applied (so listeners see C1 on block).
        """
        if self._exec is not None:
            raise CoreError(f"core {self.core_id} is already executing work")
        if self._overhead_event is not None:
            raise CoreError(f"core {self.core_id} is executing runtime overhead")
        if self._cstate != "C0":
            raise CoreError(
                f"core {self.core_id} must be woken (C0) before starting work, "
                f"is in {self._cstate}"
            )
        san = self._sim.sanitizer
        if san is not None:
            san.on_core_activity(self.core_id, self._sim.now)
        self._exec = _Execution(
            work=work,
            on_complete=on_complete,
            on_block=on_block,
            on_resume=on_resume,
            last_update_ns=self._sim.now,
        )
        self._busy = True
        self._activity = work.activity
        self._sync_energy()
        self._reschedule_completion()

    def _enter_block(self) -> None:
        ex = self._exec
        assert ex is not None
        self._advance_progress()
        ex.blocked = True
        ex.block_done = True
        ex.completion_event = None
        # The thread waits inside the kernel; the core halts.
        self.set_cstate("C1")
        if ex.on_block is not None:
            ex.on_block()
        self._sim.schedule(ex.work.block_ns, self._exit_block)

    def _exit_block(self) -> None:
        ex = self._exec
        if ex is None or not ex.blocked:
            return
        wake_ns = self._machine.overheads.c1_wake_ns
        self.set_cstate("C0")
        ex.blocked = False
        ex.last_update_ns = self._sim.now + wake_ns
        if ex.on_resume is not None:
            ex.on_resume()
        self._sim.schedule(wake_ns, self._reschedule_completion)

    def _finish_work(self) -> None:
        ex = self._exec
        assert ex is not None
        self._advance_progress()
        self._exec = None
        self._busy = False
        self._activity = 0.0
        self._sync_energy()
        ex.on_complete()

    # --------------------------------------------------- runtime overheads
    def run_overhead(
        self,
        duration_ns: float,
        on_done: Callable[[], None],
        activity: float = 0.6,
    ) -> None:
        """Execute runtime-system code for ``duration_ns`` then call back.

        The core is busy (C0) at the given activity for the duration; task
        execution cannot overlap (the worker model interleaves them).
        """
        if self._exec is not None:
            raise CoreError(f"core {self.core_id} is executing a task")
        if self._overhead_event is not None:
            raise CoreError(f"core {self.core_id} is already in overhead")
        if duration_ns < 0:
            raise CoreError("overhead duration must be non-negative")
        san = self._sim.sanitizer
        if san is not None:
            san.on_core_activity(self.core_id, self._sim.now)
        self._busy = True
        self._activity = activity
        self._sync_energy()
        self._overhead_done = on_done
        self._overhead_event = self._sim.schedule(duration_ns, self._finish_overhead)

    def _finish_overhead(self) -> None:
        on_done = self._overhead_done
        self._overhead_done = None
        self._overhead_event = None
        self._busy = False
        self._activity = 0.0
        self._sync_energy()
        on_done()

    def set_spinning(self, spinning: bool, activity: float = 0.3) -> None:
        """Mark the core as busy-waiting (e.g. on the reconfiguration lock)."""
        if self._exec is not None:
            raise CoreError("cannot spin while executing a task")
        self._busy = spinning
        self._activity = activity if spinning else 0.0
        self._sync_energy()

    # ----------------------------------------------------- fault injection
    def abort_work(self) -> None:
        """Kill the in-flight task execution without firing its callbacks.

        The completion (or block-entry) event is cancelled and all progress
        is discarded; the caller is responsible for re-enqueueing the task.
        A task blocked in-kernel is aborted in place (the pending unblock
        event finds no execution and becomes a no-op).
        """
        ex = self._exec
        if ex is None:
            return
        if ex.completion_event is not None:
            ex.completion_event.cancel()
        self._exec = None
        self._busy = False
        self._activity = 0.0
        if self._cstate != "C0":
            # Aborted while blocked in the kernel (C1): the block is moot.
            self.set_cstate("C0")
        self._sync_energy()

    def power_off(self) -> None:
        """Cancel any runtime overhead in flight and drop to zero activity.

        Used when the core fails: the overhead continuation (scheduler pick,
        RSU notification) must never fire on a dead core.  Task execution is
        aborted separately via :meth:`abort_work`.
        """
        if self._overhead_event is not None:
            self._overhead_event.cancel()
            self._overhead_event = None
            self._overhead_done = None
        self._busy = False
        self._activity = 0.0
        self._sync_energy()
