"""Worker state machine — one runtime thread pinned to each core.

The loop mirrors Nanos++: request a task from the scheduler (paying the
scheduling overhead on the core), let the acceleration manager act, execute
the task, notify completion, repeat; when no task is ready, idle through the
C-state controller until poked.

States::

    idle --poke--> waking --(wake latency)--> requesting --pick-->
        assigned --(manager)--> running --(completion)--> finishing
            --(manager)--> requesting | idle

``suspended`` takes the worker out of the pool while the main thread uses
its core to submit tasks (worker 0 only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..sim.core_model import Core
from .task import Task


@dataclass
class _ContendedWork:
    """A task's work with its memory time inflated by bandwidth contention.

    The scale factor is sampled once at task start (the opt-in model in
    :class:`~repro.sim.config.MachineConfig`); progress/DVFS machinery sees
    an ordinary :class:`~repro.sim.core_model.ExecutableWork`.
    """

    cpu_cycles: float
    mem_ns: float
    activity: float
    block_at: Optional[float]
    block_ns: float

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .system import RuntimeSystem

__all__ = ["Worker"]


class Worker:
    """Runtime worker bound to one core."""

    def __init__(self, system: "RuntimeSystem", core: Core) -> None:
        self.system = system
        self.core = core
        self.core_id = core.core_id
        self.state = "created"
        self.suspended = False
        self.current_task: Optional[Task] = None
        self.tasks_run = 0

    @property
    def available(self) -> bool:
        """True when the worker could pick up a new task soon (used by the
        CATS stealing rule: a fast core in these states will grab a critical
        task faster than a slow core could run it)."""
        return not self.suspended and self.state in ("idle", "waking", "requesting")

    # ----------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Begin operating at the current simulation instant."""
        if self.state != "created":
            raise RuntimeError("worker already started")
        if self.suspended:
            self.state = "suspended"
            return
        self._begin_request()

    def suspend(self) -> None:
        """Park the worker (main thread takes the core for submission).

        Only legal while idle/suspended/created — the submission controller
        guarantees this by waiting for the worker to drain.
        """
        if self.state not in ("idle", "created", "suspended"):
            raise RuntimeError(f"cannot suspend worker {self.core_id} in {self.state}")
        if self.state == "idle":
            self.system.cstates.wake(self.core_id)
        self.suspended = True
        self.state = "suspended"

    def resume(self) -> None:
        """Return the worker to the pool and start a request cycle."""
        if not self.suspended:
            raise RuntimeError(f"worker {self.core_id} is not suspended")
        self.suspended = False
        self._begin_request()

    # -------------------------------------------------------------- waking
    def poke(self) -> None:
        """Hint that work may be available.  No-op unless idle."""
        if self.suspended or self.state != "idle":
            return
        self.state = "waking"
        latency = self.system.cstates.wake(self.core_id)
        if latency <= 0.0:
            self._begin_request()
        else:
            self.system.sim.schedule(latency, self._begin_request)

    # ------------------------------------------------------ fault injection
    def fail(self) -> Optional[Task]:
        """Power the worker off permanently at the current instant.

        Any in-flight task is aborted (returned to the caller for
        re-enqueueing), runtime overhead in flight is cancelled, and the
        core parks in C3.  The ``failed`` state is terminal: scheduled
        wake-ups and lock grants targeting this worker become no-ops.
        """
        if self.state == "failed":
            return None
        task = self.current_task
        self.current_task = None
        if self.core.executing_task:
            self.core.abort_work()
        self.core.power_off()
        self.system.cstates.power_off(self.core_id)
        self.state = "failed"
        return task

    def abort_current(self) -> Task:
        """Kill the running task; returns it for re-enqueueing.

        The worker stays alive in a transient ``aborting`` state until the
        caller re-starts it with :meth:`resume_after_abort` (after the TDG
        and manager bookkeeping for the dead task is done).
        """
        if self.state != "running" or self.current_task is None:
            raise RuntimeError(
                f"worker {self.core_id} has no running task to abort "
                f"(state={self.state})"
            )
        task = self.current_task
        self.current_task = None
        self.core.abort_work()
        self.state = "aborting"
        return task

    def resume_after_abort(self) -> None:
        """Start requesting work again after :meth:`abort_current`."""
        if self.state != "aborting":
            raise RuntimeError(
                f"worker {self.core_id} is not mid-abort (state={self.state})"
            )
        self._begin_request()

    # ---------------------------------------------------------- scheduling
    def _begin_request(self) -> None:
        if self.state == "failed":
            # A wake-up scheduled before the core failed; nothing to do.
            return
        self.state = "requesting"
        cost = self.system.machine.overheads.schedule_request_ns
        self.core.run_overhead(cost, self._do_pick)

    def _do_pick(self) -> None:
        task = self.system.scheduler.pick(self.core_id)
        if task is None:
            self.state = "reconfiguring"
            self.system.manager.on_worker_idle(self, self._enter_idle)
            return
        self.state = "assigned"
        self.current_task = task
        self.system.tdg.mark_running(task, self.core_id, self.system.sim.now)
        if task.tenant_id is not None:
            # Attribute this core to the tenant before the manager decides
            # whether to grant it an acceleration slot.
            self.system.note_tenant_running(self.core_id, task.tenant_id)
        # Taking a task may have freed/blocked eligibility for others.
        self.system.dispatch()
        self.system.manager.on_task_assigned(self, task, self._execute)

    def _enter_idle(self) -> None:
        # Re-check: work may have become ready while the manager episode ran.
        if self.system.scheduler.has_work_for(self.core_id):
            self._begin_request()
            return
        self.state = "idle"
        self.system.cstates.enter_idle(self.core_id)
        self.system.on_worker_idle(self)

    # ----------------------------------------------------------- execution
    def _execute(self) -> None:
        task = self.current_task
        assert task is not None
        self.state = "running"
        self._start_ns = self.system.sim.now
        self._accelerated_at_start = self.system.dvfs.target_of(self.core_id) is (
            self.system.machine.fast
        )
        work = self._apply_contention(task)
        self.core.begin_work(
            work,
            on_complete=self._on_task_complete,
            on_block=lambda: self.system.cstates.notify_halt(self.core_id),
            on_resume=lambda: self.system.cstates.notify_wake(self.core_id),
        )

    def _apply_contention(self, task: Task):
        """Scale the task's memory time by the shared-bandwidth model."""
        machine = self.system.machine
        alpha = machine.mem_contention_alpha
        if alpha <= 0.0 or task.mem_ns <= 0.0:
            return task
        # Only cores executing task bodies consume memory bandwidth; the
        # +1 is this worker's task, which is about to start.
        consumers = 1 + sum(
            1 for c in self.system.cores if c.executing_task and c is not self.core
        )
        pressure = consumers / machine.core_count - machine.mem_contention_threshold
        if pressure <= 0.0:
            return task
        return _ContendedWork(
            cpu_cycles=task.cpu_cycles,
            mem_ns=task.mem_ns * (1.0 + alpha * pressure),
            activity=task.activity,
            block_at=task.block_at,
            block_ns=task.block_ns,
        )

    def _on_task_complete(self) -> None:
        task = self.current_task
        assert task is not None
        self.current_task = None
        self.tasks_run += 1
        self.state = "finishing"
        now = self.system.sim.now
        self.system.trace.record_task(
            task.task_id,
            task.ttype.name,
            self.core_id,
            self._start_ns,
            now,
            task.critical,
            self._accelerated_at_start,
            task.tenant_id,
        )
        self.system.ready_context_core = self.core_id
        newly_ready = self.system.tdg.mark_finished(task, now)
        if newly_ready:
            self.system.dispatch()
        self.system.on_task_finished(task)
        self.system.manager.on_task_finished(self, task, self._begin_request)
