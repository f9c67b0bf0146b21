"""Interval-based ``ondemand`` DVFS governor baseline.

The paper's related work (Section VI-C) contrasts CATA with classic DVFS
management that tracks utilization at execution time [50], [51].  This
manager implements that family's canonical representative, the Linux
``ondemand`` governor, adapted to the paper's budget model:

* every ``sampling_interval`` the governor inspects each core,
* a busy core is raised to the fast level if budget remains,
* an idle core is returned to the slow level, freeing budget,
* strictly criticality-blind and *slow*: reactions are quantized to the
  sampling tick, which is exactly why task-boundary-driven CATA beats it.

The governor runs in kernel context off the timer tick; its per-tick cost
is not charged to the simulated cores (generous to the baseline).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..sim.engine import US
from .budget import AccelStateTable, Criticality, Decision

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.system import RuntimeSystem
    from ..runtime.task import Task
    from ..runtime.worker import Worker

__all__ = ["OndemandGovernor"]

Proceed = Callable[[], None]


class OndemandGovernor:
    """Utilization-sampling DVFS governor under the fast-core budget."""

    name = "ondemand"

    def __init__(self, budget: int, sampling_interval_ns: float = 2000.0 * US) -> None:
        if sampling_interval_ns <= 0:
            raise ValueError("sampling interval must be positive")
        self._budget = budget
        self.sampling_interval_ns = sampling_interval_ns
        self._system: "RuntimeSystem | None" = None
        self.table: AccelStateTable | None = None
        self.ticks = 0

    def attach(self, system: "RuntimeSystem") -> None:
        self._system = system
        self.table = AccelStateTable(system.machine.core_count, self._budget)

    @property
    def system(self) -> "RuntimeSystem":
        assert self._system is not None, "manager not attached"
        return self._system

    def on_run_start(self) -> None:
        self.system.sim.schedule(self.sampling_interval_ns, self._tick)

    # ------------------------------------------------------------ sampling
    def _tick(self) -> None:
        system = self.system
        table = self.table
        assert table is not None
        self.ticks += 1
        for core in system.cores:
            cid = core.core_id
            if table.is_failed(cid):
                # Fault injection removed this core; never touch its rail.
                continue
            busy = core.busy and core.cstate == "C0"
            if busy and not table.is_accelerated(cid) and table.budget_available:
                table.set_criticality(cid, Criticality.NON_CRITICAL)
                d = Decision(accel=cid)
            elif not busy and table.is_accelerated(cid):
                table.set_criticality(cid, Criticality.NO_TASK)
                d = Decision(decel=cid)
            else:
                continue
            table.commit(d)
            system.dvfs.request(
                cid, system.machine.fast if d.accel is not None else system.machine.slow
            )
            system.trace.record_reconfig(
                initiator_core=cid,
                start_ns=system.sim.now,
                end_ns=system.sim.now,
                accelerated_core=d.accel,
                decelerated_core=d.decel,
                mechanism="ondemand",
            )
        if not system.done:
            system.sim.schedule(self.sampling_interval_ns, self._tick)

    # ---------------------------------------------------- runtime hooks
    def on_task_assigned(self, worker: "Worker", task: "Task", proceed: Proceed) -> None:
        proceed()

    def on_task_finished(self, worker: "Worker", task: "Task", proceed: Proceed) -> None:
        proceed()

    def on_worker_idle(self, worker: "Worker", proceed: Proceed) -> None:
        proceed()

    # ---------------------------------------------------- fault injection
    def on_core_failed(self, core_id: int) -> None:
        table = self.table
        assert table is not None
        table.retire_core(core_id)

    def on_task_aborted(self, core_id: int) -> None:
        table = self.table
        assert table is not None
        table.set_criticality(core_id, Criticality.NO_TASK)
