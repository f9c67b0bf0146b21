"""TurboMode model (paper Section V-D, after Lo & Kozyrakis [18]).

A hardware microcontroller that is *not* aware of task criticality: every
active core (ACPI state C0) is presumed to be doing critical work.  The
budget is the same "maximum number of fast cores" used by CATA, so the
comparison is hardware-cost-equivalent:

* when an accelerated core executes ``halt`` (C0 → C1) — either because its
  worker idles or because a task blocks on a kernel service — the
  controller lowers its frequency and accelerates a *random* active core;
* when a core wakes, it is accelerated only if budget remains.

Because acceleration follows C-state edges rather than task boundaries,
TurboMode reclaims budget from threads blocked in the kernel (which CATA
cannot see — the paper's Section V-D observation) but happily accelerates
non-critical tasks and runtime idle loops, which is why it loses to
CATA+RSU on pipeline applications.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from .budget import AccelStateTable, Criticality, Decision

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.system import RuntimeSystem
    from ..runtime.task import Task
    from ..runtime.worker import Worker

__all__ = ["TurboModeManager"]

Proceed = Callable[[], None]


class TurboModeManager:
    """Criticality-blind hardware acceleration driven by C-state edges."""

    name = "turbomode"

    def __init__(self, budget: int, seed: int = 0) -> None:
        self._budget = budget
        self._rng = np.random.default_rng(seed)
        self._system: "RuntimeSystem | None" = None
        self.table: AccelStateTable | None = None

    # -------------------------------------------------------------- wiring
    def attach(self, system: "RuntimeSystem") -> None:
        self._system = system
        self.table = AccelStateTable(system.machine.core_count, self._budget)
        system.cstates.add_halt_listener(self._on_halt)
        system.cstates.add_wake_listener(self._on_wake)

    @property
    def system(self) -> "RuntimeSystem":
        assert self._system is not None, "manager not attached"
        return self._system

    def on_run_start(self) -> None:
        """All cores boot active; the first ``budget`` cores are boosted."""
        table = self.table
        assert table is not None
        for core_id in range(min(self._budget, self.system.machine.core_count)):
            self._apply(Decision(accel=core_id), initiator=core_id)

    # ------------------------------------------------- C-state transitions
    def _active_unaccelerated(self) -> list[int]:
        table = self.table
        assert table is not None
        return [
            core.core_id
            for core in self.system.cores
            if core.cstate == "C0" and not table.is_accelerated(core.core_id)
        ]

    def _on_halt(self, core_id: int) -> None:
        table = self.table
        assert table is not None
        if not table.is_accelerated(core_id):
            return
        candidates = self._active_unaccelerated()
        beneficiary = None
        if candidates:
            beneficiary = int(candidates[self._rng.integers(len(candidates))])
        self._apply(Decision(accel=beneficiary, decel=core_id), initiator=core_id)

    def _on_wake(self, core_id: int) -> None:
        table = self.table
        assert table is not None
        if table.is_accelerated(core_id):
            return
        if table.budget_available:
            self._apply(Decision(accel=core_id), initiator=core_id)

    def _apply(self, decision: Decision, initiator: int) -> None:
        if decision.empty:
            return
        table = self.table
        assert table is not None
        system = self.system
        table.commit(decision)
        now = system.sim.now
        if decision.decel is not None:
            system.dvfs.request(decision.decel, system.machine.slow)
        if decision.accel is not None:
            system.dvfs.request(decision.accel, system.machine.fast)
        system.trace.record_reconfig(
            initiator_core=initiator,
            start_ns=now,
            end_ns=now,
            accelerated_core=decision.accel,
            decelerated_core=decision.decel,
            mechanism="turbomode",
        )

    # ------------------------------------------------ runtime hooks (noop)
    def on_task_assigned(self, worker: "Worker", task: "Task", proceed: Proceed) -> None:
        # TurboMode presumes every active core runs critical work; the
        # controller keeps its own bookkeeping of that presumption.
        table = self.table
        assert table is not None
        table.set_criticality(worker.core_id, Criticality.CRITICAL)
        proceed()

    def on_task_finished(self, worker: "Worker", task: "Task", proceed: Proceed) -> None:
        table = self.table
        assert table is not None
        table.set_criticality(worker.core_id, Criticality.NO_TASK)
        proceed()

    def on_worker_idle(self, worker: "Worker", proceed: Proceed) -> None:
        proceed()

    # ------------------------------------------------------ fault injection
    def on_core_failed(self, core_id: int) -> None:
        # The dead core parks in C3 without a halt notification, so the
        # microcontroller only learns about it here.  Its budget slot is
        # reclaimed; C0-filtered candidate scans already exclude it.
        table = self.table
        assert table is not None
        table.retire_core(core_id)

    def on_task_aborted(self, core_id: int) -> None:
        table = self.table
        assert table is not None
        table.set_criticality(core_id, Criticality.NO_TASK)
