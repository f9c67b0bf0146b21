"""RSU + TurboMode hybrid (the integration Section V-D asks for).

The paper closes its TurboMode comparison with an observation: "A thread
executing a task can suddenly issue a halt instruction if the task requires
any kernel service... CATA approaches are not aware of this situation
causing the halted core to retain its accelerated state.  On the contrary,
TurboMode can drive that computing power to any other core that is doing
useful work."  Section III-B.5 already places the RSU registers inside the
TurboMode microcontroller — so the natural next step is to fuse them.

:class:`RsuTurboManager` is the plain RSU manager plus the TurboMode
microcontroller's halt/wake sensitivity:

* when an accelerated core *halts mid-task* (blocked in the kernel), its
  budget is lent out — preferentially to a running critical task, else to
  any busy core (TurboMode style);
* when the blocked core wakes, it re-acquires acceleration if its task is
  critical (evicting a non-critical borrower if needed).

Everything else (task start/end decisions, virtualization) is inherited
from the RSU.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .budget import Criticality, Decision
from .rsu import RsuCataManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.system import RuntimeSystem

__all__ = ["RsuTurboManager"]


class RsuTurboManager(RsuCataManager):
    """CATA on the RSU, with TurboMode's blocked-core budget reclaim."""

    name = "cata_rsu_tm"

    def __init__(self, budget: int) -> None:
        super().__init__(budget)
        #: Criticality saved for cores whose budget was lent while blocked.
        self._lent: dict[int, str] = {}
        self.reclaims = 0
        self.returns = 0

    def attach(self, system: "RuntimeSystem") -> None:
        super().attach(system)
        system.cstates.add_halt_listener(self._on_halt)
        system.cstates.add_wake_listener(self._on_wake)

    # ----------------------------------------------------- halt/wake hooks
    def _busy_unaccelerated(self) -> int | None:
        """Any busy C0 core without a slot (TurboMode's fallback target)."""
        assert self.rsu is not None
        table = self.rsu.table
        for core in self.system.cores:
            cid = core.core_id
            if core.busy and core.cstate == "C0" and not table.is_accelerated(cid):
                return cid
        return None

    def _on_halt(self, core_id: int) -> None:
        """An accelerated core halted (blocked in the kernel or idle-deep)."""
        rsu = self.rsu
        assert rsu is not None
        table = rsu.table
        if not table.is_accelerated(core_id):
            return
        # Lend the slot: remember the blocked task's criticality, mark the
        # core task-less so the decision algorithm can redistribute.
        self._lent[core_id] = table.criticality_of(core_id)
        table.set_criticality(core_id, Criticality.NO_TASK)
        decision = table.decide_release(core_id)
        if decision.accel is None:
            # No waiting critical task: TurboMode fallback — any busy core.
            beneficiary = self._busy_unaccelerated()
            decision = Decision(accel=beneficiary, decel=core_id)
        table.commit(decision)
        self.reclaims += 1
        system = self.system
        now = system.sim.now
        if decision.decel is not None:
            system.dvfs.request(decision.decel, system.machine.slow)
        if decision.accel is not None:
            system.dvfs.request(decision.accel, system.machine.fast)
        system.trace.record_reconfig(
            initiator_core=core_id,
            start_ns=now,
            end_ns=now,
            accelerated_core=decision.accel,
            decelerated_core=decision.decel,
            mechanism="rsu",
        )

    def on_core_failed(self, core_id: int) -> None:
        super().on_core_failed(core_id)
        # A lent slot never returns to a dead core.
        self._lent.pop(core_id, None)

    def _on_wake(self, core_id: int) -> None:
        """A blocked core resumed: restore its criticality and re-bid."""
        crit = self._lent.pop(core_id, None)
        if crit is None or crit == Criticality.NO_TASK:
            return
        rsu = self.rsu
        assert rsu is not None
        # Identical to the RSU's context-switch restore path: re-assert the
        # task's criticality and let the decision algorithm re-acquire.
        rsu.restore_context(core_id, crit)
        self.returns += 1
