"""RSU — Runtime Support Unit (paper Section III-B).

A small hardware unit that centralizes the CATA reconfiguration algorithm:
it stores the same state as the software RSM (per-core status and task
criticality, power budget, plus the Accelerated / Non-Accelerated DVFS
levels) and reacts to task start/end notifications by programming the DVFS
controller directly.  Because decisions are taken combinationally inside
one unit there is no lock, no user→kernel crossing and no serialization —
a worker pays only the cost of one ISA instruction
(``rsu_start_task``/``rsu_end_task``), and voltage/frequency ramps proceed
asynchronously while execution continues at the old operating point.

The ISA surface of Section III-B.1 is modeled one-to-one:

=====================  ======================================================
``rsu_init``           configure budget and the two power levels
``rsu_reset``          clear all per-core state
``rsu_disable``        stop reacting to notifications
``rsu_start_task``     notify task start on a core, with its criticality
``rsu_end_task``       notify task end on a core
``rsu_read_critic``    read back a core's stored criticality (virtualization)
=====================  ======================================================

Section III-B.3's virtualization is provided by :meth:`save_context` /
:meth:`restore_context`, which the OS model calls at context switches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..sim.config import DVFSLevel, MachineConfig
from ..sim.dvfs import DVFSController
from ..sim.engine import Simulator
from ..sim.locks import SimLock
from ..sim.trace import Trace
from .budget import AccelStateTable, Criticality, Decision

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.system import RuntimeSystem
    from ..runtime.task import Task
    from ..runtime.worker import Worker

__all__ = ["RuntimeSupportUnit", "RsuCataManager"]

Proceed = Callable[[], None]


class RuntimeSupportUnit:
    """The hardware device."""

    def __init__(
        self,
        sim: Simulator,
        machine: MachineConfig,
        dvfs: DVFSController,
        trace: Trace,
        budget: int,
    ) -> None:
        self._sim = sim
        self._machine = machine
        self._dvfs = dvfs
        self._trace = trace
        self.table = AccelStateTable(machine.core_count, budget)
        self.table.sanitizer = sim.sanitizer
        self._accel_level: DVFSLevel = machine.fast
        self._non_accel_level: DVFSLevel = machine.slow
        self._enabled = True

    # ----------------------------------------------------------- ISA model
    def rsu_init(
        self,
        budget: int,
        accel_level: Optional[DVFSLevel] = None,
        non_accel_level: Optional[DVFSLevel] = None,
    ) -> None:
        """Configure budget and power levels (OS boot time)."""
        self.table = AccelStateTable(self._machine.core_count, budget)
        self.table.sanitizer = self._sim.sanitizer
        if accel_level is not None:
            self._accel_level = accel_level
        if non_accel_level is not None:
            self._non_accel_level = non_accel_level
        self._enabled = True

    def rsu_reset(self) -> None:
        self.table.reset()

    def rsu_disable(self) -> None:
        self._enabled = False

    def rsu_start_task(self, cpu: int, critic: bool) -> Decision:
        """Task started on ``cpu``; returns the decision taken (for tests)."""
        if not self._enabled:
            return Decision()
        self.table.set_criticality(
            cpu, Criticality.CRITICAL if critic else Criticality.NON_CRITICAL
        )
        decision = self.table.decide_assign(cpu, critic)
        self._apply(decision, initiator=cpu)
        return decision

    def rsu_end_task(self, cpu: int) -> Decision:
        """Task ended on ``cpu``: eager release, budget moves to a waiting
        critical task immediately (Section III-B.2)."""
        if not self._enabled:
            return Decision()
        self.table.set_criticality(cpu, Criticality.NO_TASK)
        decision = self.table.decide_release(cpu)
        self._apply(decision, initiator=cpu)
        return decision

    def rsu_read_critic(self, cpu: int) -> str:
        return self.table.criticality_of(cpu)

    # ----------------------------------------------------- virtualization
    def save_context(self, cpu: int) -> str:
        """OS preempts the thread on ``cpu``: read and clear criticality.

        Returns the value to stash in the kernel ``thread_struct``.
        """
        crit = self.rsu_read_critic(cpu)
        self.table.set_criticality(cpu, Criticality.NO_TASK)
        decision = self.table.decide_release(cpu)
        self._apply(decision, initiator=cpu)
        return crit

    def restore_context(self, cpu: int, crit: str) -> None:
        """OS resumes a thread whose saved criticality is ``crit``."""
        if crit == Criticality.NO_TASK:
            return
        self.table.set_criticality(cpu, crit)
        decision = self.table.decide_assign(cpu, crit == Criticality.CRITICAL)
        self._apply(decision, initiator=cpu)

    # ------------------------------------------------------------ internal
    def _apply(self, decision: Decision, initiator: int) -> None:
        if decision.empty:
            return
        self.table.commit(decision)
        now = self._sim.now
        # Decel is issued first; both ramps proceed asynchronously in the
        # DVFS controller, so the physically-fast count never exceeds the
        # budget before the new core's ramp lands.
        if decision.decel is not None:
            self._dvfs.request(decision.decel, self._non_accel_level)
        if decision.accel is not None:
            self._dvfs.request(decision.accel, self._accel_level)
        self._trace.record_reconfig(
            initiator_core=initiator,
            start_ns=now,
            end_ns=now,
            accelerated_core=decision.accel,
            decelerated_core=decision.decel,
            mechanism="rsu",
        )


class RsuCataManager:
    """CATA on top of the RSU: the runtime only issues the ISA notifications."""

    name = "cata_rsu"

    def __init__(self, budget: int) -> None:
        self._budget = budget
        self._system: "RuntimeSystem | None" = None
        self.rsu: RuntimeSupportUnit | None = None
        #: Fault injection: while False the RSU ignores ISA notifications and
        #: the runtime falls back to a software CATA path (see below).
        self._available = True
        self.rsu_outages = 0
        self.fallback_reconfigs = 0
        self._fallback_lock: SimLock | None = None

    def attach(self, system: "RuntimeSystem") -> None:
        self._system = system
        self.rsu = RuntimeSupportUnit(
            sim=system.sim,
            machine=system.machine,
            dvfs=system.dvfs,
            trace=system.trace,
            budget=self._budget,
        )
        # Serializes the software-fallback path during RSU outages, exactly
        # like the RSM lock serializes software CATA.  Created unconditionally
        # (cheap) but only ever acquired while the RSU is unavailable.
        self._fallback_lock = SimLock(system.sim, name="rsu-fallback", trace=system.trace)

    def on_run_start(self) -> None:
        pass

    @property
    def system(self) -> "RuntimeSystem":
        assert self._system is not None, "manager not attached"
        return self._system

    def _notify(self, worker: "Worker", op: Callable[[], None], proceed: Proceed) -> None:
        op_cost = self.system.machine.overheads.rsu_op_ns

        def _done() -> None:
            op()
            proceed()

        worker.core.run_overhead(op_cost, _done, activity=0.8)

    def on_task_assigned(self, worker: "Worker", task: "Task", proceed: Proceed) -> None:
        rsu = self.rsu
        assert rsu is not None
        if not self._available:
            table = rsu.table
            crit = Criticality.CRITICAL if task.critical else Criticality.NON_CRITICAL
            table.set_criticality(worker.core_id, crit)
            if table.decide_assign(worker.core_id, task.critical).empty:
                proceed()
                return
            self._fallback_reconfig(
                worker,
                decide=lambda: table.decide_assign(worker.core_id, task.critical),
                proceed=proceed,
            )
            return
        self._notify(
            worker,
            lambda: rsu.rsu_start_task(worker.core_id, task.critical),
            proceed,
        )

    def on_task_finished(self, worker: "Worker", task: "Task", proceed: Proceed) -> None:
        rsu = self.rsu
        assert rsu is not None
        if not self._available:
            # Software fallback defers deceleration to the worker's next
            # decision point, exactly like software CATA: bookkeeping only.
            rsu.table.set_criticality(worker.core_id, Criticality.NO_TASK)
            proceed()
            return
        self._notify(worker, lambda: rsu.rsu_end_task(worker.core_id), proceed)

    def on_worker_idle(self, worker: "Worker", proceed: Proceed) -> None:
        rsu = self.rsu
        assert rsu is not None
        table = rsu.table
        if not self._available:
            table.set_criticality(worker.core_id, Criticality.NO_TASK)
            if table.decide_release(worker.core_id).empty:
                proceed()
                return
            self._fallback_reconfig(
                worker,
                decide=lambda: table.decide_release(worker.core_id),
                proceed=proceed,
            )
            return
        if table.is_accelerated(worker.core_id):
            # Resync after an outage window: the fallback path's deferred
            # deceleration never happened before the RSU came back.  Never
            # taken in fault-free runs — rsu_end_task releases eagerly, so
            # an idling core is always non-accelerated.
            self._notify(worker, lambda: rsu.rsu_end_task(worker.core_id), proceed)
            return
        # rsu_end_task already released the budget eagerly; idling needs no
        # further notification.
        proceed()

    # ------------------------------------------------------ fault injection
    def set_rsu_available(self, available: bool) -> None:
        """Fault injector: begin/end an RSU outage window."""
        if not available and self._available:
            self.rsu_outages += 1
        self._available = available

    def holds_runtime_lock(self, core_id: int) -> bool:
        """True while ``core_id`` owns the fallback lock (injector defers kills)."""
        return self._fallback_lock is not None and self._fallback_lock.holder == core_id

    def on_core_failed(self, core_id: int) -> None:
        assert self.rsu is not None
        self.rsu.table.retire_core(core_id)

    def on_task_aborted(self, core_id: int) -> None:
        assert self.rsu is not None
        self.rsu.table.set_criticality(core_id, Criticality.NO_TASK)

    def _fallback_reconfig(
        self, worker: "Worker", decide: Callable[[], Decision], proceed: Proceed
    ) -> None:
        """Software CATA path used while the RSU is out: lock, re-decide,
        cpufreq writes charged to the calling core, ``software-fallback``
        reconfiguration records."""
        rsu = self.rsu
        lock = self._fallback_lock
        assert rsu is not None and lock is not None
        system = self.system
        machine = system.machine
        core = worker.core
        start_ns = system.sim.now
        core.set_spinning(True)

        def _granted() -> None:
            if worker.state == "failed":
                # The core died while spinning in the FIFO queue.
                lock.release()
                return
            lock_wait = system.sim.now - start_ns
            decision = decide()
            if decision.empty:
                lock.release()
                core.set_spinning(False)
                proceed()
                return
            rsu.table.commit(decision)
            self.fallback_reconfigs += 1

            def _record_and_finish() -> None:
                system.trace.record_reconfig(
                    initiator_core=worker.core_id,
                    start_ns=start_ns,
                    end_ns=system.sim.now,
                    accelerated_core=decision.accel,
                    decelerated_core=decision.decel,
                    mechanism="software-fallback",
                    lock_wait_ns=lock_wait,
                )
                lock.release()
                core.set_spinning(False)
                proceed()

            def _do_accel() -> None:
                if decision.accel is not None:
                    system.cpufreq.write_level(
                        decision.accel, machine.fast, _record_and_finish,
                        wait_for_transition=False,
                    )
                else:
                    _record_and_finish()

            if decision.decel is not None:
                system.cpufreq.write_level(
                    decision.decel, machine.slow, _do_accel,
                    wait_for_transition=False,
                )
            else:
                _do_accel()

        lock.acquire(worker.core_id, _granted)
