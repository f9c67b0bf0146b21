"""CATA — software-driven criticality-aware task acceleration (Section III-A).

The runtime itself performs DVFS reconfiguration through the Linux cpufreq
user-space-governor interface.  Every state-changing decision is serialized
behind the RSM's global lock (concurrent updates could transiently exceed
the power budget), and each frequency write pays the full software path:
user→kernel crossing, cpufreq driver, and the 25 µs hardware ramp, all on
the *initiating worker's core*.  That serialization is exactly the
bottleneck the paper measures in Section V-C (average reconfiguration
latency 11–65 µs; multi-millisecond worst-case lock waits under bursty
barrier behaviour) and the motivation for the hardware RSU.

Decision placement (see DESIGN.md):

* **task assigned** — accelerate within budget; a critical task may evict a
  non-critical (or idle-but-accelerated) core; a non-critical task on an
  accelerated core hands the budget to a waiting critical task (the dynamic
  fix for CATS's priority inversion).
* **task finished** — bookkeeping only (criticality → No Task).  Actual
  deceleration is deferred to the worker's next decision point: if the
  worker immediately picks another task the core simply keeps its slot,
  avoiding a pointless decelerate/re-accelerate pair per task.
* **worker idle** — the paper's "every time an accelerated task finishes,
  the runtime decelerates the core": the slot is released and, if a
  critical task is running non-accelerated, it inherits the budget
  (the fix for CATS's static binding).

The fast path — decisions that change nothing — takes no lock and performs
no writes, mirroring the racy check-then-lock idiom of the real runtime.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .budget import Criticality, Decision
from .rsm import ReconfigurationSupportModule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.system import RuntimeSystem
    from ..runtime.task import Task
    from ..runtime.worker import Worker

__all__ = ["SoftwareCataManager"]

Proceed = Callable[[], None]


class SoftwareCataManager:
    """Runtime-driven CATA using the cpufreq software path."""

    name = "cata"

    def __init__(self, budget: int) -> None:
        self._budget = budget
        self._system: "RuntimeSystem | None" = None
        self.rsm: ReconfigurationSupportModule | None = None

    # ------------------------------------------------------------- wiring
    def attach(self, system: "RuntimeSystem") -> None:
        self._system = system
        self.rsm = ReconfigurationSupportModule(
            sim=system.sim,
            core_count=system.machine.core_count,
            budget=self._budget,
            trace=system.trace,
        )

    def on_run_start(self) -> None:
        pass

    @property
    def system(self) -> "RuntimeSystem":
        assert self._system is not None, "manager not attached"
        return self._system

    # -------------------------------------------------------------- hooks
    def on_task_assigned(self, worker: "Worker", task: "Task", proceed: Proceed) -> None:
        rsm = self.rsm
        assert rsm is not None
        crit = Criticality.CRITICAL if task.critical else Criticality.NON_CRITICAL
        rsm.set_criticality(worker.core_id, crit)
        # Racy fast path: if the decision would change nothing, skip the lock.
        if rsm.decide_assign(worker.core_id, task.critical).empty:
            proceed()
            return
        self._locked_reconfig(
            worker,
            decide=lambda: rsm.decide_assign(worker.core_id, task.critical),
            proceed=proceed,
        )

    def on_task_finished(self, worker: "Worker", task: "Task", proceed: Proceed) -> None:
        rsm = self.rsm
        assert rsm is not None
        # Deferred deceleration: bookkeeping only (see module docstring).
        rsm.set_criticality(worker.core_id, Criticality.NO_TASK)
        proceed()

    def on_worker_idle(self, worker: "Worker", proceed: Proceed) -> None:
        rsm = self.rsm
        assert rsm is not None
        rsm.set_criticality(worker.core_id, Criticality.NO_TASK)
        if rsm.decide_release(worker.core_id).empty:
            proceed()
            return
        self._locked_reconfig(
            worker,
            decide=lambda: rsm.decide_release(worker.core_id),
            proceed=proceed,
        )

    # ------------------------------------------------------ fault injection
    def holds_runtime_lock(self, core_id: int) -> bool:
        """True while ``core_id`` owns the RSM lock (injector defers kills)."""
        return self.rsm is not None and self.rsm.lock.holder == core_id

    def on_core_failed(self, core_id: int) -> None:
        assert self.rsm is not None
        self.rsm.retire_core(core_id)

    def on_task_aborted(self, core_id: int) -> None:
        assert self.rsm is not None
        self.rsm.set_criticality(core_id, Criticality.NO_TASK)

    # ----------------------------------------------------- reconfiguration
    def _locked_reconfig(
        self, worker: "Worker", decide: Callable[[], Decision], proceed: Proceed
    ) -> None:
        """Take the RSM lock, re-decide, perform the cpufreq writes."""
        rsm = self.rsm
        assert rsm is not None
        system = self.system
        machine = system.machine
        core = worker.core
        start_ns = system.sim.now
        core.set_spinning(True)

        def _granted() -> None:
            if worker.state == "failed":
                # The core died while spinning in the FIFO queue.  Hand the
                # lock straight on; the dead core must not reconfigure.
                rsm.lock.release()
                return
            lock_wait = system.sim.now - start_ns
            # Re-decide under the lock: the world may have moved while we
            # waited (another worker may have taken the budget slot).
            decision = decide()
            if decision.empty:
                rsm.lock.release()
                core.set_spinning(False)
                proceed()
                return
            rsm.commit(decision)

            def _record_and_finish() -> None:
                system.trace.record_reconfig(
                    initiator_core=worker.core_id,
                    start_ns=start_ns,
                    end_ns=system.sim.now,
                    accelerated_core=decision.accel,
                    decelerated_core=decision.decel,
                    mechanism="software",
                    lock_wait_ns=lock_wait,
                )
                rsm.lock.release()
                core.set_spinning(False)
                proceed()

            # The cpufreq driver initiates the hardware ramp and returns;
            # the caller does not block for the 25 µs transition (dual-rail
            # Vdd switching needs no caller-visible settling).  Budget
            # safety is preserved by ordering: the decel write is issued
            # before the accel write and both ramps take the same 25 µs, so
            # the victim always leaves the fast level no later than the
            # beneficiary reaches it.
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

        rsm.lock.acquire(worker.core_id, _granted)
