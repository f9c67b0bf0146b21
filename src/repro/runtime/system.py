"""Runtime system glue: engine + machine + scheduler + acceleration manager.

:class:`RuntimeSystem` owns one complete simulated execution of a
:class:`~repro.runtime.program.Program` under one policy.  It wires the
simulator substrate (cores, DVFS, C-states, energy accounting), the runtime
substrate (TDG, scheduler, workers, submission) and the paper's
acceleration mechanisms (via the :class:`~repro.runtime.accel
.AccelerationManager` protocol), runs the event loop to completion, and
produces a :class:`RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..sim.config import DVFSLevel, MachineConfig
from ..sim.core_model import Core
from ..sim.cstates import CStateController
from ..sim.dvfs import DVFSController
from ..sim.energy import EnergyAccountant
from ..sim.engine import SEC, SimulationError, Simulator
from ..sim.faults import FaultPlan
from ..sim.kernel import CpufreqFramework
from ..sim.power import PowerModel
from ..sim.trace import Trace
from .accel import AccelerationManager, NullAccelerationManager
from .admission import AdmittedJob, JobAdmissionController
from .criticality import CriticalityEstimator, StaticAnnotationEstimator
from .faults import FaultInjector
from .program import Program
from .scheduler_base import Scheduler
from .submission import SubmissionController
from .task import Task
from .tdg import TaskGraph
from .worker import Worker

__all__ = ["RuntimeSystem", "RunResult"]


@dataclass
class RunResult:
    """Aggregate outcome of one simulated execution."""

    policy: str
    workload: str
    exec_time_ns: float
    energy_j: float
    cores_energy_j: float
    uncore_energy_j: float
    tasks_executed: int
    reconfig_count: int
    freq_transitions: int
    avg_reconfig_latency_ns: float
    max_lock_wait_ns: float
    total_lock_wait_ns: float
    cpufreq_writes: int
    trace: Trace = field(repr=False, default_factory=Trace)
    extra: dict = field(default_factory=dict)

    # --- open-loop scenario metrics (None in closed-loop batch runs; the
    # serializer omits None values so legacy fingerprints are unchanged) ---
    latency_p50_ns: Optional[float] = None
    latency_p95_ns: Optional[float] = None
    latency_p99_ns: Optional[float] = None
    qos_violation_rate: Optional[float] = None

    @property
    def exec_time_s(self) -> float:
        return self.exec_time_ns / SEC

    @property
    def edp(self) -> float:
        """Energy-Delay Product in joule-seconds."""
        return self.energy_j * self.exec_time_s

    def reconfig_overhead_fraction(self, core_count: int) -> float:
        total_core_time = self.exec_time_ns * core_count
        if total_core_time <= 0:
            return 0.0
        return self.trace.total_reconfig_latency_ns / total_core_time


class RuntimeSystem:
    """One wired-up simulated machine + runtime + policy."""

    def __init__(
        self,
        machine: MachineConfig,
        program: Program,
        scheduler: Scheduler,
        estimator: Optional[CriticalityEstimator] = None,
        manager: Optional[AccelerationManager] = None,
        initial_levels: Optional[Sequence[DVFSLevel]] = None,
        trace_enabled: bool = True,
        policy_name: str = "custom",
        bl_edge_budget: "Optional[int]" = None,
        sanitize: bool = False,
        faults: Optional[FaultPlan] = None,
        jobs: Optional[Sequence[AdmittedJob]] = None,
        scenario_spec: Optional[str] = None,
    ) -> None:
        self.machine = machine
        self.program = program
        self.policy_name = policy_name
        self.sim = Simulator()
        self.sanitizer = None
        if sanitize:
            # Imported lazily: repro.analysis is a higher layer and pulling
            # it in at module-import time would cycle through runtime.
            from ..analysis.sanitize import Sanitizer

            self.sanitizer = Sanitizer()
            # Installed before any component is built so every constructor
            # (DVFS, locks, RSM/RSU tables) sees the hook.
            self.sim.sanitizer = self.sanitizer
        self.trace = Trace(enabled=trace_enabled)
        self.power_model = PowerModel(machine.power)
        self.energy = EnergyAccountant(
            self.sim, self.power_model, machine.core_count
        )
        levels = list(initial_levels) if initial_levels is not None else None
        self.dvfs = DVFSController(self.sim, machine, self.trace, levels)
        self.cpufreq = CpufreqFramework(self.sim, machine, self.dvfs)
        self.cores = [
            Core(i, self.sim, machine, self.dvfs, self.energy, self.trace)
            for i in range(machine.core_count)
        ]
        self.dvfs.add_listener(self._on_level_changed)
        self.cstates = CStateController(self.sim, machine, self.cores)
        self.estimator: CriticalityEstimator = (
            estimator if estimator is not None else StaticAnnotationEstimator()
        )
        # The estimator is resolved before the TDG so the graph can skip
        # bottom-level maintenance for policies that never read it (static
        # annotations): those runs pay zero relaxation cost.  Policies that
        # order queues by BL (cats_bl/cata_bl) use BL estimators, so the
        # tracked/untracked split is decided by the estimator alone.
        self.tdg = TaskGraph(
            on_ready=self._on_task_ready,
            bl_edge_budget=bl_edge_budget,
            track_bottom_levels=getattr(self.estimator, "needs_bottom_levels", True),
        )
        self.scheduler = scheduler
        scheduler.attach(self)
        self.manager: AccelerationManager = (
            manager if manager is not None else NullAccelerationManager()
        )
        self.manager.attach(self)
        self.workers = [Worker(self, core) for core in self.cores]
        self._idle_stack: list[int] = []
        #: The core whose completion/submission last released tasks — the
        #: enqueue hint used by the work-stealing scheduler.
        self.ready_context_core: int = 0
        self.scenario_spec = scenario_spec
        #: Open-loop scenarios replace the main-thread submission model with
        #: arrival-timed job admission; closed-loop runs are untouched.
        self._admission: Optional[JobAdmissionController] = None
        if jobs is None:
            self.submission: SubmissionController | JobAdmissionController = (
                SubmissionController(self, program)
            )
        else:
            self._admission = JobAdmissionController(self, jobs)
            self.submission = self._admission
        #: Fault injection is strictly opt-in: with no plan there is no
        #: injector, no armed events and no per-event overhead.
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(self, faults) if faults is not None and len(faults) else None
        )
        self.done = False
        self.completion_ns: Optional[float] = None

    # ------------------------------------------------------------ plumbing
    def _on_level_changed(self, core_id: int, old: DVFSLevel, new: DVFSLevel) -> None:
        self.cores[core_id].on_level_changed(old_level=old)

    def _on_task_ready(self, task: Task) -> None:
        task.critical = self.estimator.is_critical(task, self.tdg)
        self.scheduler.on_task_ready(task)

    def on_task_finished(self, task: Task) -> None:
        """Called by workers after TDG completion bookkeeping."""
        self.estimator.on_finish(task, self.tdg)
        if self._admission is not None:
            self._admission.on_task_finished(task)
        self._maybe_advance_barrier()
        self.check_completion()

    def note_tenant_running(self, core_id: int, tenant_id: int) -> None:
        """Attribute a core to the tenant whose task it just picked up."""
        table = self._accel_table()
        if table is not None:
            table.note_tenant(core_id, tenant_id)

    def _accel_table(self):
        """The manager's budget table, whichever attribute it lives under.

        Resolved per call, not cached: RSU managers rebuild their table on
        ``rsu_on`` faults.  Returns None for budget-less managers (fifo,
        cats_*), which simply get no per-tenant acceleration accounting.
        """
        table = getattr(self.manager, "table", None)
        if table is None:
            table = getattr(self.manager, "rsm", None)
        return table

    def on_worker_idle(self, worker: Worker) -> None:
        self._idle_stack.append(worker.core_id)
        if worker.core_id == 0:
            self._maybe_advance_barrier()

    def _maybe_advance_barrier(self) -> None:
        if (
            self.tdg.unfinished_count == 0
            and not self.submission.finished_submitting
            and self.workers[0].state == "idle"
        ):
            self.submission.on_quiescent()

    def check_completion(self) -> None:
        if (
            not self.done
            and self.submission.finished_submitting
            and self.tdg.unfinished_count == 0
        ):
            self.done = True
            self.completion_ns = self.sim.now
            # Break out of the engine's drain loop without firing the
            # (irrelevant) events still in the heap — idle timers etc.
            self.sim.request_stop()

    # ------------------------------------------------------------ dispatch
    def dispatch(self) -> None:
        """Wake idle workers that the scheduler has work for.

        Wake order is LIFO (most recently idled first) — the thread-pool
        idiom: the hottest worker resumes first, which under CATA also
        tends to be a core whose acceleration has not been torn down yet.
        """
        pending = self.scheduler.pending
        if pending <= 0:
            return
        # Compact the stack: drop entries for workers that are no longer idle.
        self._idle_stack = [
            cid for cid in self._idle_stack if self.workers[cid].state == "idle"
        ]
        for cid in reversed(self._idle_stack):
            if pending <= 0:
                break
            worker = self.workers[cid]
            if not worker.suspended and self.scheduler.has_work_for(cid):
                worker.poke()
                pending -= 1

    def any_worker_available(self, core_ids: Iterable[int]) -> bool:
        return any(self.workers[i].available for i in core_ids)

    def reclassify_ready(self) -> int:
        """Re-estimate the criticality of every queued ready task.

        Called by the fault injector after a core failure: thresholds and
        queue placement were decided against the full machine.  Returns the
        number of tasks re-enqueued.
        """
        tasks = self.scheduler.drain_ready()
        for task in tasks:
            task.critical = self.estimator.is_critical(task, self.tdg)
            self.scheduler.on_task_ready(task)
        return len(tasks)

    # ----------------------------------------------------------------- run
    def run(self, max_events: Optional[int] = None) -> RunResult:
        """Execute the program to completion and return the result."""
        if self.fault_injector is not None:
            self.fault_injector.arm()
        self.manager.on_run_start()
        for worker in self.workers[1:]:
            worker.start()
        self.submission.start()
        # The engine's run() drain loop is the hot path of the whole
        # reproduction (docs/performance.md); completion is signalled from
        # check_completion() via Simulator.request_stop().
        try:
            self.sim.run(max_events=max_events)
        except SimulationError:
            raise RuntimeError(
                f"program did not complete within {max_events} events "
                f"(t={self.sim.now} ns, unfinished={self.tdg.unfinished_count})"
            ) from None
        if not self.done:
            raise RuntimeError(
                "event heap drained before program completion "
                f"(unfinished={self.tdg.unfinished_count}, "
                f"pending={self.scheduler.pending}) — runtime deadlock"
            )
        self.energy.finalize()
        assert self.completion_ns is not None
        # Scenario runs carry tail-latency/QoS metrics and a per-tenant
        # summary; both are absent (None / no extra key) in legacy runs so
        # serialized results stay byte-identical to the golden fingerprints.
        latency_fields: dict = {}
        scenario_extra: dict = {}
        if self._admission is not None:
            table = self._accel_table()
            grants = (
                dict(table.accel_grants_by_tenant) if table is not None else {}
            )
            metrics = self._admission.metrics(
                accel_grants=grants, spec=self.scenario_spec
            )
            latency_fields = {
                "latency_p50_ns": metrics.p50_ns,
                "latency_p95_ns": metrics.p95_ns,
                "latency_p99_ns": metrics.p99_ns,
                "qos_violation_rate": metrics.qos_violation_rate,
            }
            scenario_extra = {"scenario": metrics.summary}
        return RunResult(
            policy=self.policy_name,
            workload=self.program.name,
            exec_time_ns=self.completion_ns,
            energy_j=self.energy.total_energy_j,
            cores_energy_j=self.energy.cores_energy_j,
            uncore_energy_j=self.energy.uncore_energy_j,
            tasks_executed=self.trace.tasks_executed,
            reconfig_count=self.trace.reconfig_count,
            freq_transitions=self.trace.freq_transition_count,
            avg_reconfig_latency_ns=self.trace.avg_reconfig_latency_ns,
            max_lock_wait_ns=self.trace.max_lock_wait_ns,
            total_lock_wait_ns=self.trace.total_lock_wait_ns,
            cpufreq_writes=self.cpufreq.writes,
            trace=self.trace,
            extra={
                "energy_breakdown_j": self.energy.energy_breakdown_j(),
                "time_breakdown_ns": self.energy.time_breakdown_ns(),
                # Only present when a fault plan is active, so fault-free
                # results (and their golden fingerprints) are unchanged.
                **(
                    {"faults": self.fault_injector.summary()}
                    if self.fault_injector is not None
                    else {}
                ),
                **scenario_extra,
            },
            **latency_fields,
        )
