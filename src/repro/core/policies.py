"""Policy registry — one constructor per evaluated configuration.

Maps the paper's configuration names to fully wired
:class:`~repro.runtime.system.RuntimeSystem` instances:

==============  =============================================================
``fifo``        FIFO scheduler on a static heterogeneous machine (baseline)
``cats_bl``     CATS scheduler + bottom-level criticality (CATS+BL)
``cats_sa``     CATS scheduler + static annotations (CATS+SA)
``cata``        CATA with software (cpufreq) reconfiguration, SA criticality
``cata_bl``     ablation: CATA driven by the bottom-level estimator
``cata_rsu``    CATA with the hardware RSU
``turbomode``   FIFO scheduling + criticality-blind TurboMode acceleration
==============  =============================================================

``fast_cores`` is both the number of statically fast cores (FIFO/CATS) and
the power budget in "maximum simultaneously accelerated cores" (CATA/RSU/
TurboMode), exactly as in the paper's experimental setup (8, 16 or 24 of 32).
"""

from __future__ import annotations

from typing import Optional

from ..runtime.accel import AccelerationManager, NullAccelerationManager
from ..runtime.cats import CATAScheduler, CATSScheduler
from ..runtime.criticality import (
    BottomLevelEstimator,
    CriticalityEstimator,
    StaticAnnotationEstimator,
    WeightedBottomLevelEstimator,
)
from ..runtime.fifo import FIFOScheduler
from ..runtime.queues import bottom_level_priority
from ..runtime.worksteal import WorkStealingScheduler
from ..runtime.program import Program
from ..runtime.scheduler_base import Scheduler
from ..runtime.system import RuntimeSystem
from ..sim.config import MachineConfig, default_machine
from ..sim.faults import FaultPlan, parse_fault_spec
from .cata import SoftwareCataManager
from .hybrid import RsuTurboManager
from .multilevel import MultiLevelRsuManager
from .ondemand import OndemandGovernor
from .rsu import RsuCataManager
from .turbomode import TurboModeManager

__all__ = ["POLICIES", "EXTRA_POLICIES", "build_system", "run_policy", "run_scenario_policy"]

#: The six configurations evaluated in the paper's Figures 4 and 5.
POLICIES: tuple[str, ...] = (
    "fifo",
    "cats_bl",
    "cats_sa",
    "cata",
    "cata_rsu",
    "turbomode",
)

#: Extensions beyond the paper's figures (ablations).
EXTRA_POLICIES: tuple[str, ...] = (
    "cata_bl",
    "cats_wbl",
    "cata_rsu_ml",
    "cata_rsu_tm",
    "fifo_ws",
    "cata_rsu_ws",
    "ondemand",
)


def build_system(
    program: Program,
    policy: str,
    machine: Optional[MachineConfig] = None,
    fast_cores: int = 8,
    seed: int = 0,
    trace_enabled: bool = True,
    bl_threshold: float = 0.75,
    bl_edge_budget: int = 64,
    sanitize: bool = False,
    faults: "str | FaultPlan | None" = None,
    jobs=None,
    scenario_spec: Optional[str] = None,
) -> RuntimeSystem:
    """Wire a runtime system for one policy on one program.

    ``faults`` accepts a spec string (``kind@time:cN`` clauses or
    ``chaos:intensity=...``; see :mod:`repro.sim.faults`), an already-parsed
    :class:`FaultPlan`, or ``None``/``"off"`` for a pristine machine.
    ``jobs`` (a sequence of
    :class:`~repro.runtime.admission.AdmittedJob`) switches the system to
    open-loop arrival-timed admission; ``program`` is then only a label
    carrier (see :func:`run_scenario_policy`).
    """
    if machine is None:
        machine = default_machine()
    if not (0 < fast_cores <= machine.core_count):
        raise ValueError(
            f"fast_cores must be in [1, {machine.core_count}], got {fast_cores}"
        )

    static_levels = [
        machine.fast if i < fast_cores else machine.slow
        for i in range(machine.core_count)
    ]
    all_slow = [machine.slow] * machine.core_count

    scheduler: Scheduler
    estimator: CriticalityEstimator
    manager: AccelerationManager
    if policy == "fifo":
        scheduler = FIFOScheduler()
        estimator = StaticAnnotationEstimator()
        manager = NullAccelerationManager()
        levels = static_levels
    elif policy == "cats_bl":
        scheduler = CATSScheduler(range(fast_cores), priority=bottom_level_priority)
        estimator = BottomLevelEstimator(
            machine.overheads, threshold=bl_threshold, exploration_cap=bl_edge_budget
        )
        manager = NullAccelerationManager()
        levels = static_levels
    elif policy == "cats_sa":
        scheduler = CATSScheduler(range(fast_cores))
        estimator = StaticAnnotationEstimator()
        manager = NullAccelerationManager()
        levels = static_levels
    elif policy == "cats_wbl":
        # Extension: duration-weighted bottom-level — fixes the paper's
        # "task execution time is not taken into account" limitation of BL.
        estimator = WeightedBottomLevelEstimator(
            machine.overheads, threshold=bl_threshold, exploration_cap=bl_edge_budget
        )
        # The HPRQ dispatches by *time remaining below the task*, not hops.
        scheduler = CATSScheduler(range(fast_cores), priority=estimator.wbl_of)
        manager = NullAccelerationManager()
        levels = static_levels
    elif policy == "cata":
        scheduler = CATAScheduler()
        estimator = StaticAnnotationEstimator()
        manager = SoftwareCataManager(budget=fast_cores)
        levels = all_slow
    elif policy == "cata_bl":
        scheduler = CATAScheduler(priority=bottom_level_priority)
        estimator = BottomLevelEstimator(
            machine.overheads, threshold=bl_threshold, exploration_cap=bl_edge_budget
        )
        manager = SoftwareCataManager(budget=fast_cores)
        levels = all_slow
    elif policy == "cata_rsu":
        scheduler = CATAScheduler()
        estimator = StaticAnnotationEstimator()
        manager = RsuCataManager(budget=fast_cores)
        levels = all_slow
    elif policy == "fifo_ws":
        # Extension baseline: criticality-blind work stealing on the static
        # heterogeneous machine (related-work Section VI-B).
        scheduler = WorkStealingScheduler(machine.core_count)
        estimator = StaticAnnotationEstimator()
        manager = NullAccelerationManager()
        levels = static_levels
    elif policy == "cata_rsu_ws":
        # Extension: RSU-driven acceleration composed with work stealing —
        # shows CATA's benefit is orthogonal to the queueing discipline.
        scheduler = WorkStealingScheduler(machine.core_count)
        estimator = StaticAnnotationEstimator()
        manager = RsuCataManager(budget=fast_cores)
        levels = all_slow
    elif policy == "cata_rsu_tm":
        # Extension (paper Section V-D / III-B.5): RSU fused with the
        # TurboMode microcontroller — blocked cores lend their budget out.
        scheduler = CATAScheduler()
        estimator = StaticAnnotationEstimator()
        manager = RsuTurboManager(budget=fast_cores)
        levels = all_slow
    elif policy == "cata_rsu_ml":
        # Extension (paper future work): >2 DVFS levels.  The unit budget is
        # chosen so the ladder's peak spend equals the two-level budget
        # (fast_cores cores at the top level).
        scheduler = CATAScheduler()
        estimator = StaticAnnotationEstimator()
        manager = MultiLevelRsuManager(budget_units=2 * fast_cores)
        levels = all_slow
    elif policy == "ondemand":
        # Extension baseline: interval-based utilization-driven DVFS
        # (related-work Section VI-C), criticality-blind and tick-quantized.
        scheduler = FIFOScheduler()
        estimator = StaticAnnotationEstimator()
        manager = OndemandGovernor(budget=fast_cores)
        levels = all_slow
    elif policy == "turbomode":
        scheduler = FIFOScheduler()
        estimator = StaticAnnotationEstimator()
        manager = TurboModeManager(budget=fast_cores, seed=seed)
        levels = all_slow
    else:
        raise ValueError(
            f"unknown policy {policy!r}; expected one of {POLICIES + EXTRA_POLICIES}"
        )

    plan = (
        faults
        if isinstance(faults, FaultPlan) or faults is None
        else parse_fault_spec(faults, seed=seed, core_count=machine.core_count)
    )
    return RuntimeSystem(
        machine=machine,
        program=program,
        scheduler=scheduler,
        estimator=estimator,
        manager=manager,
        initial_levels=levels,
        trace_enabled=trace_enabled,
        policy_name=policy,
        sanitize=sanitize,
        faults=plan,
        jobs=jobs,
        scenario_spec=scenario_spec,
    )


def run_policy(
    program: Program,
    policy: str,
    machine: Optional[MachineConfig] = None,
    fast_cores: int = 8,
    seed: int = 0,
    trace_enabled: bool = True,
    sanitize: bool = False,
    faults: "str | FaultPlan | None" = None,
):
    """Build and run in one call; returns the :class:`RunResult`."""
    system = build_system(
        program,
        policy,
        machine=machine,
        fast_cores=fast_cores,
        seed=seed,
        trace_enabled=trace_enabled,
        sanitize=sanitize,
        faults=faults,
    )
    return system.run()


def run_scenario_policy(
    scenario,
    policy: str,
    machine: Optional[MachineConfig] = None,
    fast_cores: int = 8,
    seed: int = 0,
    scale: float = 1.0,
    trace_enabled: bool = True,
    sanitize: bool = False,
    faults: "str | FaultPlan | None" = None,
):
    """Run an open-loop multi-tenant scenario under one policy.

    ``scenario`` is a spec string (``[name:]bench@kind(...)[@qos=..]``
    tenants joined by ``+``; see :mod:`repro.workloads.scenario`) or an
    already-parsed :class:`~repro.workloads.scenario.Scenario`.  The
    ``(scenario, scale, seed)`` triple is bitwise-reproducible.  Returns a
    :class:`~repro.runtime.system.RunResult` whose latency fields and
    ``extra["scenario"]`` summary are populated.
    """
    # Imported here: repro.workloads sits above repro.core in the layer
    # order, and only scenario runs need it.
    from ..workloads.scenario import Scenario, parse_scenario

    scn = scenario if isinstance(scenario, Scenario) else parse_scenario(str(scenario))
    if machine is None:
        machine = default_machine()
    jobs = scn.build_jobs(scale=scale, seed=seed, machine=machine)
    system = build_system(
        Program(name=scn.label()),
        policy,
        machine=machine,
        fast_cores=fast_cores,
        seed=seed,
        trace_enabled=trace_enabled,
        sanitize=sanitize,
        faults=faults,
        jobs=jobs,
        scenario_spec=scn.canonical(),
    )
    return system.run()
