"""Degradation study: policy performance under injected machine faults.

The paper evaluates CATA on a pristine machine.  This extension asks the
robustness question the fault model (:mod:`repro.sim.faults`) exists for:
*how gracefully does each policy degrade when the machine misbehaves?*

Protocol, per (workload, policy):

1. run the fault-free baseline and derive a chaos **horizon** of 60% of
   the baseline's makespan, so injected faults land inside the window
   where the policy is actually making decisions regardless of workload
   length;
2. re-run under ``chaos:intensity=I,horizon=<ns>ns`` for each intensity
   in the ladder, with the fault mix drawn deterministically from
   ``(seed, spec)`` — the study is bitwise-reproducible and cacheable
   like any other sweep cell;
3. report the slowdown (faulted makespan / fault-free makespan) per
   intensity, plus the injected-event and recovery counters.

Static policies (``fifo``, ``cats_sa``) lose fast cores outright when a
core fails; reconfigurable ones (``cata``, ``cata_rsu``) re-accelerate
around the hole, which is the contrast the table exists to show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..sim.config import MachineConfig
from .cache import ResultCache
from .executor import CellSpec, RetryPolicy, SweepExecutor

__all__ = [
    "DEGRADATION_WORKLOADS",
    "DEGRADATION_POLICIES",
    "DEGRADATION_INTENSITIES",
    "DegradationRow",
    "DegradationResult",
    "run_degradation",
]

DEGRADATION_WORKLOADS: tuple[str, ...] = ("swaptions", "fluidanimate")
DEGRADATION_POLICIES: tuple[str, ...] = (
    "fifo",
    "cats_sa",
    "turbomode",
    "cata",
    "cata_rsu",
)
#: Intensity ladder; 0.0 is the fault-free baseline row.
DEGRADATION_INTENSITIES: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class DegradationRow:
    """One (workload, policy, intensity) cell of the study."""

    workload: str
    policy: str
    intensity: float
    faults_spec: str
    exec_time_ns: float
    #: Faulted makespan / fault-free makespan (1.0 at intensity 0).
    slowdown: float
    energy_j: float
    tasks_executed: int
    events_injected: int
    cores_failed: int
    tasks_aborted: int
    rsu_outages: int


@dataclass
class DegradationResult:
    """All rows of one degradation study plus its parameters."""

    fast: int
    seed: int
    scale: float
    intensities: tuple[float, ...]
    rows: list[DegradationRow]

    def row(self, workload: str, policy: str, intensity: float) -> DegradationRow:
        for r in self.rows:
            if (
                r.workload == workload
                and r.policy == policy
                and r.intensity == intensity
            ):
                return r
        raise KeyError((workload, policy, intensity))

    def to_csv(self) -> str:
        lines = [
            "workload,policy,intensity,slowdown,exec_time_ns,energy_j,"
            "tasks_executed,events_injected,cores_failed,tasks_aborted,rsu_outages"
        ]
        for r in self.rows:
            lines.append(
                f"{r.workload},{r.policy},{r.intensity},{r.slowdown:.6f},"
                f"{r.exec_time_ns:.1f},{r.energy_j:.6f},{r.tasks_executed},"
                f"{r.events_injected},{r.cores_failed},{r.tasks_aborted},"
                f"{r.rsu_outages}"
            )
        return "\n".join(lines)

    def render(self) -> str:
        """Per-workload slowdown table, policies as rows, intensities as columns."""
        out: list[str] = [
            "Degradation under injected faults "
            f"(slowdown vs fault-free; fast={self.fast}, seed={self.seed}, "
            f"scale={self.scale})",
            "",
        ]
        workloads = list(dict.fromkeys(r.workload for r in self.rows))
        policies = list(dict.fromkeys(r.policy for r in self.rows))
        header = ["policy"] + [f"I={i:g}" for i in self.intensities]
        widths = [max(10, len(h) + 2) for h in header]
        for workload in workloads:
            out.append(f"== {workload} ==")
            out.append("".join(h.ljust(w) for h, w in zip(header, widths)))
            for policy in policies:
                cells = [policy]
                for intensity in self.intensities:
                    r = self.row(workload, policy, intensity)
                    note = ""
                    if r.cores_failed:
                        note = f" ({r.cores_failed} dead)"
                    cells.append(f"{r.slowdown:.3f}{note}")
                out.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
            out.append("")
        return "\n".join(out).rstrip() + "\n"


def _chaos_spec(intensity: float, horizon_ns: float) -> str:
    return f"chaos:intensity={intensity:g},horizon={int(round(horizon_ns))}ns"


def run_degradation(
    workloads: Sequence[str] = DEGRADATION_WORKLOADS,
    policies: Sequence[str] = DEGRADATION_POLICIES,
    intensities: Sequence[float] = DEGRADATION_INTENSITIES,
    fast: int = 8,
    seed: int = 1,
    scale: float = 0.3,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    machine: Optional[MachineConfig] = None,
    verbose: bool = False,
    retry: Optional[RetryPolicy] = None,
) -> DegradationResult:
    """Run the two-phase degradation study (baselines, then chaos ladder)."""
    executor = SweepExecutor(
        jobs=jobs,
        cache=ResultCache(cache_dir) if cache_dir is not None else None,
        machine=machine,
        verbose=verbose,
        retry=retry,
    )

    def spec(workload: str, policy: str, faults: str) -> CellSpec:
        return CellSpec(
            workload=workload,
            policy=policy,
            fast=fast,
            seed=seed,
            scale=scale,
            faults=faults,
        )

    # Phase 1 — fault-free baselines; one parallel batch.
    base_specs = {
        (w, p): spec(w, p, "off") for w in workloads for p in policies
    }
    base_results, _ = executor.run_cells(list(base_specs.values()))

    # Phase 2 — chaos ladder, horizon pinned to 60% of each baseline's
    # makespan; one parallel batch across every (cell, intensity).
    chaos_specs: dict[tuple[str, str, float], CellSpec] = {}
    for (w, p), base in base_specs.items():
        horizon_ns = 0.6 * base_results[base].exec_time_ns
        for intensity in intensities:
            if intensity == 0.0:
                continue
            chaos_specs[(w, p, intensity)] = spec(
                w, p, _chaos_spec(intensity, horizon_ns)
            )
    chaos_results, _ = executor.run_cells(list(chaos_specs.values()))

    rows: list[DegradationRow] = []
    for w in workloads:
        for p in policies:
            base = base_results[base_specs[(w, p)]]
            for intensity in intensities:
                if intensity == 0.0:
                    result, faults_spec = base, "off"
                else:
                    cell = chaos_specs[(w, p, intensity)]
                    result, faults_spec = chaos_results[cell], cell.faults
                summary = result.extra.get("faults", {})
                rows.append(
                    DegradationRow(
                        workload=w,
                        policy=p,
                        intensity=intensity,
                        faults_spec=faults_spec,
                        exec_time_ns=result.exec_time_ns,
                        slowdown=result.exec_time_ns / base.exec_time_ns,
                        energy_j=result.energy_j,
                        tasks_executed=result.tasks_executed,
                        events_injected=summary.get("events", 0),
                        cores_failed=summary.get("cores_failed", 0),
                        tasks_aborted=summary.get("tasks_aborted", 0),
                        rsu_outages=summary.get("rsu_outages", 0),
                    )
                )
    return DegradationResult(
        fast=fast,
        seed=seed,
        scale=scale,
        intensities=tuple(intensities),
        rows=rows,
    )
