"""Tail-latency study: policies under open-loop multi-tenant arrivals.

The paper scores closed-loop batch runs by makespan, but criticality-aware
acceleration earns its keep when tasks *arrive over time* and tenants
contend for the shared power budget (the CuttleSys setting).  This study
runs one multi-tenant scenario (see :mod:`repro.workloads.scenario`)
under each policy across an **arrival-intensity ladder** — every open-loop
tenant's rate multiplied by the intensity — and tabulates per-task
p50/p95/p99 latency plus the per-job QoS-violation rate.

Each (policy, intensity) pair is one ordinary sweep cell: content-addressed
by the canonical scenario spec (which joins the cell key), executed through
the shared :class:`~repro.harness.executor.SweepExecutor`, and therefore
parallel, cached, journaled and bitwise-reproducible like every other
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..sim.config import MachineConfig
from ..workloads.scenario import parse_scenario
from .cache import ResultCache
from .executor import CellSpec, RetryPolicy, SweepExecutor, SweepStats

__all__ = [
    "LATENCY_TENANTS",
    "LATENCY_SMOKE_TENANTS",
    "LATENCY_POLICIES",
    "LATENCY_INTENSITIES",
    "LatencyRow",
    "LatencyResult",
    "run_latency",
]

#: Default two-tenant scenario: a latency-sensitive fork-join stream with a
#: QoS bound sharing the machine with a best-effort pipeline stream.
LATENCY_TENANTS = (
    "web:blackscholes@poisson(rate=0.4,jobs=4)@qos=12ms"
    "+batch:ferret@poisson(rate=0.25,jobs=3)"
)
#: Tiny two-tenant Poisson scenario for the CI smoke path (``--smoke``).
LATENCY_SMOKE_TENANTS = (
    "a:blackscholes@poisson(rate=2,jobs=2)@qos=4ms"
    "+b:swaptions@poisson(rate=1.5,jobs=2)"
)
LATENCY_POLICIES: tuple[str, ...] = ("fifo", "cats_sa", "cata", "cata_rsu")
#: Arrival-rate multipliers applied to every open-loop tenant.
LATENCY_INTENSITIES: tuple[float, ...] = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class LatencyRow:
    """One (policy, intensity) cell of the study."""

    policy: str
    intensity: float
    #: Canonical scenario spec the cell actually ran (rates scaled).
    scenario: str
    jobs: int
    tasks_executed: int
    latency_p50_ns: float
    latency_p95_ns: float
    latency_p99_ns: float
    qos_violation_rate: float
    exec_time_ns: float
    energy_j: float


@dataclass
class LatencyResult:
    """All rows of one tail-latency study plus its parameters."""

    tenants: str
    fast: int
    seed: int
    scale: float
    intensities: tuple[float, ...]
    rows: list[LatencyRow]
    stats: SweepStats = field(default_factory=SweepStats)

    def row(self, policy: str, intensity: float) -> LatencyRow:
        for r in self.rows:
            if r.policy == policy and r.intensity == intensity:
                return r
        raise KeyError((policy, intensity))

    def to_csv(self) -> str:
        lines = [
            "policy,intensity,p50_ms,p95_ms,p99_ms,qos_violation_rate,"
            "makespan_ms,energy_j,jobs,tasks_executed"
        ]
        for r in self.rows:
            lines.append(
                f"{r.policy},{r.intensity:g},{r.latency_p50_ns / 1e6:.6f},"
                f"{r.latency_p95_ns / 1e6:.6f},{r.latency_p99_ns / 1e6:.6f},"
                f"{r.qos_violation_rate:.6f},{r.exec_time_ns / 1e6:.6f},"
                f"{r.energy_j:.6f},{r.jobs},{r.tasks_executed}"
            )
        return "\n".join(lines)

    def render(self) -> str:
        """Per-intensity table: policies as rows, tail metrics as columns."""
        out: list[str] = [
            "Tail latency under open-loop arrivals "
            f"(fast={self.fast}, seed={self.seed}, scale={self.scale})",
            f"scenario: {self.tenants}",
            "",
        ]
        policies = list(dict.fromkeys(r.policy for r in self.rows))
        header = ["policy", "p50 ms", "p95 ms", "p99 ms", "QoS viol", "makespan ms"]
        widths = [max(12, len(h) + 2) for h in header]
        for intensity in self.intensities:
            out.append(f"== intensity {intensity:g} ==")
            out.append("".join(h.ljust(w) for h, w in zip(header, widths)))
            for policy in policies:
                r = self.row(policy, intensity)
                cells = [
                    policy,
                    f"{r.latency_p50_ns / 1e6:.3f}",
                    f"{r.latency_p95_ns / 1e6:.3f}",
                    f"{r.latency_p99_ns / 1e6:.3f}",
                    f"{r.qos_violation_rate:.2f}",
                    f"{r.exec_time_ns / 1e6:.3f}",
                ]
                out.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
            out.append("")
        return "\n".join(out).rstrip() + "\n"


def run_latency(
    tenants: str = LATENCY_TENANTS,
    policies: Sequence[str] = LATENCY_POLICIES,
    intensities: Sequence[float] = LATENCY_INTENSITIES,
    fast: int = 8,
    seed: int = 1,
    scale: float = 0.3,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    machine: Optional[MachineConfig] = None,
    verbose: bool = False,
    retry: Optional[RetryPolicy] = None,
) -> LatencyResult:
    """Run the tail-latency study; one parallel batch over all cells."""
    base = parse_scenario(tenants)
    executor = SweepExecutor(
        jobs=jobs,
        cache=ResultCache(cache_dir) if cache_dir is not None else None,
        machine=machine,
        verbose=verbose,
        retry=retry,
    )
    cells: dict[tuple[str, float], CellSpec] = {}
    for intensity in intensities:
        scenario = base.scaled_rates(intensity)
        canonical = scenario.canonical()
        label = scenario.label()
        for policy in policies:
            cells[(policy, intensity)] = CellSpec(
                workload=label,
                policy=policy,
                fast=fast,
                seed=seed,
                scale=scale,
                scenario=canonical,
            )
    results, stats = executor.run_cells(list(cells.values()))

    rows: list[LatencyRow] = []
    for intensity in intensities:
        for policy in policies:
            cell = cells[(policy, intensity)]
            result = results[cell]
            summary = result.extra.get("scenario", {})
            rows.append(
                LatencyRow(
                    policy=policy,
                    intensity=intensity,
                    scenario=cell.scenario,
                    jobs=summary.get("jobs", 0),
                    tasks_executed=result.tasks_executed,
                    latency_p50_ns=result.latency_p50_ns or 0.0,
                    latency_p95_ns=result.latency_p95_ns or 0.0,
                    latency_p99_ns=result.latency_p99_ns or 0.0,
                    qos_violation_rate=result.qos_violation_rate or 0.0,
                    exec_time_ns=result.exec_time_ns,
                    energy_j=result.energy_j,
                )
            )
    return LatencyResult(
        tenants=base.canonical(),
        fast=fast,
        seed=seed,
        scale=scale,
        intensities=tuple(intensities),
        rows=rows,
        stats=stats,
    )
