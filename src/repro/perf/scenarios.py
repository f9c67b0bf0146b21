"""The fixed benchmark scenarios measured by ``python -m repro perf``.

Each scenario runs a deterministic workload and reports an operation count
plus the wall time it took; the runner converts that to ops/sec and a
machine-normalized score.  Scenario *sizes* are identical in smoke and full
mode (only the repetition count differs), so numbers from either mode are
directly comparable.

Micro scenarios stress exactly the paths the inner-loop work optimized:

* ``engine_churn`` — the pure heap pop/fire/schedule cycle of
  :class:`~repro.sim.engine.Simulator`;
* ``cancel_churn`` — lazy cancellation plus periodic heap compaction;
* ``tdg_relax`` — the bottom-level relaxation walk charged as the BL
  estimator's overhead (the hottest function of dense-TDG runs), on
  whichever backend the environment toggle selects;
* ``energy_sweep`` — power-state churn through the interval-batched
  energy accountant (append, replay sweep, finalize);
* ``pipeline_e2e`` / ``pipeline_e2e_nokernels`` — one end-to-end engine
  cell on a chain-heavy serial pipeline, with array kernels pinned on
  and off, so the end-to-end kernel speedup is a ratio of two rows in
  the same bench file.

Macro scenarios are full Figure 4 cells (scale 1.0, 8 fast cores, seed 1)
driven through the same ``build_program``/``build_system`` wiring as the
paper sweeps, with tracing off — the configuration the acceptance speedup
is measured on — plus one faulted cell.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from ..core.policies import build_system
from ..runtime.program import Program
from ..runtime.task import TaskType
from ..runtime.tdg import TaskGraph
from ..sim.arrays import ENV_TOGGLE
from ..sim.config import default_machine
from ..sim.energy import EnergyAccountant
from ..sim.engine import Simulator
from ..sim.power import CoreState, PowerModel
from ..workloads import build_program
from ..workloads.synthetic import StageSpec, make_pipeline

__all__ = [
    "Measurement",
    "Scenario",
    "ENGINE_SCENARIOS",
    "SWEEP_SCENARIOS",
    "calibrate",
]


@dataclass(frozen=True)
class Measurement:
    """One timed scenario execution."""

    ops: int
    wall_s: float

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.wall_s if self.wall_s > 0 else 0.0


@dataclass(frozen=True)
class Scenario:
    """A named benchmark with fixed parameters."""

    name: str
    run: Callable[[], Measurement]
    #: What one "op" is, for the report and the JSON schema.
    unit: str
    params: dict


# --------------------------------------------------------------- calibration
def _calibration_spin(n: int) -> int:
    acc = 0
    for i in range(n):
        acc = (acc + i * 3) % 1000003
    return acc


def calibrate(reps: int = 3, n: int = 2_000_000) -> float:
    """Interpreter-speed reference in ops/sec (best of ``reps``).

    A fixed pure-Python arithmetic loop: dividing scenario throughput by
    this cancels the host machine's speed, so regression checks compare
    *code* across commits rather than *hardware* across CI runners.
    """
    best = 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        _calibration_spin(n)
        wall = time.perf_counter() - t0
        if wall > 0:
            best = max(best, n / wall)
    return best


# ----------------------------------------------------------- micro scenarios
def _engine_churn(n_events: int = 150_000, chains: int = 64) -> Measurement:
    """Self-rescheduling event chains through the simulator heap."""
    sim = Simulator()
    remaining = [n_events]

    def tick() -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            sim.schedule(1.0, tick)

    for i in range(chains):
        sim.schedule(float(i % 7), tick)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return Measurement(ops=sim.events_fired, wall_s=wall)


def _cancel_churn(rounds: int = 600, batch: int = 256) -> Measurement:
    """Schedule a batch, cancel half of it, fire the rest; repeat.

    Keeps the heap half-dead so the lazy-cancellation skip path and the
    periodic in-place compaction both run continuously.
    """
    sim = Simulator()
    remaining = [rounds]

    def noop() -> None:
        pass

    def drive() -> None:
        events = [sim.schedule(10.0 + i, noop) for i in range(batch)]
        for ev in events[::2]:
            ev.cancel()
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(batch + 20.0, drive)

    sim.schedule(0.0, drive)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    # Cancelled events are work too: the skip/compaction path is the point.
    return Measurement(ops=sim.events_fired + rounds * (batch // 2), wall_s=wall)


def _tdg_relax(
    n_tasks: int = 20_000,
    fan: int = 6,
    budget: int = 64,
) -> Measurement:
    """Dense dependence chains driving the bottom-level relaxation walk."""
    graph = TaskGraph(bl_edge_budget=budget)
    ttype = TaskType(name="bench", criticality=0, activity=0.5)
    t0 = time.perf_counter()
    for i in range(n_tasks):
        deps = tuple(range(max(0, i - fan), i))
        graph.submit(ttype, cpu_cycles=1000.0, mem_ns=100.0, deps=deps)
    wall = time.perf_counter() - t0
    return Measurement(ops=graph.bl_edges_visited_total, wall_s=wall)


def _energy_sweep(n_transitions: int = 200_000, cores: int = 32) -> Measurement:
    """Core power-state churn through the interval-batched accountant.

    Cycles every core through the five states a real run visits
    (fast/slow busy, idle, halt, sleep) on a monotone clock, through
    ``EnergyAccountant.transition``, the call a core makes per
    transition.  Crosses the periodic flush threshold several times, so
    the scenario times the full append -> replay-sweep -> finalize
    pipeline, not just the appends.
    """
    machine = default_machine()
    sim = Simulator()
    acct = EnergyAccountant(sim, PowerModel(machine.power), cores)
    states = (
        CoreState(level=machine.fast, cstate="C0", activity=1.0, busy=True),
        CoreState(level=machine.slow, cstate="C0", activity=0.8, busy=True),
        CoreState(level=machine.slow, cstate="C0", activity=0.1, busy=False),
        CoreState(level=machine.slow, cstate="C1", activity=0.0, busy=False),
        CoreState(level=machine.fast, cstate="C3", activity=0.0, busy=False),
    )
    power = [acct.resolve(s) for s in states]
    transition = acct.transition
    t0 = time.perf_counter()
    for i in range(n_transitions):
        sim._now += 50.0
        transition(i % cores, power[i % 5])
    acct.finalize()
    wall = time.perf_counter() - t0
    assert acct.total_energy_j > 0.0
    return Measurement(ops=n_transitions, wall_s=wall)


@contextmanager
def _forced_kernels(value: str) -> Iterator[None]:
    """Pin ``REPRO_ARRAY_KERNELS`` while a system is *constructed*.

    The toggle is consulted at TaskGraph/EnergyAccountant construction
    time, so wrapping only the build (not the timed run) cleanly selects
    the backend for a whole cell.
    """
    prev = os.environ.get(ENV_TOGGLE)
    os.environ[ENV_TOGGLE] = value
    try:
        yield
    finally:
        if prev is None:
            del os.environ[ENV_TOGGLE]
        else:
            os.environ[ENV_TOGGLE] = prev


def _pipeline_program(items: int) -> Program:
    """A serial-stage pipeline: the chain-heavy TDG shape where each
    ``submit`` ripples bottom-level updates deep into the graph."""

    def ttype(name: str, criticality: int) -> TaskType:
        return TaskType(name=name, criticality=criticality, activity=0.5)

    stages = (
        StageSpec(ttype("ingest", 1), mean_us=2.0, beta=0.4, serial=True),
        StageSpec(ttype("work", 0), mean_us=4.0, beta=0.3, width=2),
        StageSpec(ttype("emit", 1), mean_us=1.5, beta=0.4, serial=True),
    )
    return make_pipeline("serialpipe", items=items, stages=stages, seed=1)


def _pipeline_e2e(items: int = 800, kernels: str = "1") -> Measurement:
    """End-to-end engine cell on the chain-heavy pipeline; ops = events.

    ``kernels`` pins the array-kernel toggle for the cell ("1" on, "0"
    off), making the on/off end-to-end ratio visible inside one bench
    file: ``pipeline_e2e`` vs ``pipeline_e2e_nokernels``.
    """
    program = _pipeline_program(items)
    with _forced_kernels(kernels):
        system = build_system(
            program, "cats_bl", fast_cores=8, seed=1, trace_enabled=False
        )
    t0 = time.perf_counter()
    system.run()
    wall = time.perf_counter() - t0
    return Measurement(ops=system.sim.events_fired, wall_s=wall)


# ----------------------------------------------------------- macro scenarios
def _figure4_cell(workload: str, policy: str) -> Measurement:
    """One full Figure 4 cell at paper scale; ops = simulator events fired."""
    program = build_program(workload, scale=1.0, seed=1)
    system = build_system(program, policy, fast_cores=8, seed=1, trace_enabled=False)
    t0 = time.perf_counter()
    system.run()
    wall = time.perf_counter() - t0
    return Measurement(ops=system.sim.events_fired, wall_s=wall)


def _faulted_cell(workload: str, policy: str, faults: str) -> Measurement:
    """A Figure 4 cell with an armed fault plan; ops = events fired.

    Tracks the cost of the fault-response paths (worker teardown, task
    re-enqueue, RSU software fallback) — the fault-free cells above stay
    the baseline proving the machinery is free when disabled.
    """
    program = build_program(workload, scale=1.0, seed=1)
    system = build_system(
        program, policy, fast_cores=8, seed=1, trace_enabled=False,
        faults=faults,
    )
    t0 = time.perf_counter()
    system.run()
    wall = time.perf_counter() - t0
    return Measurement(ops=system.sim.events_fired, wall_s=wall)


ENGINE_SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        name="engine_churn",
        run=_engine_churn,
        unit="events",
        params={"n_events": 150_000, "chains": 64},
    ),
    Scenario(
        name="cancel_churn",
        run=_cancel_churn,
        unit="events+cancels",
        params={"rounds": 600, "batch": 256},
    ),
    Scenario(
        name="tdg_relax",
        run=_tdg_relax,
        unit="bl_edges",
        params={"n_tasks": 20_000, "fan": 6, "budget": 64},
    ),
    Scenario(
        name="energy_sweep",
        run=_energy_sweep,
        unit="transitions",
        params={"n_transitions": 200_000, "cores": 32},
    ),
    Scenario(
        name="pipeline_e2e",
        run=lambda: _pipeline_e2e(kernels="1"),
        unit="events",
        params={"workload": "serialpipe", "policy": "cats_bl",
                "items": 800, "fast_cores": 8, "seed": 1,
                "array_kernels": True},
    ),
    Scenario(
        name="pipeline_e2e_nokernels",
        run=lambda: _pipeline_e2e(kernels="0"),
        unit="events",
        params={"workload": "serialpipe", "policy": "cats_bl",
                "items": 800, "fast_cores": 8, "seed": 1,
                "array_kernels": False},
    ),
)

SWEEP_SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        name="figure4_blackscholes_cata",
        run=lambda: _figure4_cell("blackscholes", "cata"),
        unit="events",
        params={"workload": "blackscholes", "policy": "cata",
                "scale": 1.0, "fast_cores": 8, "seed": 1},
    ),
    Scenario(
        name="figure4_fluidanimate_cata",
        run=lambda: _figure4_cell("fluidanimate", "cata"),
        unit="events",
        params={"workload": "fluidanimate", "policy": "cata",
                "scale": 1.0, "fast_cores": 8, "seed": 1},
    ),
    Scenario(
        name="faulted_bodytrack_cata_rsu",
        run=lambda: _faulted_cell(
            "bodytrack", "cata_rsu", "chaos:intensity=0.5,horizon=4ms"
        ),
        unit="events",
        params={"workload": "bodytrack", "policy": "cata_rsu",
                "scale": 1.0, "fast_cores": 8, "seed": 1,
                "faults": "chaos:intensity=0.5,horizon=4ms"},
    ),
)
