"""Tests for the per-state energy/time breakdown."""

import pytest

from repro.core.policies import run_policy
from repro.runtime.program import Program
from repro.runtime.task import TaskType
from repro.sim.config import FAST_LEVEL, SLOW_LEVEL, PowerModelConfig, default_machine
from repro.sim.energy import EnergyAccountant
from repro.sim.engine import SEC, Simulator
from repro.sim.power import CoreState, PowerModel

T = TaskType("t", criticality=0)


@pytest.fixture
def setup():
    sim = Simulator()
    model = PowerModel(PowerModelConfig())
    acct = EnergyAccountant(sim, model, core_count=1)
    return sim, model, acct


def test_bucket_classification(setup):
    _sim, _model, acct = setup
    cases = [
        (CoreState(FAST_LEVEL, "C0", 0.9, True), "busy_fast"),
        (CoreState(SLOW_LEVEL, "C0", 0.9, True), "busy_slow"),
        (CoreState(FAST_LEVEL, "C0", 0.0, False), "idle_c0"),
        (CoreState(SLOW_LEVEL, "C1", 0.0, False), "halt_c1"),
        (CoreState(SLOW_LEVEL, "C3", 0.0, False), "sleep_c3"),
    ]
    for state, expected in cases:
        assert acct._bucket_of(state) == expected


def test_breakdown_sums_to_core_energy(setup):
    sim, model, acct = setup
    timeline = [
        (CoreState(FAST_LEVEL, "C0", 1.0, True), 1 * SEC),
        (CoreState(SLOW_LEVEL, "C0", 0.0, False), 1 * SEC),
        (CoreState(SLOW_LEVEL, "C1", 0.0, False), 2 * SEC),
    ]
    t = 0.0
    for state, dur in timeline:
        acct.transition(0, acct.resolve(state))
        t += dur
        sim.run(until=t)
    acct.finalize()
    bd = acct.energy_breakdown_j()
    core_total = sum(v for k, v in bd.items() if k != "uncore")
    assert core_total == pytest.approx(acct.cores_energy_j)
    assert bd["busy_fast"] == pytest.approx(
        model.core_w(CoreState(FAST_LEVEL, "C0", 1.0, True))
    )
    assert bd["halt_c1"] == pytest.approx(
        2 * model.core_w(CoreState(SLOW_LEVEL, "C1", 0.0, False))
    )


def test_time_breakdown(setup):
    sim, _model, acct = setup
    acct.transition(0, acct.resolve(CoreState(SLOW_LEVEL, "C0", 0.9, True)))
    sim.run(until=3 * SEC)
    acct.finalize()
    td = acct.time_breakdown_ns()
    assert td["busy_slow"] == pytest.approx(3 * SEC)
    assert td["busy_fast"] == 0.0


def test_run_result_carries_breakdown():
    p = Program("p")
    for _ in range(8):
        p.add(T, 200_000, 0)
    machine = default_machine().with_cores(4)
    r = run_policy(p, "cata", machine=machine, fast_cores=2)
    bd = r.extra["energy_breakdown_j"]
    assert set(bd) == {"busy_fast", "busy_slow", "idle_c0", "halt_c1", "sleep_c3", "uncore"}
    core_sum = sum(v for k, v in bd.items() if k != "uncore")
    assert core_sum == pytest.approx(r.cores_energy_j, rel=1e-9)
    assert bd["uncore"] == pytest.approx(r.uncore_energy_j, rel=1e-9)
    # Something actually ran fast under CATA with budget 2.
    assert bd["busy_fast"] > 0


def test_cata_shifts_energy_out_of_fast_idle():
    """The paper's EDP mechanism: FIFO leaves fast cores idling at high
    V/f; CATA decelerates them."""
    def prog():
        p = Program("tail")
        prev = None
        for _ in range(4):
            prev = p.add(T, 2_000_000, 0, deps=[prev] if prev is not None else [])
        return p

    machine = default_machine().with_cores(4)
    fifo = run_policy(prog(), "fifo", machine=machine, fast_cores=2)
    cata = run_policy(prog(), "cata", machine=machine, fast_cores=2)
    fifo_idle_fast = fifo.extra["time_breakdown_ns"]["idle_c0"]
    # Under FIFO a serial chain leaves fast cores idle for most of the run.
    assert fifo_idle_fast > 0
    assert cata.energy_j < fifo.energy_j
