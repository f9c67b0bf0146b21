"""Tests for exact energy integration."""

import pytest

from repro.sim.config import FAST_LEVEL, SLOW_LEVEL, PowerModelConfig
from repro.sim.energy import EnergyAccountant
from repro.sim.engine import SEC, Simulator
from repro.sim.power import CoreState, PowerModel


@pytest.fixture
def setup():
    sim = Simulator()
    model = PowerModel(PowerModelConfig())
    acct = EnergyAccountant(sim, model, core_count=2)
    return sim, model, acct


def state(level=SLOW_LEVEL, cstate="C0", activity=0.0, busy=False):
    return CoreState(level=level, cstate=cstate, activity=activity, busy=busy)


def test_constant_state_integrates_exactly(setup):
    sim, model, acct = setup
    s = state(FAST_LEVEL, "C0", 1.0, True)
    acct.transition(0, acct.resolve(s))
    acct.transition(1, acct.resolve(s))
    sim.run(until=2 * SEC)
    acct.finalize()
    expected = model.core_w(s) * 2.0
    assert acct.core_energy_j(0) == pytest.approx(expected)
    assert acct.cores_energy_j == pytest.approx(2 * expected)


def test_piecewise_state_changes(setup):
    sim, model, acct = setup
    s_fast = state(FAST_LEVEL, "C0", 1.0, True)
    s_slow = state(SLOW_LEVEL, "C1", 0.0, False)
    acct.transition(0, acct.resolve(s_fast))
    sim.run(until=1 * SEC)
    acct.transition(0, acct.resolve(s_slow))
    sim.run(until=3 * SEC)
    acct.finalize()
    expected = model.core_w(s_fast) * 1.0 + model.core_w(s_slow) * 2.0
    assert acct.core_energy_j(0) == pytest.approx(expected)


def test_same_instant_state_change_accrues_nothing(setup):
    sim, model, acct = setup
    acct.transition(0, acct.resolve(state(activity=0.9, busy=True)))
    acct.transition(0, acct.resolve(state(activity=0.1, busy=True)))
    sim.run(until=1 * SEC)
    acct.finalize()
    expected = model.core_w(state(activity=0.1, busy=True)) * 1.0
    assert acct.core_energy_j(0) == pytest.approx(expected)


def test_uncore_energy_proportional_to_elapsed(setup):
    sim, model, acct = setup
    sim.run(until=5 * SEC)
    acct.finalize()
    assert acct.uncore_energy_j == pytest.approx(model.uncore_w() * 5.0)


def test_total_is_cores_plus_uncore(setup):
    sim, model, acct = setup
    acct.transition(0, acct.resolve(state(busy=True, activity=0.5)))
    sim.run(until=1 * SEC)
    acct.finalize()
    assert acct.total_energy_j == pytest.approx(
        acct.cores_energy_j + acct.uncore_energy_j
    )


def test_edp_is_energy_times_delay(setup):
    sim, model, acct = setup
    acct.transition(0, acct.resolve(state(busy=True, activity=0.5)))
    sim.run(until=2 * SEC)
    acct.finalize()
    assert acct.edp == pytest.approx(acct.total_energy_j * 2.0)


def test_core_with_no_state_accrues_zero(setup):
    sim, _model, acct = setup
    sim.run(until=1 * SEC)
    acct.finalize()
    assert acct.core_energy_j(0) == 0.0


def test_elapsed_uses_finalize_time(setup):
    sim, _model, acct = setup
    sim.run(until=1 * SEC)
    acct.finalize()
    assert acct.elapsed_s == pytest.approx(1.0)
