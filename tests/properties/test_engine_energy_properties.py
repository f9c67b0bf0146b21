"""Property-based tests for the event engine and energy integration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import FAST_LEVEL, SLOW_LEVEL, PowerModelConfig
from repro.sim.energy import EnergyAccountant
from repro.sim.engine import SEC, Simulator
from repro.sim.power import CoreState, PowerModel


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
@settings(max_examples=80)
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=40),
    st.data(),
)
@settings(max_examples=50)
def test_cancellation_removes_exactly_the_cancelled(delays, data):
    sim = Simulator()
    fired = []
    events = [sim.schedule(d, lambda i=i: fired.append(i)) for i, d in enumerate(delays)]
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(delays) - 1), max_size=len(delays))
    )
    for i in to_cancel:
        events[i].cancel()
    sim.run()
    assert set(fired) == set(range(len(delays))) - to_cancel


@st.composite
def state_timelines(draw):
    """Random piecewise-constant core-state timeline."""
    n = draw(st.integers(min_value=1, max_value=20))
    segments = []
    for _ in range(n):
        segments.append(
            (
                draw(st.floats(min_value=1.0, max_value=1e8)),  # duration ns
                draw(st.sampled_from([FAST_LEVEL, SLOW_LEVEL])),
                draw(st.sampled_from(["C0", "C1", "C3"])),
                draw(st.floats(min_value=0.0, max_value=1.0)),
                draw(st.booleans()),
            )
        )
    return segments


@given(state_timelines())
@settings(max_examples=60)
def test_energy_integration_matches_manual_sum(segments):
    sim = Simulator()
    model = PowerModel(PowerModelConfig())
    acct = EnergyAccountant(sim, model, core_count=1)
    expected = 0.0
    t = 0.0
    for dur, level, cstate, activity, busy in segments:
        state = CoreState(level=level, cstate=cstate, activity=activity, busy=busy)
        acct.transition(0, acct.resolve(state))
        t += dur
        sim.run(until=t)
        expected += model.core_w(state) * dur / SEC
    acct.finalize()
    assert acct.core_energy_j(0) == pytest.approx(expected, rel=1e-9)
    assert acct.total_energy_j >= acct.core_energy_j(0)


@given(state_timelines())
@settings(max_examples=40)
def test_energy_is_nonnegative_and_bounded_by_peak(segments):
    sim = Simulator()
    model = PowerModel(PowerModelConfig())
    acct = EnergyAccountant(sim, model, core_count=1)
    t = 0.0
    peak = model.core_w(CoreState(FAST_LEVEL, "C0", 1.0, True))
    for dur, level, cstate, activity, busy in segments:
        acct.transition(0, acct.resolve(CoreState(level, cstate, activity, busy)))
        t += dur
        sim.run(until=t)
    acct.finalize()
    assert 0.0 <= acct.core_energy_j(0) <= peak * t / SEC + 1e-12
