"""Tests for per-task-type attribution."""

import pytest

from repro.analysis.attribution import attribute_by_type, render_attribution
from repro.core.policies import run_policy
from repro.sim.trace import Trace
from repro.workloads import build_program


def record(trace, tid, ttype, dur, critical=False, accel=False, core=0, start=0.0):
    trace.record_task(
        task_id=tid,
        task_type=ttype,
        core_id=core,
        start_ns=start,
        end_ns=start + dur,
        critical=critical,
        accelerated_at_start=accel,
    )


def test_aggregation_per_type():
    trace = Trace()
    record(trace, 0, "a", 100.0, critical=True, accel=True)
    record(trace, 1, "a", 300.0, critical=True, accel=False)
    record(trace, 2, "b", 1000.0)
    rows = attribute_by_type(trace)
    assert [r.task_type for r in rows] == ["b", "a"]  # by total time
    a = rows[1]
    assert a.instances == 2
    assert a.total_time_ns == pytest.approx(400.0)
    assert a.mean_time_ns == pytest.approx(200.0)
    assert a.critical_fraction == 1.0
    assert a.accelerated_fraction == 0.5
    assert a.critical_accelerated_fraction == 0.5


def test_non_critical_type_has_zero_crit_accel():
    trace = Trace()
    record(trace, 0, "x", 10.0, critical=False, accel=True)
    row = attribute_by_type(trace)[0]
    assert row.critical_fraction == 0.0
    assert row.critical_accelerated_fraction == 0.0


def test_render_contains_all_types():
    trace = Trace()
    record(trace, 0, "alpha", 10.0)
    record(trace, 1, "beta", 20.0)
    out = render_attribution(trace)
    assert "alpha" in out and "beta" in out


def test_cata_accelerates_critical_types_preferentially():
    r = run_policy(build_program("dedup", scale=0.3, seed=1), "cata_rsu", fast_cores=8)
    rows = {a.task_type: a for a in attribute_by_type(r.trace)}
    # Critical chain types should start accelerated far more often than the
    # bulk compression under a criticality-aware policy.
    assert rows["dd_write"].accelerated_fraction > rows["dd_compress"].accelerated_fraction
    assert rows["dd_write"].critical_fraction == 1.0
