"""Tests for trace records and counters."""

from dataclasses import asdict

import pytest

from repro.sim.trace import LockWaitRecord, ReconfigRecord, TaskSpan, Trace


def span(dur=100.0, start=0.0):
    return TaskSpan(
        task_id=0, task_type="t", core_id=0, start_ns=start, end_ns=start + dur,
        critical=False, accelerated_at_start=False,
    )


def reconfig(latency=50.0, wait=10.0):
    return ReconfigRecord(
        initiator_core=0, start_ns=0.0, end_ns=latency,
        accelerated_core=1, decelerated_core=None,
        mechanism="software", lock_wait_ns=wait,
    )


class TestRecords:
    def test_span_duration(self):
        assert span(dur=250.0, start=10.0).duration_ns == 250.0

    def test_reconfig_latency(self):
        assert reconfig(latency=75.0).latency_ns == 75.0

    def test_lock_wait_record_derived_fields(self):
        rec = LockWaitRecord(
            lock_name="l", core_id=2, request_ns=5.0, grant_ns=25.0, release_ns=40.0
        )
        assert rec.wait_ns == 20.0
        assert rec.hold_ns == 15.0


class TestEnabledTrace:
    def test_records_stored_and_counted(self):
        t = Trace(enabled=True)
        t.record_task(**asdict(span()))
        t.record_reconfig(**asdict(reconfig()))
        t.record_cstate(0, 1.0, "C0", "C1")
        t.record_freq_change(0, 1.0, "slow", "fast")
        assert len(t.task_spans) == 1 and t.tasks_executed == 1
        assert len(t.reconfigs) == 1 and t.reconfig_count == 1
        assert len(t.cstate_changes) == 1
        assert len(t.freq_changes) == 1 and t.freq_transition_count == 1

    def test_avg_reconfig_latency(self):
        t = Trace()
        t.record_reconfig(**asdict(reconfig(latency=10.0)))
        t.record_reconfig(**asdict(reconfig(latency=30.0)))
        assert t.avg_reconfig_latency_ns == pytest.approx(20.0)

    def test_avg_latency_zero_when_empty(self):
        assert Trace().avg_reconfig_latency_ns == 0.0

    def test_max_lock_wait_tracks_maximum(self):
        t = Trace()
        for wait in (5.0, 50.0, 20.0):
            t.record_lock_wait("l", 0, 0.0, wait, wait + 1.0)
        assert t.max_lock_wait_ns == 50.0
        assert t.total_lock_wait_ns == 75.0

    def test_overhead_fraction(self):
        t = Trace()
        t.record_reconfig(**asdict(reconfig(latency=10.0)))
        assert t.reconfig_overhead_fraction(1000.0) == pytest.approx(0.01)
        assert t.reconfig_overhead_fraction(0.0) == 0.0


class TestDisabledTrace:
    def test_counters_without_storage(self):
        t = Trace(enabled=False)
        t.record_task(**asdict(span()))
        t.record_reconfig(**asdict(reconfig()))
        t.record_freq_change(0, 1.0, "slow", "fast")
        t.record_cstate(0, 1.0, "C0", "C1")
        assert t.tasks_executed == 1
        assert t.reconfig_count == 1
        assert t.freq_transition_count == 1
        assert t.task_spans == []
        assert t.reconfigs == []
        assert t.freq_changes == []
        assert t.cstate_changes == []

    def test_lock_stats_still_aggregate(self):
        t = Trace(enabled=False)
        t.record_lock_wait("l", 0, 0.0, 30.0, 40.0)
        assert t.total_lock_wait_ns == 30.0
        assert t.max_lock_wait_ns == 30.0
        assert t.lock_waits == []
