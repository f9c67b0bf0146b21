"""Tests for machine-configuration and run-result serialization."""

import copy
import json
from dataclasses import asdict, replace

import pytest

from repro.core.policies import run_policy, run_scenario_policy
from repro.sim.config import default_machine
from repro.sim.serialize import (
    dump_machine,
    load_machine,
    machine_from_dict,
    machine_to_dict,
    result_from_dict,
    result_to_dict,
    trace_from_dict,
    trace_to_dict,
)
from repro.sim.trace import RECORD_TYPES, TaskSpan, Trace
from repro.workloads import build_program


def test_round_trip_default_machine():
    m = default_machine()
    assert machine_from_dict(machine_to_dict(m)) == m


def test_round_trip_modified_machine():
    m = default_machine().with_cores(16)
    m = replace(m, overheads=replace(m.overheads, dvfs_transition_ns=50_000.0))
    again = machine_from_dict(machine_to_dict(m))
    assert again == m
    assert again.overheads.dvfs_transition_ns == 50_000.0


def test_dict_is_json_safe():
    json.dumps(machine_to_dict(default_machine()))


def test_file_round_trip(tmp_path):
    path = tmp_path / "machine.json"
    m = default_machine()
    dump_machine(m, str(path))
    assert load_machine(str(path)) == m
    # And the file is human-inspectable JSON.
    doc = json.loads(path.read_text())
    assert doc["core_count"] == 32
    assert doc["fast"]["freq_ghz"] == 2.0


def test_invalid_payload_rejected_by_validation():
    data = machine_to_dict(default_machine())
    data["core_count"] = 0
    with pytest.raises(ValueError):
        machine_from_dict(data)


def _span(tenant=None):
    return TaskSpan(
        task_id=0,
        task_type="work",
        core_id=1,
        start_ns=10.0,
        end_ns=20.0,
        critical=False,
        accelerated_at_start=False,
        tenant=tenant,
    )


class TestTaskSpanTenantField:
    def test_none_tenant_omitted_from_serialized_form(self):
        trace = Trace(enabled=True)
        trace.task_spans.append(_span())
        rec = trace_to_dict(trace)["task_spans"][0]
        assert "tenant" not in rec

    def test_tenant_round_trips(self):
        trace = Trace(enabled=True)
        trace.task_spans.append(_span(tenant=3))
        data = trace_to_dict(trace)
        assert data["task_spans"][0]["tenant"] == 3
        again = trace_from_dict(data)
        assert again.task_spans[0].tenant == 3

    def test_legacy_trace_dict_still_loads(self):
        trace = Trace(enabled=True)
        trace.task_spans.append(_span())
        data = trace_to_dict(trace)
        # A pre-scenario cache entry has no "tenant" key at all.
        assert "tenant" not in data["task_spans"][0]
        again = trace_from_dict(data)
        assert again.task_spans[0].tenant is None


class TestRunResultLatencyFields:
    def _closed(self):
        return run_policy(
            build_program("blackscholes", scale=0.1, seed=1),
            "fifo",
            fast_cores=8,
            seed=1,
        )

    def _open(self):
        return run_scenario_policy(
            "a:blackscholes@poisson(rate=1,jobs=2)@qos=4ms",
            "fifo",
            scale=0.1,
            seed=1,
        )

    def test_closed_loop_serialization_has_no_new_keys(self):
        data = result_to_dict(self._closed())
        for key in (
            "latency_p50_ns",
            "latency_p95_ns",
            "latency_p99_ns",
            "qos_violation_rate",
        ):
            assert key not in data

    def test_open_loop_round_trip(self):
        result = self._open()
        data = result_to_dict(result)
        assert data["latency_p50_ns"] == result.latency_p50_ns
        json.dumps(data)  # JSON-safe, including extra["scenario"]
        again = result_from_dict(data)
        assert again.latency_p99_ns == result.latency_p99_ns
        assert again.qos_violation_rate == result.qos_violation_rate
        assert result_to_dict(again) == data

    def test_legacy_result_dict_loads_with_none_defaults(self):
        data = result_to_dict(self._closed())
        again = result_from_dict(data)
        assert again.latency_p50_ns is None
        assert again.qos_violation_rate is None

    def test_unknown_field_rejected(self):
        data = result_to_dict(self._closed())
        data["latency_p42_ns"] = 1.0
        with pytest.raises(TypeError):
            result_from_dict(data)


def _full_trace():
    """A trace with two records in every list, one span with a tenant."""
    trace = Trace(enabled=True)
    for i in range(2):
        trace.record_task(**asdict(_span(tenant=None if i == 0 else 5)))
        trace.record_reconfig(
            initiator_core=i, start_ns=1.0, end_ns=4.5, accelerated_core=i,
            decelerated_core=None, mechanism="software", lock_wait_ns=0.25 * i,
        )
        trace.record_lock_wait(
            lock_name="dvfs", core_id=i, request_ns=1.0, grant_ns=2.0,
            release_ns=3.5,
        )
        trace.record_cstate(core_id=i, time_ns=7.0, old_state="C0", new_state="C1")
        trace.record_freq_change(
            core_id=i, time_ns=9.0, old_level="slow", new_level="fast",
        )
    return trace


def _parsed(trace):
    """What a cache read hands the decoder: the trace's JSON, parsed."""
    return json.loads(json.dumps(trace_to_dict(trace), sort_keys=True))


class TestDeferredRecords:
    def test_decode_defers_every_non_empty_list(self):
        again = trace_from_dict(_parsed(_full_trace()))
        for name in RECORD_TYPES:
            assert name not in vars(again)
            assert again.unread_records(name) is not None

    def test_empty_lists_are_not_deferred(self):
        again = trace_from_dict(_parsed(Trace(enabled=False)))
        assert "_parsed" not in vars(again)
        assert again.task_spans == []

    def test_reading_a_list_builds_only_that_list(self):
        eager = _full_trace()
        again = trace_from_dict(_parsed(eager))
        spans = again.task_spans
        assert spans == eager.task_spans
        assert all(type(s) is TaskSpan for s in spans)
        assert again.task_spans is spans
        assert again.unread_records("task_spans") is None
        assert again.unread_records("reconfigs") is not None

    def test_equality_and_repr_match_the_eager_trace(self):
        eager = _full_trace()
        assert trace_from_dict(_parsed(eager)) == eager
        assert repr(trace_from_dict(_parsed(eager))) == repr(eager)

    def test_recording_appends_after_the_decoded_records(self):
        eager = _full_trace()
        again = trace_from_dict(_parsed(eager))
        extra = _span(tenant=9)
        again.record_task(**asdict(extra))
        eager.record_task(**asdict(extra))
        assert again == eager
        assert again.task_spans[-1] == extra

    def test_half_built_instance_raises_attribute_error(self):
        bare = Trace.__new__(Trace)  # what unpickling starts from
        with pytest.raises(AttributeError):
            bare.task_spans
        assert not hasattr(bare, "__setstate__")

    def test_shallow_copy_reads_independently(self):
        eager = _full_trace()
        again = trace_from_dict(_parsed(eager))
        twin = copy.copy(again)
        assert twin.task_spans == eager.task_spans
        assert again.unread_records("task_spans") is not None
        assert again.task_spans == eager.task_spans


class TestRecordShapeCheck:
    """The decode rejects what building the records would reject."""

    @pytest.mark.parametrize("name", sorted(RECORD_TYPES))
    def test_missing_required_field_rejected(self, name):
        data = _parsed(_full_trace())
        field = next(iter(data[name][0]))
        del data[name][0][field]
        with pytest.raises(TypeError):
            trace_from_dict(data)

    @pytest.mark.parametrize("name", sorted(RECORD_TYPES))
    def test_unknown_field_rejected(self, name):
        data = _parsed(_full_trace())
        data[name][1]["colour"] = "red"
        with pytest.raises(TypeError):
            trace_from_dict(data)

    @pytest.mark.parametrize("bad", ["oops", 3, None, ["a", 1]])
    def test_non_object_record_rejected(self, bad):
        data = _parsed(_full_trace())
        data["lock_waits"][0] = bad
        with pytest.raises(TypeError):
            trace_from_dict(data)

    @pytest.mark.parametrize("bad", [{}, "", "spans", None, 0])
    def test_non_list_rejected(self, bad):
        data = _parsed(_full_trace())
        data["task_spans"] = bad
        with pytest.raises(TypeError):
            trace_from_dict(data)

    def test_defaulted_fields_may_be_absent_and_reencode_as_eager(self):
        eager = _full_trace()
        data = _parsed(eager)
        # Older encoders may omit lock_wait_ns or write tenant as null;
        # building the records accepts both.
        for rec in data["reconfigs"]:
            if rec["lock_wait_ns"] == 0.0:
                del rec["lock_wait_ns"]
        data["task_spans"][0]["tenant"] = None
        before = json.dumps(data, sort_keys=True)
        again = trace_from_dict(data)
        assert json.dumps(trace_to_dict(again), sort_keys=True) == json.dumps(
            trace_to_dict(eager), sort_keys=True
        )
        assert again == eager
        # The decoder normalizes a copy; its input is left as it was.
        assert json.dumps(data, sort_keys=True) == before
