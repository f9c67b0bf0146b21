"""Tests for trace export and the ASCII timeline."""

import json

import pytest

from repro.analysis.export import export_chrome_trace, trace_to_chrome_events
from repro.analysis.timeline import render_timeline
from repro.core.policies import run_policy
from repro.runtime.program import Program
from repro.runtime.task import TaskType
from repro.sim.config import default_machine
from repro.sim.trace import Trace

T = TaskType("plain", criticality=0)
C = TaskType("crit", criticality=1)
MACHINE4 = default_machine().with_cores(4)


@pytest.fixture(scope="module")
def traced_run():
    p = Program("p")
    ids = [p.add(T, 300_000, 0) for _ in range(6)]
    p.add(C, 500_000, 0, deps=ids[:2])
    return run_policy(p, "cata", machine=MACHINE4, fast_cores=2)


class TestChromeExport:
    def test_events_cover_all_record_kinds(self, traced_run):
        events = trace_to_chrome_events(traced_run.trace)
        cats = {e["cat"] for e in events}
        assert {"task", "dvfs", "reconfig"} <= cats

    def test_task_events_complete_spans(self, traced_run):
        events = [e for e in trace_to_chrome_events(traced_run.trace) if e["cat"] == "task"]
        assert len(events) == 7
        for e in events:
            assert e["ph"] == "X"
            assert e["dur"] > 0
            assert "task_id" in e["args"]

    def test_events_sorted_by_timestamp(self, traced_run):
        events = trace_to_chrome_events(traced_run.trace)
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)

    def test_export_writes_valid_json(self, traced_run, tmp_path):
        path = tmp_path / "trace.json"
        n = export_chrome_trace(traced_run.trace, str(path))
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == n > 0

    def test_consistent_colors_per_type(self, traced_run):
        events = [e for e in trace_to_chrome_events(traced_run.trace) if e["cat"] == "task"]
        by_type = {}
        for e in events:
            by_type.setdefault(e["name"], set()).add(e["cname"])
        assert all(len(colors) == 1 for colors in by_type.values())


class TestTimeline:
    def test_renders_rows_per_core(self, traced_run):
        out = render_timeline(traced_run.trace, width=60)
        used_cores = {s.core_id for s in traced_run.trace.task_spans}
        for cid in used_cores:
            assert f"core {cid:3d}" in out
        assert "legend:" in out

    def test_critical_tasks_uppercase(self, traced_run):
        out = render_timeline(traced_run.trace, width=60)
        # 'crit' was the second type discovered → letter b, critical → 'B'.
        assert "B" in out

    def test_empty_trace(self):
        assert "no task spans" in render_timeline(Trace())

    def test_width_validated(self, traced_run):
        with pytest.raises(ValueError):
            render_timeline(traced_run.trace, width=5)

    def test_max_cores_limits_rows(self, traced_run):
        out = render_timeline(traced_run.trace, width=40, max_cores=1)
        assert out.count("core ") == 1

    def test_utilization_percentages_bounded(self):
        trace = Trace()
        trace.record_task(0, "t", 0, 0.0, 500.0, critical=False, accelerated_at_start=False)
        trace.record_task(1, "t", 0, 500.0, 1000.0, critical=False, accelerated_at_start=False)
        out = render_timeline(trace, width=10)
        assert "100.0%" in out
