"""Edge cases and failure injection across the stack."""

import pytest

from repro.core.policies import EXTRA_POLICIES, POLICIES, run_policy
from repro.runtime.program import Program
from repro.runtime.task import TaskType
from repro.sim.config import default_machine
from repro.sim.dvfs import DVFSController
from repro.sim.engine import Simulator
from repro.sim.serialize import result_to_dict
from repro.sim.trace import RECORD_TYPES, Trace
from repro.workloads import build_program

T = TaskType("t", criticality=0)
C = TaskType("c", criticality=2)


def prog(n=5, cycles=200_000, chain=False):
    p = Program("edge")
    prev = None
    for _ in range(n):
        deps = [prev] if chain and prev is not None else []
        prev = p.add(T, cycles, 0, deps=deps)
    return p


class TestSingleCoreMachine:
    """Everything must still work when the machine is one core."""

    MACHINE1 = default_machine().with_cores(1)

    @pytest.mark.parametrize("policy", list(POLICIES) + list(EXTRA_POLICIES))
    def test_policies_complete_on_one_core(self, policy):
        r = run_policy(prog(4), policy, machine=self.MACHINE1, fast_cores=1)
        assert r.tasks_executed == 4

    def test_serialization_on_one_core(self):
        r = run_policy(prog(4), "fifo", machine=self.MACHINE1, fast_cores=1)
        spans = sorted(r.trace.task_spans, key=lambda s: s.start_ns)
        for a, b in zip(spans, spans[1:]):
            assert b.start_ns >= a.end_ns


class TestTwoCoreMachine:
    MACHINE2 = default_machine().with_cores(2)

    def test_submission_and_execution_share_core_zero(self):
        r = run_policy(prog(6), "cata", machine=self.MACHINE2, fast_cores=1)
        assert r.tasks_executed == 6


class TestFullBudget:
    """budget == core_count: every busy core can be fast."""

    MACHINE4 = default_machine().with_cores(4)

    def test_cata_with_full_budget(self):
        r = run_policy(
            prog(16, cycles=600_000), "cata_rsu", machine=self.MACHINE4, fast_cores=4
        )
        assert r.tasks_executed == 16
        # With a full budget every task should start accelerated after the
        # initial ramp-up (LIFO reuse keeps cores warm).
        late = [s for s in r.trace.task_spans if s.start_ns > 400_000]
        assert late and all(s.accelerated_at_start for s in late)


class TestTraceDisabled:
    def test_counters_live_with_tracing_off(self):
        machine = default_machine().with_cores(4)
        r = run_policy(prog(8), "cata", machine=machine, fast_cores=2,
                       trace_enabled=False)
        assert r.tasks_executed == 8
        assert r.trace.task_spans == []
        assert r.trace.tasks_executed == 8
        assert r.reconfig_count == r.trace.reconfig_count
        assert r.trace.reconfigs == []

    def test_disabled_equals_enabled_results(self):
        """An untraced run is the traced run minus its records, exactly:
        every counter and energy float matches bit for bit."""
        for workload in ("bodytrack", "dedup"):
            program = build_program(workload, scale=0.05, seed=2)
            for policy in POLICIES + EXTRA_POLICIES:
                for faults in ("off", "chaos:intensity=1.0"):
                    traced, untraced = (
                        result_to_dict(run_policy(
                            program, policy, fast_cores=8, seed=2,
                            trace_enabled=enabled, faults=faults,
                        ))
                        for enabled in (True, False)
                    )
                    for name in RECORD_TYPES:
                        assert untraced["trace"][name] == []
                        traced["trace"][name] = []
                    traced["trace"]["enabled"] = False
                    assert untraced == traced, f"{workload}/{policy} faults={faults}"


class TestWorkerLifecycleErrors:
    def test_suspend_while_running_rejected(self):
        from repro.core.policies import build_system

        system = build_system(prog(4), "fifo", machine=default_machine().with_cores(2),
                              fast_cores=1)
        worker = system.workers[1]
        worker.state = "running"
        with pytest.raises(RuntimeError, match="cannot suspend"):
            worker.suspend()

    def test_resume_unsuspended_rejected(self):
        from repro.core.policies import build_system

        system = build_system(prog(4), "fifo", machine=default_machine().with_cores(2),
                              fast_cores=1)
        with pytest.raises(RuntimeError, match="not suspended"):
            system.workers[1].resume()

    def test_double_start_rejected(self):
        from repro.core.policies import build_system

        system = build_system(prog(4), "fifo", machine=default_machine().with_cores(2),
                              fast_cores=1)
        system.workers[1].start()
        with pytest.raises(RuntimeError, match="already started"):
            system.workers[1].start()


class TestDvfsRetarget:
    def test_rerequest_same_target_restarts_ramp(self):
        sim = Simulator()
        machine = default_machine()
        dvfs = DVFSController(sim, machine, Trace())
        dvfs.request(0, machine.fast)
        sim.run(until=20_000.0)
        dvfs.request(0, machine.fast)  # restart mid-ramp
        sim.run(until=25_000.0)
        assert not dvfs.is_fast(0)  # the original completion was cancelled
        sim.run(until=45_000.0)
        assert dvfs.is_fast(0)

    def test_cancel_retarget_back_keeps_level(self):
        sim = Simulator()
        machine = default_machine()
        levels = [machine.fast] * machine.core_count
        dvfs = DVFSController(sim, machine, Trace(), levels)
        dvfs.request(0, machine.slow)
        sim.run(until=10_000.0)
        dvfs.request(0, machine.fast)  # change of heart: stay fast
        sim.run()
        assert dvfs.is_fast(0)


class TestBlockingUnderDvfs:
    def test_freq_change_during_block_applies_on_resume(self):
        p = Program("b")
        p.add(C, 400_000, 0, block_at=0.5, block_ns=100_000)
        machine = default_machine().with_cores(2)
        r = run_policy(p, "cata_rsu", machine=machine, fast_cores=1)
        assert r.tasks_executed == 1

    def test_many_blocking_tasks(self):
        p = Program("blocks")
        for _ in range(12):
            p.add(T, 150_000, 0, block_at=0.4, block_ns=60_000)
        machine = default_machine().with_cores(4)
        for policy in ("turbomode", "cata", "cata_rsu"):
            r = run_policy(p_copy(p), policy, machine=machine, fast_cores=2)
            assert r.tasks_executed == 12


def p_copy(p: Program) -> Program:
    clone = Program(p.name)
    clone.specs = list(p.specs)
    clone.barriers = list(p.barriers)
    return clone


class TestBarrierEdgeCases:
    def test_barrier_after_every_task(self):
        p = Program("lockstep")
        for _ in range(5):
            p.add(T, 200_000, 0)
            p.taskwait()
        machine = default_machine().with_cores(4)
        r = run_policy(p, "cata", machine=machine, fast_cores=2)
        spans = sorted(r.trace.task_spans, key=lambda s: s.task_id)
        for a, b in zip(spans, spans[1:]):
            assert b.start_ns >= a.end_ns

    def test_trailing_barrier_is_harmless(self):
        p = Program("trail")
        p.add(T, 100_000, 0)
        p.taskwait()
        machine = default_machine().with_cores(2)
        r = run_policy(p, "fifo", machine=machine, fast_cores=1)
        assert r.tasks_executed == 1
