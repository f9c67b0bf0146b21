"""Flat-array kernel layer: backend equivalence and transition logs.

The contract pinned here is *bitwise* equivalence: for every observable
(bottom levels, edge counts, energy floats) the C kernels and the
historical object-walking reference must be indistinguishable.
``REPRO_ARRAY_KERNELS`` only ever changes speed.
"""

import dataclasses
import hashlib
import random

import pytest

from repro.runtime.task import TaskType
from repro.runtime.tdg import TaskGraph
from repro.sim import energy as energy_mod
from repro.sim import _ckernels
from repro.sim.arrays import (
    BottomLevelState,
    TransitionLog,
    kernels_enabled,
    native_enabled,
)
from repro.sim.config import default_machine
from repro.sim.energy import EnergyAccountant
from repro.sim.engine import Simulator
from repro.sim.power import CoreState, PowerModel

TT = TaskType(name="t", criticality=0, activity=0.5)

#: Tests that read the flat buffers themselves need the C library.
needs_c = pytest.mark.skipif(
    _ckernels.load() is None,
    reason="the compiled kernel library does not load on this host",
)


# ------------------------------------------------------------- env toggle
class TestToggle:
    @needs_c
    def test_default_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_ARRAY_KERNELS", raising=False)
        assert kernels_enabled() is True

    @pytest.mark.parametrize("value", ["0", "off", "false", "no", " OFF "])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_ARRAY_KERNELS", value)
        assert kernels_enabled() is False
        assert native_enabled() is False

    @pytest.mark.parametrize("value", ["1", "on", "py", "python"])
    def test_any_other_value_is_on(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_ARRAY_KERNELS", value)
        loads = _ckernels.load() is not None
        assert kernels_enabled() is loads
        assert native_enabled() is loads

    @needs_c
    def test_explicit_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARRAY_KERNELS", "0")
        assert kernels_enabled(True) is True
        monkeypatch.delenv("REPRO_ARRAY_KERNELS")
        assert kernels_enabled(False) is False

    def test_no_library_means_reference(self, monkeypatch):
        monkeypatch.setattr(_ckernels, "load", lambda: None)
        assert kernels_enabled(True) is False
        assert TaskGraph(array_kernels=True)._k is None
        acct = EnergyAccountant(
            Simulator(), PowerModel(default_machine().power), 2, batched=True
        )
        assert acct._batched is False


# -------------------------------------------------- bottom-level kernels
def _drive(graph: TaskGraph, rng: random.Random, n_tasks: int):
    """Submit a random DAG, finishing some tasks along the way.

    Returns the observables the backends must agree on.
    """
    edge_log = []
    finished = 0
    for i in range(n_tasks):
        max_deps = min(i, 4)
        n_deps = rng.randint(0, max_deps)
        deps = tuple(rng.sample(range(i), n_deps)) if n_deps else ()
        _, edges = graph.submit(TT, cpu_cycles=100.0, mem_ns=10.0, deps=deps)
        edge_log.append(edges)
        # Occasionally retire a ready task so the waiting-max shrinks.
        if rng.random() < 0.3:
            ready = [t for t in graph.tasks if t.state.value == "ready"]
            if ready:
                victim = rng.choice(ready)
                graph.mark_running(victim, core_id=0, now_ns=float(i))
                graph.mark_finished(victim, now_ns=float(i) + 1.0)
                finished += 1
    return {
        "bls": [t.bottom_level for t in graph.tasks],
        "edges": edge_log,
        "edges_total": graph.bl_edges_visited_total,
        "max_bl": graph.max_bottom_level,
        "max_bl_waiting": graph.max_bottom_level_waiting,
        "pending": [t.pending_preds for t in graph.tasks],
        "finished": finished,
    }


@pytest.mark.parametrize("budget", [None, 0, 1, 7, 64])
def test_kernel_backends_match_reference(budget):
    """C kernels (when the library loads) == object-walk reference."""
    for seed in range(20):
        rng = random.Random(seed)
        ref = _drive(
            TaskGraph(bl_edge_budget=budget, array_kernels=False),
            random.Random(seed),
            60,
        )
        kern = _drive(
            TaskGraph(bl_edge_budget=budget, array_kernels=True),
            rng,
            60,
        )
        assert kern == ref, f"seed={seed} budget={budget}"


@needs_c
def test_recompute_cross_checks_incremental_bls():
    graph = TaskGraph(array_kernels=True)
    rng = random.Random(3)
    for i in range(100):
        n_deps = rng.randint(0, min(i, 3))
        deps = tuple(rng.sample(range(i), n_deps)) if n_deps else ()
        graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0, deps=deps)
    state = graph._k
    assert state is not None
    exact = state.recompute()
    incremental = state.bottom_levels()
    # Unbudgeted incremental maintenance must equal the batch fixpoint.
    assert (exact == incremental).all()


def test_bad_dep_raises_reference_error_without_mutation():
    graph = TaskGraph(array_kernels=True)
    graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0)
    with pytest.raises(ValueError, match="depends on unknown task 5"):
        graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0, deps=(0, 5))
    # Nothing was committed: the next submit gets id 1 and a clean graph.
    task, _ = graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0, deps=(0,))
    assert task.task_id == 1
    assert graph.task_count == 2


def test_huge_dep_id_raises_reference_error():
    graph = TaskGraph(array_kernels=True)
    graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0)
    with pytest.raises(ValueError, match="unknown task"):
        graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0, deps=(2**63,))


@needs_c
def test_buffer_growth_beyond_initial_capacity():
    state = BottomLevelState()
    tasks = []

    class _T:
        __slots__ = ("bottom_level",)

        def __init__(self):
            self.bottom_level = 0

    for i in range(5000):  # well past any initial capacity
        deps = (i - 1,) if i else ()
        tasks.append(_T())
        state.submit(deps, tasks, budget=None)
    assert state.max_bl == 4999
    assert tasks[0].bottom_level == 4999


# ----------------------------------------------------------- energy replay
def _churn_energy(acct: EnergyAccountant, sim: Simulator, states, cores=8, n=3000):
    power = [acct.resolve(s) for s in states]
    for i in range(n):
        sim._now += 37.5
        acct.transition(i % cores, power[(i * 7) % len(power)])
    acct.finalize()
    return {
        "total": acct.total_energy_j,
        "cores": [acct.core_energy_j(c) for c in range(cores)],
        "buckets": acct.energy_breakdown_j(),
        "times": acct.time_breakdown_ns(),
    }


def _states(machine):
    return (
        CoreState(level=machine.fast, cstate="C0", activity=1.0, busy=True),
        CoreState(level=machine.slow, cstate="C0", activity=0.7, busy=True),
        CoreState(level=machine.slow, cstate="C0", activity=0.2, busy=False),
        CoreState(level=machine.slow, cstate="C1", activity=0.0, busy=False),
        CoreState(level=machine.fast, cstate="C3", activity=0.0, busy=False),
    )


class TestEnergyReplay:
    def test_batched_equals_eager_bitwise(self):
        machine = default_machine()
        model = PowerModel(machine.power)
        runs = {}
        for batched in (True, False):
            sim = Simulator()
            acct = EnergyAccountant(sim, model, 8, batched=batched)
            runs[batched] = _churn_energy(acct, sim, _states(machine))
        assert runs[True] == runs[False]

    def test_mid_run_flush_is_bitwise_neutral(self, monkeypatch):
        machine = default_machine()
        model = PowerModel(machine.power)
        sim = Simulator()
        unflushed = _churn_energy(
            EnergyAccountant(sim, model, 8, batched=True), sim, _states(machine)
        )
        # A tiny threshold forces many mid-run replay sweeps.
        monkeypatch.setattr(energy_mod, "_FLUSH_THRESHOLD", 64)
        sim = Simulator()
        flushed = _churn_energy(
            EnergyAccountant(sim, model, 8, batched=True), sim, _states(machine)
        )
        assert flushed == unflushed


def test_transition_log_clear_resets_all_columns():
    log = TransitionLog()
    log.t.append(1.0)
    log.core.append(2)
    log.power.append(3.0)
    log.bidx.append(4)
    assert len(log) == 1
    log.clear()
    assert len(log) == 0
    assert len(log.times()) == 0


def test_machine_variant_changes_energy_but_both_backends_agree():
    """Different machine => different floats; backends still agree."""
    base = default_machine()
    hot = dataclasses.replace(
        base, power=dataclasses.replace(base.power, uncore_w=20.0)
    )
    per_machine = {}
    for name, machine in (("base", base), ("hot", hot)):
        model = PowerModel(machine.power)
        runs = {}
        for batched in (True, False):
            sim = Simulator()
            acct = EnergyAccountant(sim, model, 4, batched=batched)
            runs[batched] = _churn_energy(acct, sim, _states(machine), cores=4)
        assert runs[True] == runs[False]
        per_machine[name] = runs[True]
    assert per_machine["base"]["total"] != per_machine["hot"]["total"]


def test_compile_is_byte_reproducible(tmp_path):
    """The same kernel source compiles to the same ``.so`` bytes, so a
    manifest's library hash names the kernels that ran."""
    paths = [tmp_path / "a" / "kernels.so", tmp_path / "b" / "kernels.so"]
    for path in paths:
        path.parent.mkdir()
        if not _ckernels._compile(str(path)):
            pytest.skip("no C compiler on this host")
    digests = {hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}
    assert len(digests) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]
    assert [p.name for p in (tmp_path / "a").iterdir()] == ["kernels.so"]
