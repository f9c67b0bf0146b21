"""TDG relaxation edge cases: aborts in the frontier, duplicate deps,
and a seeded-random property sweep pinning the array kernels to the
object-walk reference.

Everything here runs each graph twice — ``array_kernels=True`` and
``False`` — and asserts the observables are identical, because the
kernel layer's whole contract is that it is invisible.
"""

import random

import pytest

from repro.runtime.task import TaskState, TaskType
from repro.runtime.tdg import TaskGraph
from repro.sim import _ckernels

TT = TaskType(name="t", criticality=0, activity=0.5)


def _observables(graph: TaskGraph) -> dict:
    return {
        "bls": [t.bottom_level for t in graph.tasks],
        "pending": [t.pending_preds for t in graph.tasks],
        "states": [t.state.value for t in graph.tasks],
        "succs": [[s.task_id for s in t.successors] for t in graph.tasks],
        "edges_total": graph.bl_edges_visited_total,
        "max_bl": graph.max_bottom_level,
        "max_bl_waiting": graph.max_bottom_level_waiting,
        "aborted": graph.aborted_count,
        "unfinished": graph.unfinished_count,
    }


def _both(build):
    """Run ``build`` against both backends; return (kernel, reference)."""
    return (
        build(TaskGraph(array_kernels=True)),
        build(TaskGraph(array_kernels=False)),
    )


# -------------------------------------------------- aborts in the frontier
class TestAbortedTasksInFrontier:
    def _abort_then_extend(self, graph: TaskGraph) -> dict:
        """Abort a running task, then submit deps on it — the relaxation
        frontier must treat it as unfinished (pending) again."""
        root, _ = graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0)
        mid, _ = graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0, deps=(0,))
        graph.mark_running(root, core_id=0, now_ns=1.0)
        graph.mark_aborted(root, now_ns=2.0)
        assert root.state is TaskState.READY
        # New chains hanging off both the aborted task and its successor:
        # the walk crosses the aborted node while it sits in the frontier.
        graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0, deps=(0, 1))
        graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0, deps=(2,))
        graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0, deps=(3, 0))
        return _observables(graph)

    def test_kernel_matches_reference(self):
        kern, ref = _both(self._abort_then_extend)
        assert kern == ref

    def test_aborted_task_still_counts_as_pending_dep(self):
        for kernels in (True, False):
            graph = TaskGraph(array_kernels=kernels)
            root, _ = graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0)
            graph.mark_running(root, core_id=0, now_ns=0.0)
            graph.mark_aborted(root, now_ns=1.0)
            child, _ = graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0, deps=(0,))
            # The abort rewound the task to READY (unfinished): the new
            # dependent must wait for it.
            assert child.pending_preds == 1
            assert child.state is TaskState.CREATED

    def test_abort_after_finish_chain_rebuilds_waiting_max(self):
        def build(graph: TaskGraph) -> dict:
            a, _ = graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0)
            graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0, deps=(0,))
            graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0, deps=(1,))
            # Run and abort the deepest task (BL 2) twice in a row.
            for now in (1.0, 2.0):
                graph.mark_running(a, core_id=0, now_ns=now)
                graph.mark_aborted(a, now_ns=now + 0.5)
            graph.mark_running(a, core_id=1, now_ns=5.0)
            graph.mark_finished(a, now_ns=6.0)
            return _observables(graph)

        kern, ref = _both(build)
        assert kern == ref
        assert kern["aborted"] == 2


# ------------------------------------------------------------ duplicate deps
class TestDuplicateDependenceIds:
    def _dup_graph(self, graph: TaskGraph) -> dict:
        graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0)
        graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0, deps=(0,))
        # Duplicates of both a finished and an unfinished predecessor.
        t, _ = graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0, deps=(0, 0, 1, 1, 1))
        assert t.pending_preds == 5  # per-occurrence, the reference contract
        return _observables(graph)

    def test_kernel_matches_reference(self):
        kern, ref = _both(self._dup_graph)
        assert kern == ref

    def test_duplicate_edges_charge_per_occurrence(self):
        for kernels in (True, False):
            graph = TaskGraph(array_kernels=kernels)
            graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0)
            _, edges = graph.submit(
                TT, cpu_cycles=1.0, mem_ns=1.0, deps=(0, 0, 0)
            )
            assert edges == 3, f"array_kernels={kernels}"

    def test_finish_decrements_once_per_occurrence(self):
        def build(graph: TaskGraph) -> dict:
            root, _ = graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0)
            child, _ = graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0, deps=(0, 0))
            graph.mark_running(root, core_id=0, now_ns=0.0)
            graph.mark_finished(root, now_ns=1.0)
            # Both occurrences resolved at once: child is ready.
            assert child.pending_preds == 0
            assert child.state is TaskState.READY
            return _observables(graph)

        kern, ref = _both(build)
        assert kern == ref

    def test_duplicate_deps_on_finished_pred_keep_task_ready(self):
        for kernels in (True, False):
            graph = TaskGraph(array_kernels=kernels)
            root, _ = graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0)
            graph.mark_running(root, core_id=0, now_ns=0.0)
            graph.mark_finished(root, now_ns=1.0)
            t, _ = graph.submit(TT, cpu_cycles=1.0, mem_ns=1.0, deps=(0, 0))
            assert t.pending_preds == 0
            assert t.state is TaskState.READY


# ------------------------------------------------------- property sweep
def _random_episode(graph: TaskGraph, seed: int, n_tasks: int) -> dict:
    """One seeded episode of mixed submits / finishes / aborts."""
    rng = random.Random(seed)
    edge_log = []
    for i in range(n_tasks):
        n_deps = rng.randint(0, min(i, 5))
        # sample *with* replacement so duplicate dep ids occur naturally
        deps = tuple(rng.choice(range(i)) for _ in range(n_deps)) if n_deps else ()
        _, edges = graph.submit(TT, cpu_cycles=10.0, mem_ns=1.0, deps=deps)
        edge_log.append(edges)
        roll = rng.random()
        ready = [t for t in graph.tasks if t.state is TaskState.READY]
        if roll < 0.25 and ready:
            victim = rng.choice(ready)
            graph.mark_running(victim, core_id=0, now_ns=float(i))
            graph.mark_finished(victim, now_ns=float(i) + 0.5)
        elif roll < 0.35 and ready:
            victim = rng.choice(ready)
            graph.mark_running(victim, core_id=1, now_ns=float(i))
            graph.mark_aborted(victim, now_ns=float(i) + 0.25)
    obs = _observables(graph)
    obs["edge_log"] = edge_log
    return obs


@pytest.mark.parametrize("budget", [None, 0, 1, 7, 64])
def test_property_kernel_equals_reference_on_random_graphs(budget):
    """250 seeded-random DAG episodes per budget, bitwise-identical
    observables between the array kernels and the object-walk reference."""
    n_graphs = 50  # x 5 budgets = 250 episodes
    for seed in range(n_graphs):
        kern = _random_episode(
            TaskGraph(bl_edge_budget=budget, array_kernels=True), seed, 40
        )
        ref = _random_episode(
            TaskGraph(bl_edge_budget=budget, array_kernels=False), seed, 40
        )
        assert kern == ref, f"seed={seed} budget={budget}"


@pytest.mark.skipif(
    _ckernels.load() is None,
    reason="the compiled kernel library does not load on this host",
)
def test_property_episode_validates_against_recompute():
    """Unbudgeted kernel BLs equal the batch fixpoint mid-episode."""
    for seed in range(10):
        graph = TaskGraph(array_kernels=True)
        _random_episode(graph, seed, 60)
        state = graph._k
        assert state is not None
        assert (state.recompute() == state.bottom_levels()).all(), f"seed={seed}"
