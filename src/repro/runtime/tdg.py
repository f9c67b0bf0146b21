"""Task dependence graph (TDG) with incremental bottom-level maintenance.

The runtime builds the TDG as the main thread submits tasks (paper
Section II-A) and uses it for two things:

* readiness tracking — a task becomes ready when its last predecessor
  finishes, mirroring how an out-of-order processor wakes instructions;
* bottom-level (BL) computation for the dynamic criticality estimator
  (Section II-B): BL(t) is the length in edges of the longest path from
  *t* to a leaf among the tasks currently known to the runtime.

Bottom-levels are maintained incrementally: a newly submitted task is a
leaf (BL 0); submission relaxes ancestors upward along dependence edges.
The number of edges visited by that walk is returned to the caller because
the paper charges exactly this exploration as the BL estimator's runtime
overhead (costly in dense TDGs with short tasks — the Fluidanimate
slowdown).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from ..sim import arrays
from .task import Task, TaskState, TaskType

__all__ = ["TaskGraph"]

ReadyCallback = Callable[[Task], None]


class TaskGraph:
    """The runtime's dynamic TDG."""

    def __init__(
        self,
        on_ready: Optional[ReadyCallback] = None,
        bl_edge_budget: Optional[int] = None,
        track_bottom_levels: bool = True,
        array_kernels: Optional[bool] = None,
    ) -> None:
        """``bl_edge_budget`` caps the edges visited by one submission's
        bottom-level relaxation walk.  Real runtimes bound this exploration
        (the paper's limitation: "only a sub-graph of the TDG is considered
        to estimate criticality"); an unbounded walk is O(n²) on pipeline
        chains.  ``None`` keeps bottom-levels exact.

        ``track_bottom_levels=False`` skips BL maintenance entirely — legal
        only when nothing observes bottom levels.  Static-annotation
        policies qualify: their estimator charges no submission cost
        (``submit_cost_ns`` is 0 regardless of ``bl_edges_visited``), reads
        annotations rather than ``task.bottom_level``, and neither the
        serialized result nor the trace contains a bottom level.  The skip
        only takes effect on the C kernel path (``array_kernels``, default:
        the ``REPRO_ARRAY_KERNELS`` environment toggle; see
        :func:`repro.sim.arrays.kernels_enabled`), so the reference path
        stays byte-for-byte the historical implementation."""
        if bl_edge_budget is not None and bl_edge_budget < 0:
            raise ValueError("bl_edge_budget must be non-negative")
        self._tasks: list[Task] = []
        self._preds: list[tuple[int, ...]] = []
        self._on_ready = on_ready
        self._bl_edge_budget = bl_edge_budget
        self._max_bottom_level = 0
        self._unfinished = 0
        self._bl_edges_visited_total = 0
        # Histogram of bottom-levels over *unfinished* tasks, so the
        # estimator can threshold against the longest path among tasks still
        # waiting (the paper: criticality is estimated on "the TDG of tasks
        # waiting for execution", not the historical graph).
        self._bl_counts: dict[int, int] = {}
        self._max_bl_waiting = 0
        #: Tasks killed by fault injection and re-enqueued (diagnostics).
        self.aborted_count = 0
        #: C kernel state (bl/fin/histogram/CSR); None selects the
        #: reference object-walking implementation.
        self._k: Optional[arrays.BottomLevelState] = (
            arrays.BottomLevelState()
            if arrays.kernels_enabled(array_kernels)
            else None
        )
        self._track = track_bottom_levels

    # ------------------------------------------------------------- queries
    @property
    def tasks(self) -> Sequence[Task]:
        return self._tasks

    @property
    def task_count(self) -> int:
        return len(self._tasks)

    @property
    def unfinished_count(self) -> int:
        return self._unfinished

    @property
    def max_bottom_level(self) -> int:
        """Largest BL among all tasks ever submitted (monotone)."""
        return self._k.max_bl if self._k is not None else self._max_bottom_level

    @property
    def max_bottom_level_waiting(self) -> int:
        """Largest BL among tasks not yet finished (the estimator's view)."""
        return self._k.max_bl_waiting if self._k is not None else self._max_bl_waiting

    @property
    def tracks_bottom_levels(self) -> bool:
        """False when BL maintenance is skipped (unobservable; see ctor)."""
        return self._track or self._k is None

    @property
    def bl_edges_visited_total(self) -> int:
        return self._bl_edges_visited_total

    def predecessors(self, task: Task) -> list[Task]:
        return [self._tasks[p] for p in self._preds[task.task_id]]

    # ---------------------------------------------------------- submission
    def submit(
        self,
        ttype: TaskType,
        cpu_cycles: float,
        mem_ns: float,
        deps: Iterable[int] = (),
        activity: Optional[float] = None,
        block_at: Optional[float] = None,
        block_ns: float = 0.0,
        phase: int = 0,
        now_ns: float = 0.0,
    ) -> tuple[Task, int]:
        """Add a task; returns ``(task, bl_edges_visited)``.

        Dependences must reference already-submitted task ids, which keeps
        the graph acyclic by construction.  Predecessors that already
        finished do not gate readiness (their data is available).
        """
        task_id = len(self._tasks)
        dep_ids = tuple(deps)
        k = self._k
        # On the kernel path dep validation happens inside the fused C
        # kernel (before any buffer mutation), which raises the reference's
        # exact error.  Consequence: a submission with *both* bad deps and
        # bad task parameters reports the parameter error first there, the
        # dep error first here — no caller passes both.
        if k is None:
            for d in dep_ids:
                if not (0 <= d < task_id):
                    raise ValueError(f"task {task_id} depends on unknown task {d}")
        # Positional construction (fields up to ``phase``), submit_ns set
        # after: one task is built per submit and the kwargs form showed
        # up in the tdg_relax profile.
        task = Task(
            task_id,
            ttype,
            cpu_cycles,
            mem_ns,
            ttype.activity if activity is None else activity,
            block_at,
            block_ns,
            phase,
        )
        task.submit_ns = now_ns
        tasks = self._tasks
        if k is not None:
            # Fused kernel submission: CSR append, per-occurrence pending
            # count and the relaxation walk in one call.  With tracking
            # off the walk is skipped and 0 edges are charged — provably
            # unobservable under the static-annotation wiring (see ctor).
            edges_visited, pending = k.submit(
                dep_ids, tasks, self._bl_edge_budget, self._track
            )
            tasks.append(task)
            self._preds.append(dep_ids)
            self._unfinished += 1
            for pred in map(tasks.__getitem__, dep_ids):
                pred.successors.append(task)
            task.pending_preds = pending
            self._bl_edges_visited_total += edges_visited
        else:
            tasks.append(task)
            self._preds.append(dep_ids)
            self._unfinished += 1
            pending = 0
            for d in dep_ids:
                pred = tasks[d]
                if pred.state is not TaskState.FINISHED:
                    pending += 1
                pred.successors.append(task)
            task.pending_preds = pending
            self._bl_counts[0] = self._bl_counts.get(0, 0) + 1

            edges_visited = self._relax_bottom_levels(task, dep_ids)
            self._bl_edges_visited_total += edges_visited

        if pending == 0:
            self._make_ready(task, now_ns)
        return task, edges_visited

    def _relax_bottom_levels(self, task: Task, dep_ids: tuple[int, ...]) -> int:
        """Propagate the new leaf's BL upward; returns edges visited.

        The walk stops once ``bl_edge_budget`` edges have been inspected —
        beyond that the runtime's view of ancestor bottom-levels goes stale,
        exactly the partial-TDG inaccuracy the paper attributes to the
        bottom-level method.

        This is the hottest function of a BL-estimator run (every submit
        walks ancestor edges), so the histogram update is inlined and all
        loop state lives in locals; the visit order, edge count and
        resulting bottom-levels are identical to the straightforward form.
        """
        budget = self._bl_edge_budget
        edges = len(dep_ids)  # the new edges themselves are inspected
        tasks = self._tasks
        preds = self._preds
        bl_counts = self._bl_counts
        bl_counts_get = bl_counts.get
        finished = TaskState.FINISHED
        max_bl = self._max_bottom_level
        max_bl_waiting = self._max_bl_waiting
        # Worklist of tasks whose BL increased and whose preds need relaxing.
        # (Built before any BL moves, like the unoptimized form: duplicate
        # dep ids must contribute duplicate frontier entries.)
        frontier = [t for t in map(tasks.__getitem__, dep_ids) if t.bottom_level < 1]
        for t in frontier:
            if t.state is not finished:
                bl_counts[t.bottom_level] -= 1
                bl_counts[1] = bl_counts_get(1, 0) + 1
                if max_bl_waiting < 1:
                    max_bl_waiting = 1
            t.bottom_level = 1
        while frontier:
            if budget is not None and edges >= budget:
                break
            node = frontier.pop()
            node_bl = node.bottom_level
            if node_bl > max_bl:
                max_bl = node_bl
            new_bl = node_bl + 1
            for pid in preds[node.task_id]:
                edges += 1
                pred = tasks[pid]
                if pred.bottom_level < new_bl:
                    if pred.state is not finished:
                        bl_counts[pred.bottom_level] -= 1
                        bl_counts[new_bl] = bl_counts_get(new_bl, 0) + 1
                        if new_bl > max_bl_waiting:
                            max_bl_waiting = new_bl
                    pred.bottom_level = new_bl
                    frontier.append(pred)
        self._max_bottom_level = max_bl
        self._max_bl_waiting = max_bl_waiting
        return edges

    # ------------------------------------------------------------ progress
    def _make_ready(self, task: Task, now_ns: float) -> None:
        task.state = TaskState.READY
        task.ready_ns = now_ns
        if self._on_ready is not None:
            self._on_ready(task)

    def mark_running(self, task: Task, core_id: int, now_ns: float) -> None:
        if task.state is not TaskState.READY:
            raise RuntimeError(f"{task.name} started while {task.state.value}")
        task.state = TaskState.RUNNING
        task.core_id = core_id
        task.start_ns = now_ns

    def mark_aborted(self, task: Task, now_ns: float) -> None:
        """Fault injection killed a running task: re-enqueue it.

        The task returns to READY through the ordinary ready callback (so
        the estimator re-decides its criticality and the scheduler re-queues
        it).  It never finished, so the unfinished count and the bottom-level
        histogram are untouched; all execution progress is lost.
        """
        if task.state is not TaskState.RUNNING:
            raise RuntimeError(f"{task.name} aborted while {task.state.value}")
        self.aborted_count += 1
        task.core_id = None
        task.state = TaskState.CREATED
        self._make_ready(task, now_ns)

    def mark_finished(self, task: Task, now_ns: float) -> list[Task]:
        """Complete a task; returns the successors that just became ready.

        Ready callbacks fire for each newly ready successor, in submission
        order, before this method returns.
        """
        if task.state is not TaskState.RUNNING:
            raise RuntimeError(f"{task.name} finished while {task.state.value}")
        task.state = TaskState.FINISHED
        task.end_ns = now_ns
        self._unfinished -= 1
        k = self._k
        if k is not None:
            k.fin[task.task_id] = 1
            if self._track:
                k.retire(task.task_id)
        else:
            self._bl_counts[task.bottom_level] -= 1
            while self._max_bl_waiting > 0 and not self._bl_counts.get(self._max_bl_waiting):
                self._max_bl_waiting -= 1
        newly_ready: list[Task] = []
        for succ in task.successors:
            succ.pending_preds -= 1
            if succ.pending_preds == 0 and succ.state is TaskState.CREATED:
                newly_ready.append(succ)
        newly_ready.sort(key=lambda t: t.task_id)
        for succ in newly_ready:
            self._make_ready(succ, now_ns)
        return newly_ready

    # ---------------------------------------------------------- validation
    def validate_bottom_levels(self) -> None:
        """Recompute every BL from scratch and compare (test support).

        On the kernel path this additionally cross-checks the flat ``bl``
        buffer against ``task.bottom_level`` and against the CSR-based
        numpy recompute (:meth:`repro.sim.arrays.BottomLevelState
        .recompute`) — three independent derivations must agree.
        """
        if not self.tracks_bottom_levels:
            raise RuntimeError(
                "bottom levels are not tracked on this graph "
                "(track_bottom_levels=False); nothing to validate"
            )
        n = len(self._tasks)
        exact = [0] * n
        for t in reversed(self._tasks):
            for succ in t.successors:
                exact[t.task_id] = max(exact[t.task_id], exact[succ.task_id] + 1)
        for t in self._tasks:
            if t.bottom_level != exact[t.task_id]:
                raise AssertionError(
                    f"{t.name}: incremental BL {t.bottom_level} != exact {exact[t.task_id]}"
                )
        k = self._k
        if k is not None and n:
            for t in self._tasks:
                if k.bl[t.task_id] != t.bottom_level:
                    raise AssertionError(
                        f"{t.name}: flat buffer BL {k.bl[t.task_id]} != "
                        f"object BL {t.bottom_level}"
                    )
            csr = k.recompute()
            for tid in range(n):
                if int(csr[tid]) != exact[tid]:
                    raise AssertionError(
                        f"task {tid}: CSR recompute BL {int(csr[tid])} != "
                        f"exact {exact[tid]}"
                    )
