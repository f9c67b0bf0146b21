"""Flat-array simulation kernels (ROADMAP item 1).

Two hot paths of the engine run over flat buffers instead of Python
objects when the compiled kernels (:mod:`repro.sim._ckernels`) load:

* :class:`BottomLevelState` — task-id-indexed bottom-level / finished /
  histogram buffers plus a CSR predecessor adjacency built incrementally
  on every ``submit``.  :meth:`BottomLevelState.submit` is the
  kernelized replacement for the ``TaskGraph`` add +
  ``_relax_bottom_levels`` pair: identical visit order, identical
  visit-budget semantics, identical ``bl_edges_visited`` counts.
* :class:`TransitionLog` — append-only flat ``(t, core, power, bucket)``
  buffers that let :class:`~repro.sim.energy.EnergyAccountant` integrate
  energy in one C sweep instead of accruing on every ``transition``.

Each host runs exactly one path: these C kernels when the library
builds, otherwise the object-walk/eager reference in
:class:`~repro.runtime.tdg.TaskGraph` and
:class:`~repro.sim.energy.EnergyAccountant`, which generated the golden
fingerprints.  Both are gated on bitwise-identical output (tests/golden
and ``tests/sim/test_arrays.py``).  The ``REPRO_ARRAY_KERNELS``
environment variable is an on/off toggle: ``0``/``off``/``false``/``no``
pins the reference, any other value (default ``1``) means on.

Two exactness constraints shape the design:

* The relaxation walk is **order-sensitive**: ``bl_edges_visited`` is an
  observable quantity (the BL estimator charges it as submission
  overhead), and under a visit budget the *final bottom-levels* depend
  on LIFO visit order too.  The kernel therefore runs the walk
  sequentially over flat int buffers — the budget is checked once per
  popped node, exactly like the reference, which makes charging a
  node's whole edge row in one batch legal — rather than as a
  level-synchronous numpy sweep that would visit a different number of
  edges.  Fully vectorized numpy sweeps are used where order does not
  matter: :meth:`BottomLevelState.recompute` re-derives exact bottom
  levels from the CSR adjacency for validation.
* The C walk runs over preallocated capacity-managed ``array('q')``
  buffers and defers the per-task ``task.bottom_level`` mirror writes
  to one deduplicated pass after the walk, which is unobservable
  because every reader runs between submissions.
"""

from __future__ import annotations

import os
from array import array
from typing import NoReturn, Optional

from . import _ckernels

__all__ = [
    "kernels_enabled",
    "native_enabled",
    "BottomLevelState",
    "TransitionLog",
]

#: Environment toggle for the array-kernel paths.  Read at *construction*
#: time by TaskGraph / EnergyAccountant, so a monkeypatched environment
#: affects every subsequently built system (the golden tests pin both
#: settings in one process this way).
ENV_TOGGLE = "REPRO_ARRAY_KERNELS"

_OFF_VALUES = ("0", "off", "false", "no")

#: Stand-in for "no budget": larger than any reachable edge count, so the
#: hot loop needs no ``is not None`` test.
_NO_BUDGET = 1 << 62

#: Initial capacities of the preallocated buffers.
_INIT_TASKS = 1024
_INIT_EDGES = 4096


def _env_value() -> str:
    return os.environ.get(ENV_TOGGLE, "1").strip().lower()


def kernels_enabled(override: Optional[bool] = None) -> bool:
    """Whether the C kernel path is active.

    ``override`` forces the toggle (perf scenarios and the
    kernel-vs-reference tests pin one path this way); otherwise
    ``REPRO_ARRAY_KERNELS`` decides, defaulting to on.  Either way the
    compiled library must load: a host without a C compiler runs the
    object-walk/eager reference.
    """
    on = override if override is not None else _env_value() not in _OFF_VALUES
    return on and _ckernels.load() is not None


def native_enabled() -> bool:
    """Whether the compiled kernels run: the same answer as
    :func:`kernels_enabled`, since C is the only kernel backend."""
    return kernels_enabled()


class BottomLevelState:
    """Flat buffers for incremental bottom-level maintenance.

    Logical layout (all indexed by ``task_id``):

    ``bl``
        current bottom level;
    ``fin``
        1 iff the task reached ``FINISHED`` (the walk tests it without
        touching the Task object);
    ``counts``
        histogram of bottom levels over *unfinished* tasks — replaces
        the reference implementation's dict;
    ``indptr`` / ``indices``
        CSR predecessor adjacency built incrementally by
        :meth:`submit`: the predecessors of task ``t`` are
        ``indices[indptr[t]:indptr[t+1]]``.

    Everything is preallocated as capacity-doubling
    ``array('q')``/``array('b')`` buffers whose raw addresses are cached
    in a persistent params block between growths, so each :meth:`submit`
    is one C call with a single pointer argument.  ``stamp``/``touched``
    carry the walk's first-touch dedup for the deferred
    ``task.bottom_level`` mirror writes.  Needs the compiled library
    (:func:`kernels_enabled`).
    """

    __slots__ = (
        "bl",
        "fin",
        "counts",
        "indptr",
        "indices",
        "max_bl",
        "max_bl_waiting",
        "_n",
        "_ne",
        "_cap",
        "_ecap",
        "stamp",
        "touched",
        "_state",
        "_params",
        "_a_params",
        "_fn",
    )

    def __init__(self) -> None:
        self.max_bl = 0
        self.max_bl_waiting = 0
        self._n = 0
        self._ne = 0
        cap, ecap = _INIT_TASKS, _INIT_EDGES
        self._cap = cap
        self._ecap = ecap
        self.bl = array("q", bytes(8 * cap))
        self.fin = array("b", bytes(cap))
        self.counts = array("q", bytes(8 * (cap + 2)))
        self.indptr = array("q", bytes(8 * (cap + 1)))
        self.indices = array("q", bytes(8 * ecap))
        self.stamp = array("q", bytes(8 * cap))
        self.touched = array("q", bytes(8 * cap))
        #: {max_bl, max_bl_waiting, epoch, n_touched, pending} — the
        #: scalar I/O block shared with the C kernel.
        self._state = array("q", [0, 0, 0, 0, 0])
        self._fn = _ckernels.load().bl_submit
        self._refresh_addrs()

    def __len__(self) -> int:
        return self._n

    # ----------------------------------------------------- native plumbing
    def _refresh_addrs(self) -> None:
        # One persistent address block (see bl_submit's `bufs`): the per-
        # call ctypes marshalling collapses to a single pointer argument.
        self._params = array(
            "q",
            [
                self.bl.buffer_info()[0],
                self.fin.buffer_info()[0],
                self.counts.buffer_info()[0],
                self.indptr.buffer_info()[0],
                self.indices.buffer_info()[0],
                self.stamp.buffer_info()[0],
                self.touched.buffer_info()[0],
                self._state.buffer_info()[0],
            ],
        )
        self._a_params = self._params.buffer_info()[0]

    def _grow_tasks(self) -> None:
        cap = self._cap
        pad_q = array("q", bytes(8 * cap))
        self.bl.extend(pad_q)
        self.counts.extend(pad_q)
        self.indptr.extend(pad_q)
        self.stamp.extend(pad_q)
        self.touched.extend(pad_q)
        self.fin.extend(array("b", bytes(cap)))
        self._cap = cap * 2
        self._refresh_addrs()

    def _grow_edges(self, need: int) -> None:
        ecap = self._ecap
        while ecap < need:
            ecap *= 2
        self.indices.extend(array("q", bytes(8 * (ecap - self._ecap))))
        self._ecap = ecap
        self._refresh_addrs()

    # ---------------------------------------------------------- submission
    def submit(
        self,
        dep_ids: tuple[int, ...],
        tasks: list,
        budget: Optional[int],
        track: bool = True,
    ) -> tuple[int, int]:
        """Add a new leaf (BL 0) with its predecessor edges and relax.

        Returns ``(edges_visited, pending_preds)``.  The walk is a
        bitwise-faithful port of ``TaskGraph._relax_bottom_levels`` onto
        the flat buffers: same LIFO frontier, same duplicate-dependence
        handling (the initial frontier is built before any BL moves, and
        ``pending`` counts unfinished deps per *occurrence*), and the
        budget is checked once per popped node — which is what makes
        charging a node's whole edge row in one batch legal.
        ``track=False`` appends the row and counts pending but skips the
        walk entirely (0 edges charged).

        ``tasks[i].bottom_level`` is kept in sync for every relaxed node:
        the BL readers outside the graph (HPRQ priority, criticality
        estimators) take the Task object, not an id.  Validation, CSR
        append, pending count and walk run as *one* C call (per-call
        ctypes marshalling dominated the split form), and the mirror is
        then written once per distinct touched task — unobservable, since
        no reader runs inside ``TaskGraph.submit``.  The kernel validates
        ``dep_ids`` before any mutation and raises the reference
        implementation's exact error.
        """
        n = self._n
        if n >= self._cap:
            self._grow_tasks()
        nd = len(dep_ids)
        ne = self._ne
        if nd:
            if ne + nd > self._ecap:
                self._grow_edges(ne + nd)
            try:
                scratch = array("q", dep_ids)
            except OverflowError:
                # A dep id outside int64 is by construction unknown;
                # raise the reference error for it.
                self._raise_bad_dep(dep_ids)
            a_deps = scratch.buffer_info()[0]
        else:
            a_deps = 0
        if track:
            c_budget = _NO_BUDGET if budget is None else budget
        else:
            c_budget = -1
        edges = self._fn(self._a_params, a_deps, nd, n, ne, c_budget)
        if edges < 0:
            if edges == -3:
                self._raise_bad_dep(dep_ids)
            raise MemoryError("bl_submit: frontier stack allocation failed")
        self._n = n + 1
        self._ne = ne + nd
        st = self._state
        self.max_bl = st[0]
        self.max_bl_waiting = st[1]
        nt = st[3]
        if nt:
            bl = self.bl
            for pid in self.touched[:nt]:
                tasks[pid].bottom_level = bl[pid]
        return edges, st[4]

    def _raise_bad_dep(self, dep_ids: tuple[int, ...]) -> "NoReturn":
        """Raise the reference implementation's unknown-dependence error."""
        n = self._n
        for d in dep_ids:
            if not (0 <= d < n):
                raise ValueError(f"task {n} depends on unknown task {d}")
        raise AssertionError("kernel rejected deps the reference accepts")

    # ------------------------------------------------------------ progress
    def retire(self, task_id: int) -> None:
        """A tracked task finished: update histogram and the waiting max."""
        counts = self.counts
        counts[self.bl[task_id]] -= 1
        w = self.max_bl_waiting
        while w > 0 and not counts[w]:
            w -= 1
        self.max_bl_waiting = w
        # The C walk reads max_bl_waiting back from the shared block.
        self._state[1] = w

    # ---------------------------------------------------------- batch view
    def bottom_levels(self):
        """Current bottom levels as a numpy int64 array (copy)."""
        import numpy as np

        return np.asarray(self.bl[: self._n], dtype=np.int64)

    def recompute(self):
        """Exact bottom levels from the CSR adjacency, as batched sweeps.

        Bellman-Ford-style relaxation over the full edge arrays:
        ``exact[pred] = max(exact[pred], exact[succ] + 1)`` for every
        edge at once (``np.maximum.at``), repeated until fixpoint — at
        most ``longest_path + 1`` sweeps.  Order-insensitive, so full
        vectorization is legal here (unlike the budgeted walk).  Used by
        validation to cross-check the incremental buffers.
        """
        import numpy as np

        n = self._n
        exact = np.zeros(n, dtype=np.int64)
        if not self._ne:
            return exact
        indptr = np.asarray(self.indptr[: n + 1], dtype=np.int64)
        preds = np.asarray(self.indices[: self._ne], dtype=np.int64)
        # Edge e (a predecessor reference) belongs to the task whose CSR
        # row contains it: succ_of_edge[indptr[t]:indptr[t+1]] == t.
        succ_of_edge = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        while True:
            relaxed = exact.copy()
            np.maximum.at(relaxed, preds, exact[succ_of_edge] + 1)
            if np.array_equal(relaxed, exact):
                return exact
            exact = relaxed


class TransitionLog:
    """Append-only core-state transition log for batched energy sweeps.

    Four parallel flat buffers — timestamp, core id, resolved power
    draw, resolved breakdown-bucket index — appended by
    ``EnergyAccountant.transition`` and drained in order by its C replay
    sweep.  Replaying in append order reproduces the exact float
    summation order of the eager per-edge accrual (global chronological
    interleaving across cores), so prefix flushes at sync points are
    bitwise-neutral.

    Power and bucket are resolved *at append time*: they are pure
    functions of the core state's value, so resolution order cannot
    change any value, and storing scalars keeps the log free of object
    references.
    """

    __slots__ = ("t", "core", "power", "bidx")

    def __init__(self) -> None:
        self.t: array = array("d")
        self.core: array = array("q")
        self.power: array = array("d")
        self.bidx: array = array("q")

    def __len__(self) -> int:
        return len(self.t)

    def clear(self) -> None:
        self.t = array("d")
        self.core = array("q")
        self.power = array("d")
        self.bidx = array("q")

    def times(self):
        """Logged timestamps as a numpy float64 array (diagnostics)."""
        import numpy as np

        return np.asarray(self.t, dtype=np.float64)
