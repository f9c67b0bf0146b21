"""Parallel sweep executor with crash recovery.

Every grid cell — one ``(workload, policy, fast, seed, faults)`` simulation
at a given scale on a given machine — is a pure, deterministic function of
its key, so independent cells can fan out across a process pool and produce
bitwise-identical results regardless of worker count, completion order, or
how many times a worker had to be restarted.  The executor layers three
stores, checked in order:

1. the caller's in-memory memo (:class:`~repro.harness.runner.GridRunner`
   keeps one per runner),
2. an optional persistent :class:`~repro.harness.cache.ResultCache` on
   disk, shared between runners and invocations,
3. actual simulation, inline for ``jobs=1`` or via
   :class:`concurrent.futures.ProcessPoolExecutor` for ``jobs>1`` (one pool
   per call).  An *isolated* executor (``isolate=True``, the sweep
   service's) never simulates in the calling interpreter: one persistent
   pool of ``jobs`` processes, forked at the first batch that simulates,
   serves every later call until :meth:`SweepExecutor.close`.

The simulation layer is hardened against the failure modes of long
sweeps (:class:`RetryPolicy`):

* a **crashed worker** (OOM kill, segfault, SIGKILL) breaks the pool; the
  executor rebuilds it and re-dispatches only the cells that were in
  flight — finished results are never recomputed;
* a **hung cell** is detected by a per-cell wall-clock timeout; the stuck
  pool is torn down, the overdue cell re-queued with one attempt consumed
  and the innocent in-flight cells re-queued for free;
* a **transient exception** is retried with exponential backoff (jitter
  drawn from a seeded RNG, so retry schedules are reproducible), while
  deterministic errors (``ValueError`` &c.) surface immediately —
  retrying a misspelled policy name three times helps nobody;
* after ``pool_failure_limit`` pool teardowns the executor stops trusting
  process isolation and degrades to inline (in-process) execution for the
  remaining cells (an isolated executor never degrades);
* a **killed parent** takes its workers with it: every pool worker
  watches its parent's sentinel and exits when the parent is gone;
* a worker resets the signal handling it inherits (see
  :func:`_init_worker`), and a torn-down pool's workers get SIGKILL.

Each cell is checkpointed through the cache, the optional
:class:`~repro.harness.journal.SweepJournal` and the completion hook the
moment its result arrives, so a sweep killed (or failed) at cell N of M
keeps every finished cell and resumes by re-simulating only the rest.

Per-cell wall-clock timings and hit/miss/recovery counters accumulate in
:class:`SweepStats`; the harness surfaces them in verbose output and in
``GridResult.stats``.
"""

from __future__ import annotations

import functools
import multiprocessing
import multiprocessing.connection
import os
import random
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..core.policies import run_policy, run_scenario_policy
from ..runtime.program import Program
from ..runtime.system import RunResult
from ..sim.config import MachineConfig
from ..sim.serialize import machine_from_dict, machine_to_dict
from ..workloads import build_program
from .cache import ResultCache, cell_key
from .journal import SweepJournal

__all__ = [
    "CellSpec",
    "CellFailedError",
    "RetryPolicy",
    "SweepStats",
    "SweepExecutor",
    "process_alive",
    "simulate_cell",
]


class CellFailedError(RuntimeError):
    """A cell exhausted its attempts for a reason other than a timeout.

    Raised when a cell was in flight during ``max_attempts`` worker-pool
    crashes in a row — the repeated implication suggests the cell itself
    (e.g. an OOM-triggering configuration) is killing its workers.
    Distinct from :class:`TimeoutError`, which keeps meaning exactly
    "exceeded ``cell_timeout_s`` wall-clock"; a sweep with timeouts
    disabled can still see this error.
    """

#: Exception types that no amount of retrying will fix — bad policy names,
#: malformed fault specs, type errors.  They re-raise immediately so the
#: caller sees the same exception type with or without the retry layer.
_NON_RETRYABLE: tuple[type[BaseException], ...] = (
    ValueError,
    TypeError,
    NotImplementedError,
)


@dataclass(frozen=True)
class CellSpec:
    """One independent simulation of the sweep grid."""

    workload: str
    policy: str
    fast: int
    seed: int
    scale: float
    trace_enabled: bool = False
    #: Fault-injection spec (see :mod:`repro.sim.faults`); ``"off"`` keeps
    #: the machine pristine and the cell key backward-distinct.
    faults: str = "off"
    #: Canonical open-loop scenario spec (see
    #: :mod:`repro.workloads.scenario`); ``"off"`` = closed-loop legacy
    #: cell.  When set, ``workload`` is a display label only — the tenants'
    #: benchmarks come from the spec itself.
    scenario: str = "off"

    def label(self) -> str:
        tail = f" faults={self.faults}" if self.faults != "off" else ""
        if self.scenario != "off":
            tail += f" scenario={self.scenario}"
        return f"{self.workload}/{self.policy}@{self.fast} seed={self.seed}{tail}"

    def key(self, machine: Optional[MachineConfig] = None) -> str:
        return cell_key(
            self.workload,
            self.policy,
            self.fast,
            self.seed,
            self.scale,
            machine,
            self.trace_enabled,
            self.faults,
            self.scenario,
        )


#: Programs kept by :func:`_cell_program`.  A grid's seeds are its
#: innermost loop, so the memo hits only if it holds one program per
#: seed: the default three-seed ``repro figure4`` reuses a program in 198
#: of its 216 cells with three or more entries, in none with two.  Eight
#: covers grids of up to eight seeds; a program at scale 1.0 takes at
#: most ~1.3 MB.
PROGRAM_MEMO_SIZE = 8


@functools.lru_cache(maxsize=PROGRAM_MEMO_SIZE)
def _cell_program(
    workload: str, scale: float, seed: int, machine: Optional[MachineConfig]
) -> Program:
    """The closed-loop program of a cell, built once per process for all
    the cells that share it.

    Sharing is sound because a run never mutates its program (the
    shared-program test in ``tests/harness/test_program_memo.py`` checks
    every policy, with and without faults).  The memo sits here rather
    than in :func:`~repro.workloads.build_program`, whose other callers
    get a program of their own to modify.  It is filled only by the cells
    this process simulates, and each :class:`SweepExecutor` starts it
    empty, so a sweep builds the programs of its own cells.
    """
    return build_program(workload, scale=scale, seed=seed, machine=machine)


def simulate_cell(
    spec: CellSpec,
    machine_dict: Optional[dict[str, Any]] = None,
) -> tuple[RunResult, float]:
    """Simulate one cell; returns ``(result, sim_seconds)``.

    Module-level so it pickles into pool workers; the machine travels as a
    plain dict for the same reason.
    """
    t0 = time.perf_counter()
    machine = machine_from_dict(machine_dict) if machine_dict is not None else None
    if spec.scenario != "off":
        result = run_scenario_policy(
            spec.scenario,
            spec.policy,
            machine=machine,
            fast_cores=spec.fast,
            seed=spec.seed,
            scale=spec.scale,
            trace_enabled=spec.trace_enabled,
            faults=spec.faults,
        )
        return result, time.perf_counter() - t0
    program = _cell_program(spec.workload, spec.scale, spec.seed, machine)
    result = run_policy(
        program,
        spec.policy,
        machine=machine,
        fast_cores=spec.fast,
        seed=spec.seed,
        trace_enabled=spec.trace_enabled,
        faults=spec.faults,
    )
    return result, time.perf_counter() - t0


def _init_worker(ignore_sigint: bool) -> None:
    """Pool-worker initializer: own signal handling, and exit with the
    parent.

    A forked worker inherits its parent's Python signal handlers and,
    before Python 3.12, the wakeup fd of the parent's asyncio loop.  In a
    ``repro serve`` worker, SIGTERM would run the daemon's no-op handler
    (so terminating the worker would not stop it) and, through that fd,
    wake the daemon's own loop as if the daemon had been signalled, so
    the daemon would drain.  The worker therefore drops the wakeup fd
    and takes SIGTERM's default action back; with ``ignore_sigint`` (the
    service's pool) it also ignores SIGINT, so a terminal's Ctrl-C drains
    the daemon instead of killing the cells in flight.

    A SIGKILLed sweep or daemon never shuts its pool down, and its idle
    workers would block on the call queue forever, reparented to init.
    The parent's sentinel turns readable (EOF) once the parent is gone.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if ignore_sigint:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def watch() -> None:
        multiprocessing.connection.wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


def process_alive(pid: int) -> bool:
    """True while process ``pid`` runs.

    A process that exited but was not reaped yet (a zombie, such as a
    killed worker whose parent has not waited for it) counts as gone.
    Without procfs the kernel is asked directly, which counts a zombie
    as alive.
    """
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            pass
        return True


@dataclass(frozen=True)
class RetryPolicy:
    """Crash/timeout/retry behavior of one executor."""

    #: Total tries per cell (first run included).
    max_attempts: int = 3
    #: Per-cell wall-clock limit in seconds; ``None`` disables timeouts.
    cell_timeout_s: Optional[float] = None
    #: Exponential-backoff base before an exception retry.
    backoff_base_s: float = 0.25
    #: Backoff ceiling.
    backoff_cap_s: float = 10.0
    #: Pool teardowns tolerated before degrading to inline execution.
    pool_failure_limit: int = 3
    #: Seed of the backoff-jitter RNG (reproducible retry schedules).
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ValueError("cell_timeout_s must be positive")
        if self.pool_failure_limit < 1:
            raise ValueError("pool_failure_limit must be >= 1")

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Jittered exponential delay before retry number ``attempt``
        (the one backoff formula: ``ClientRetryPolicy`` shares it)."""
        base = min(self.backoff_cap_s, self.backoff_base_s * (2 ** (attempt - 1)))
        return base * (0.5 + 0.5 * rng.random())


@dataclass
class SweepStats:
    """Cell accounting for one batch (or one executor's lifetime)."""

    cells: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    #: Duplicate specs in the submitted batch, resolved once and fanned
    #: back out; ``cells == cache_hits + simulated + deduped`` holds for
    #: every ``run_cells`` batch.
    deduped: int = 0
    simulated: int = 0
    sim_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: Cells whose cache hit was journaled by an earlier (interrupted) run.
    resumed: int = 0
    #: Exception-driven re-executions.
    retries: int = 0
    #: Cells that exceeded the per-cell wall-clock limit.
    timeouts: int = 0
    #: Process-pool teardowns (worker crash or hung cell).
    pool_crashes: int = 0
    #: Cells that ran inline after the executor degraded.
    inline_cells: int = 0
    #: Corrupt cache entries moved to quarantine during this batch.
    quarantined: int = 0
    #: Cache writes that failed (cache degraded to read-only).
    cache_write_failures: int = 0
    #: (cell label, seconds) for every simulated cell, submission order
    #: (cells are checkpointed in completion order).
    timings: list[tuple[str, float]] = field(default_factory=list)

    @property
    def cache_misses(self) -> int:
        return self.simulated

    def merge(self, other: "SweepStats") -> None:
        self.cells += other.cells
        self.memo_hits += other.memo_hits
        self.cache_hits += other.cache_hits
        self.deduped += other.deduped
        self.simulated += other.simulated
        self.sim_seconds += other.sim_seconds
        self.wall_seconds += other.wall_seconds
        self.resumed += other.resumed
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.pool_crashes += other.pool_crashes
        self.inline_cells += other.inline_cells
        self.quarantined += other.quarantined
        self.cache_write_failures += other.cache_write_failures
        self.timings.extend(other.timings)

    def summary(self) -> str:
        parts = [
            f"cells: {self.cells}",
            f"memo hits: {self.memo_hits}",
            f"cache hits: {self.cache_hits}",
            f"cache misses: {self.cache_misses}",
            f"simulated: {self.simulated}",
            f"sim time: {self.sim_seconds:.2f}s",
            f"wall time: {self.wall_seconds:.2f}s",
        ]
        # Recovery counters only appear when something actually went wrong,
        # so the healthy-path summary line is unchanged.
        for name, value in (
            ("deduped", self.deduped),
            ("resumed", self.resumed),
            ("retries", self.retries),
            ("timeouts", self.timeouts),
            ("pool crashes", self.pool_crashes),
            ("inline cells", self.inline_cells),
            ("quarantined", self.quarantined),
            ("cache write failures", self.cache_write_failures),
        ):
            if value:
                parts.append(f"{name}: {value}")
        return "sweep stats — " + ", ".join(parts)


@dataclass
class _Flight:
    """Bookkeeping for one in-flight pool future (one cell)."""

    #: The cell's position in the specs sequence.
    index: int
    spec: CellSpec
    attempt: int
    #: Submission sequence number; the pool dispatches FIFO, so at any
    #: instant the ``workers`` lowest-seq in-flight futures are the ones
    #: that can actually be executing.
    seq: int
    #: Wall-clock deadline, armed at *dispatch* (when the flight becomes
    #: one of the ``workers`` oldest in flight), not at submit — a cell
    #: queued behind busy workers must not burn budget before it starts.
    deadline: Optional[float] = None


class SweepExecutor:
    """Fans independent cells across processes, read-through cached.

    @guarded_by("_pool_lock"): _pool, _closed
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        machine: Optional[MachineConfig] = None,
        verbose: bool = False,
        retry: Optional[RetryPolicy] = None,
        journal: Optional[SweepJournal] = None,
        cell_fn: Callable[..., tuple[RunResult, float]] = simulate_cell,
        on_cell_complete: Optional[
            Callable[[CellSpec, str, RunResult, float, bool], None]
        ] = None,
        isolate: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        # The program memo lives as long as one executor.
        _cell_program.cache_clear()
        self.jobs = jobs
        self.cache = cache
        self.machine = machine
        self.verbose = verbose
        self.retry = retry if retry is not None else RetryPolicy()
        self.journal = journal
        #: The function actually run per cell.  Injectable so the chaos
        #: tests can dispatch crashing/hanging cells into real pool workers
        #: (monkeypatching doesn't cross a fork boundary after the pool has
        #: been created, and never crosses a spawn boundary).
        self.cell_fn = cell_fn
        #: Called as ``(spec, key, result, seconds, from_cache)`` after a
        #: cell is resolved and checkpointed (cache + journal).  The sweep
        #: service uses this for journal-backed per-cell progress streaming;
        #: ``seconds`` is 0.0 for cache hits.
        self.on_cell_complete = on_cell_complete
        #: Never simulate in the calling interpreter, even at ``jobs=1``
        #: or for a one-cell batch: the sweep service sets this so that a
        #: running cell cannot hold the daemon's GIL.  Cells run on one
        #: persistent pool of ``jobs`` workers, and the executor never
        #: degrades to inline execution.
        self.isolate = isolate
        self._pool_lock = threading.Lock()
        #: The isolated executor's persistent pool: forked at the first
        #: batch that simulates, dropped by a teardown or :meth:`close`.
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Set by :meth:`close`; no cell is simulated afterwards.
        self._closed = False
        self._rng = random.Random(self.retry.jitter_seed)
        #: Pool teardowns over this executor's lifetime; at
        #: ``retry.pool_failure_limit`` execution degrades to inline.
        self.pool_failures = 0
        #: Lifetime totals across every ``run_cells`` call.
        self.stats = SweepStats()

    # ----------------------------------------------------------- public API
    def run_cells(
        self, specs: Sequence[CellSpec]
    ) -> tuple[dict[CellSpec, RunResult], SweepStats]:
        """Resolve every spec (cache first, then simulation).

        Duplicate specs are computed once.  Returns the result map and the
        stats of this batch alone; lifetime totals accumulate on
        ``self.stats``.
        """
        t0 = time.perf_counter()
        batch = SweepStats(cells=len(specs))
        cache = self.cache
        evictions0 = cache.corrupt_evictions if cache is not None else 0
        writefails0 = cache.write_failures if cache is not None else 0
        unique = list(dict.fromkeys(specs))
        # Duplicates resolve once and fan back out; count them so the
        # batch identity `cells == cache_hits + simulated + deduped` holds
        # and summary() coverage adds up.
        batch.deduped = len(specs) - len(unique)
        results: dict[CellSpec, RunResult] = {}
        # Each cell's content address is derived once, here, and reused for
        # the cache write, the journal and the completion hook.
        to_run: list[tuple[CellSpec, str]] = []
        for spec in unique:
            key = spec.key(self.machine)
            cached = cache.get(key) if cache is not None else None
            if cached is not None:
                if self.verbose:
                    print(f"  cache hit  {spec.label()}", flush=True)
                batch.cache_hits += 1
                if self.journal is not None and key in self.journal.completed:
                    batch.resumed += 1
                results[spec] = cached
                if self.on_cell_complete is not None:
                    self.on_cell_complete(spec, key, cached, 0.0, True)
            else:
                to_run.append((spec, key))

        if self.verbose and batch.resumed:
            print(
                f"  resuming: {batch.resumed} cells completed by a previous "
                f"run, {len(to_run)} left to simulate",
                flush=True,
            )

        seconds_of: dict[int, float] = {}

        def checkpoint(index: int, outcome: tuple[RunResult, float]) -> None:
            """Persist and count one cell the moment its result arrives, so
            a batch that later fails or is killed keeps every finished
            cell, in the store and in the stats."""
            spec, key = to_run[index]
            result, seconds = outcome
            results[spec] = result
            seconds_of[index] = seconds
            batch.simulated += 1
            batch.sim_seconds += seconds
            if self.verbose:
                print(f"  simulated  {spec.label()} in {seconds:.2f}s", flush=True)
            if cache is not None:
                cache.put(key, result)
            if self.journal is not None:
                self.journal.record(key, spec.label(), seconds)
            if self.on_cell_complete is not None:
                self.on_cell_complete(spec, key, result, seconds, False)

        try:
            self._simulate([spec for spec, _ in to_run], batch, checkpoint)
        finally:
            batch.timings.extend(
                (spec.label(), seconds_of[index])
                for index, (spec, _) in enumerate(to_run)
                if index in seconds_of
            )
            if cache is not None:
                batch.quarantined += cache.corrupt_evictions - evictions0
                batch.cache_write_failures += cache.write_failures - writefails0
            batch.wall_seconds = time.perf_counter() - t0
            self.stats.merge(batch)
        return results, batch

    def close(self, kill: bool = False) -> None:
        """Retire the executor: it simulates no cell after this, inline or
        on a pool, and raises ``RuntimeError`` instead.

        The persistent pool's workers are joined, or, with ``kill=True``,
        killed (an abandoned batch may still occupy them).  A closed
        executor still answers cache hits.
        """
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            self._kill_pool(pool)
        else:
            pool.shutdown(wait=True)

    def worker_pids(self) -> list[int]:
        """Pids of the persistent pool's live worker processes."""
        with self._pool_lock:
            pool = self._pool
        processes = getattr(pool, "_processes", None) or {}
        return sorted(
            pid for pid, proc in list(processes.items()) if proc.is_alive()
        )

    # ----------------------------------------------------------- simulation
    def _simulate(
        self,
        specs: Sequence[CellSpec],
        batch: SweepStats,
        checkpoint: Callable[[int, tuple[RunResult, float]], None],
    ) -> None:
        """Simulate ``specs``, handing each ``(index, (result, seconds))``
        to ``checkpoint`` as the cell completes."""
        if not specs:
            return
        with self._pool_lock:
            self._refuse_if_closed_locked()
        machine_dict = (
            machine_to_dict(self.machine) if self.machine is not None else None
        )
        if not self.isolate and (
            self.jobs == 1 or len(specs) == 1 or self._degraded
        ):
            for index, spec in enumerate(specs):
                outcome = self._run_inline(
                    spec, machine_dict, batch, degraded=self._degraded
                )
                checkpoint(index, outcome)
            return
        self._run_pool(specs, machine_dict, batch, checkpoint)

    @property
    def _degraded(self) -> bool:
        # An isolated executor never runs a cell in its caller's
        # interpreter; a cell that keeps killing workers fails instead.
        return (
            not self.isolate
            and self.pool_failures >= self.retry.pool_failure_limit
        )

    def _run_inline(
        self,
        spec: CellSpec,
        machine_dict: Optional[dict[str, Any]],
        batch: SweepStats,
        degraded: bool = False,
    ) -> tuple[RunResult, float]:
        """Run one cell in-process with exception retries (no timeout —
        a wall-clock limit cannot preempt our own process)."""
        policy = self.retry
        attempt = 1
        if degraded:
            batch.inline_cells += 1
        while True:
            try:
                return self.cell_fn(spec, machine_dict)
            except _NON_RETRYABLE:
                raise
            except Exception:
                if attempt >= policy.max_attempts:
                    raise
                batch.retries += 1
                if self.verbose:
                    print(
                        f"  retry      {spec.label()} "
                        f"(attempt {attempt + 1}/{policy.max_attempts})",
                        flush=True,
                    )
                time.sleep(policy.backoff_s(attempt, self._rng))
                attempt += 1

    def _new_pool(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(self.isolate,),
        )

    def _acquire_pool(self, workers: int) -> ProcessPoolExecutor:
        """The pool a batch runs on: a fresh one of ``workers`` processes
        per call or, isolated, the persistent pool of ``jobs`` processes
        (forked on first use, and again after a teardown)."""
        with self._pool_lock:
            self._refuse_if_closed_locked()
            if not self.isolate:
                return self._new_pool(workers)
            # A worker that died between batches leaves the pool broken.
            if self._pool is None or self._pool._broken:
                self._pool = self._new_pool(self.jobs)
            return self._pool

    def _refuse_if_closed_locked(self) -> None:
        if self._closed:
            raise RuntimeError("executor is closed: it simulates no more cells")

    def _discard_pool(self, pool: ProcessPoolExecutor) -> None:
        """Kill a hung, broken or abandoned pool and stop reusing it.

        A persistent pool that :meth:`close` has already taken is left to
        it, so each pool has exactly one killer.
        """
        with self._pool_lock:
            owned = not self.isolate or self._pool is pool
            if self._pool is pool:
                self._pool = None
        if owned:
            self._kill_pool(pool)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down hard — its workers may be hung or dead.

        SIGKILL, not SIGTERM: a worker forked an instant ago may not have
        reset the handlers it inherited yet (see :func:`_init_worker`).
        """
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.kill()
            except (OSError, ValueError):
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _run_pool(
        self,
        specs: Sequence[CellSpec],
        machine_dict: Optional[dict[str, Any]],
        batch: SweepStats,
        checkpoint: Callable[[int, tuple[RunResult, float]], None],
    ) -> None:
        """Resolve cells through a self-healing process pool.

        The work queue holds ``(index, attempt)`` flights, one cell each;
        a cell leaves it for good once its result is checkpointed, so a
        pool rebuild re-dispatches only the cells that were genuinely
        lost.
        """
        policy = self.retry
        queue: deque[tuple[int, int]] = deque(
            (index, 1) for index in range(len(specs))
        )
        workers = self.jobs if self.isolate else min(self.jobs, len(queue))
        pool: Optional[ProcessPoolExecutor] = self._acquire_pool(workers)
        inflight: dict[Future, _Flight] = {}
        next_seq = 0

        def submit_ready() -> None:
            nonlocal next_seq
            assert pool is not None
            while queue and len(inflight) < 2 * workers:
                index, attempt = queue.popleft()
                fut = pool.submit(self.cell_fn, specs[index], machine_dict)
                inflight[fut] = _Flight(index, specs[index], attempt, next_seq)
                next_seq += 1

        def arm_deadlines() -> None:
            """Start wall clocks for the flights that can actually be
            running.

            Up to ``2 * workers`` futures are submitted to keep workers
            fed, but only the ``workers`` oldest of them hold a worker at
            any instant (the pool dispatches FIFO).  Arming a deadline at
            submit time would charge queue wait against the cell's budget
            and let an oversubscribed sweep declare never-started cells
            overdue; arm at dispatch instead.
            """
            if policy.cell_timeout_s is None:
                return
            now = time.monotonic()
            running = sorted(inflight.values(), key=lambda f: f.seq)[:workers]
            for flight in running:
                if flight.deadline is None:
                    flight.deadline = now + policy.cell_timeout_s

        def requeue_inflight(overdue: set[Future], cause: str) -> None:
            """Return lost in-flight cells to the queue.

            Overdue (or crash-implicated) cells pay an attempt; innocent
            bystanders of the same pool teardown retry for free, with a
            fresh wall clock armed when the rebuilt pool dispatches them.
            """
            for fut, flight in sorted(
                inflight.items(), key=lambda item: item[1].index
            ):
                attempt = flight.attempt
                if fut in overdue:
                    if attempt >= policy.max_attempts:
                        if cause == "timeout":
                            raise TimeoutError(
                                f"cell {flight.spec.label()} exceeded "
                                f"{policy.cell_timeout_s}s wall-clock in each "
                                f"of {policy.max_attempts} attempts"
                            )
                        raise CellFailedError(
                            f"cell {flight.spec.label()} was in flight during "
                            f"a worker-pool crash in each of "
                            f"{policy.max_attempts} attempts; the cell is "
                            "likely killing its workers (e.g. OOM)"
                        )
                    attempt += 1
                queue.append((flight.index, attempt))
            inflight.clear()

        def teardown_and_recover(overdue: set[Future], cause: str) -> None:
            nonlocal pool
            assert pool is not None
            self._discard_pool(pool)
            pool = None
            self.pool_failures += 1
            batch.pool_crashes += 1
            requeue_inflight(overdue, cause)
            pool = None if self._degraded else self._acquire_pool(workers)
            if self.verbose:
                mode = "inline execution" if pool is None else "a fresh pool"
                print(f"  pool lost; re-dispatching {len(queue)} cells via {mode}",
                      flush=True)

        def failed_first(fut: Future) -> tuple[bool, int]:
            failed = fut.cancelled() or fut.exception() is not None
            return failed, inflight[fut].index

        completed = False
        try:
            while queue or inflight:
                if pool is None:
                    # Degraded: the pool kept dying — finish inline.
                    while queue:
                        index, _ = queue.popleft()
                        outcome = self._run_inline(
                            specs[index], machine_dict, batch, degraded=True
                        )
                        checkpoint(index, outcome)
                    break
                submit_ready()
                arm_deadlines()
                timeout: Optional[float] = None
                armed = [
                    f.deadline for f in inflight.values() if f.deadline is not None
                ]
                if armed:
                    timeout = max(0.0, min(armed) - time.monotonic())
                done, _ = wait(
                    set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
                )

                if not done:
                    # Deadline expired with nothing finished: some cell hung.
                    now = time.monotonic()
                    overdue = {
                        fut
                        for fut, flight in inflight.items()
                        if flight.deadline is not None and now >= flight.deadline
                    }
                    if not overdue:
                        continue
                    batch.timeouts += len(overdue)
                    if self.verbose:
                        for flight in sorted(
                            (inflight[fut] for fut in overdue),
                            key=lambda f: f.index,
                        ):
                            print(
                                f"  timeout    {flight.spec.label()} "
                                f"after {policy.cell_timeout_s}s",
                                flush=True,
                            )
                    teardown_and_recover(overdue, "timeout")
                    continue

                # Successes first, then failures, each in submission order:
                # the handling order is deterministic (``done`` is a set,
                # and retry backoff draws must not depend on hash order),
                # and a failure that ends the batch finds every cell that
                # arrived with it already checkpointed.
                for fut in sorted(done, key=failed_first):
                    flight = inflight.pop(fut)
                    try:
                        out = fut.result()
                    except BrokenProcessPool:
                        # A worker died (OOM kill, segfault).  Every other
                        # in-flight future is doomed too; implicate this one
                        # and rebuild.
                        inflight[fut] = flight
                        teardown_and_recover({fut}, "crash")
                        break
                    except _NON_RETRYABLE:
                        raise
                    except Exception:
                        if flight.attempt >= policy.max_attempts:
                            raise
                        batch.retries += 1
                        if self.verbose:
                            print(
                                f"  retry      {flight.spec.label()} (attempt "
                                f"{flight.attempt + 1}/{policy.max_attempts})",
                                flush=True,
                            )
                        time.sleep(policy.backoff_s(flight.attempt, self._rng))
                        queue.append((flight.index, flight.attempt + 1))
                        continue
                    checkpoint(flight.index, out)
            completed = True
        finally:
            if pool is not None and not self.isolate:
                # Joined on success: a per-call pool's teardown would
                # otherwise land on the caller's next work.
                pool.shutdown(wait=completed, cancel_futures=True)
            elif pool is not None and inflight:
                # An abandoned batch's cells would keep the persistent
                # workers busy, and their results would go nowhere.
                self._discard_pool(pool)
