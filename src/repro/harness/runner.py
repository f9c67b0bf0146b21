"""Experiment sweep driver.

Runs (workload × policy × fast-core-count) grids, normalizes against the
FIFO baseline of the same fast-core count, and returns both the raw
:class:`~repro.runtime.system.RunResult` objects and the figure-ready
:class:`~repro.analysis.metrics.NormalizedPoint` lists.

Results are memoized per (workload, policy, fast, scale, machine, seed)
within one :class:`GridRunner` — Figure 4 and Figure 5, which share the
CATA column, do not re-simulate shared cells — and independent cells fan
out across a process pool (``jobs``) with an optional persistent on-disk
cache (``cache_dir``) underneath the memo; see
:mod:`repro.harness.executor` and :mod:`repro.harness.cache`.
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence

import os

from ..analysis.metrics import NormalizedPoint, normalize
from ..runtime.system import RunResult
from ..sim.config import MachineConfig
from .cache import ResultCache
from .executor import CellSpec, RetryPolicy, SweepExecutor, SweepStats
from .journal import SweepJournal

__all__ = ["GridRunner", "GridResult"]

#: Fast-core counts of the paper's evaluation (8, 16, 24 of 32).
PAPER_FAST_COUNTS: tuple[int, ...] = (8, 16, 24)
#: Benchmark order of the paper's figures.
PAPER_WORKLOADS: tuple[str, ...] = (
    "blackscholes",
    "swaptions",
    "fluidanimate",
    "bodytrack",
    "dedup",
    "ferret",
)


class GridResult:
    """Raw and normalized results of one sweep.

    Points are keyed by ``(workload, policy, fast)`` — inserting the same
    cell twice (e.g. two ``run_grid`` calls merged, or FIFO baselines
    shared between figures) replaces rather than duplicates, and
    :meth:`point` is an O(1) lookup.
    """

    def __init__(self) -> None:
        self.results: dict[tuple[str, str, int], RunResult] = {}
        self._points: dict[tuple[str, str, int], NormalizedPoint] = {}
        #: Cell accounting of the ``run_grid`` call that produced this.
        self.stats: SweepStats = SweepStats()

    @property
    def points(self) -> list[NormalizedPoint]:
        return list(self._points.values())

    def add_point(self, p: NormalizedPoint) -> None:
        self._points[(p.workload, p.policy, p.fast_cores)] = p

    def result(self, workload: str, policy: str, fast: int) -> RunResult:
        return self.results[(workload, policy, fast)]

    def point(self, workload: str, policy: str, fast: int) -> NormalizedPoint:
        return self._points[(workload, policy, fast)]

    def to_csv(self) -> str:
        """Figure points as CSV (one row per bar) for external plotting."""
        lines = ["workload,policy,fast_cores,speedup,normalized_edp,exec_time_ns,energy_j"]
        for p in sorted(
            self.points, key=lambda p: (p.workload, p.fast_cores, p.policy)
        ):
            lines.append(
                f"{p.workload},{p.policy},{p.fast_cores},"
                f"{p.speedup:.6f},{p.normalized_edp:.6f},"
                f"{p.exec_time_ns:.1f},{p.energy_j:.6f}"
            )
        return "\n".join(lines)

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv() + "\n")


class GridRunner:
    """Memoizing sweep runner over a parallel, disk-cached executor."""

    def __init__(
        self,
        scale: float = 1.0,
        seed: int = 1,
        seeds: Optional[Sequence[int]] = None,
        machine: Optional[MachineConfig] = None,
        trace_enabled: bool = False,
        verbose: bool = False,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        faults: str = "off",
        retry: Optional[RetryPolicy] = None,
        cell_timeout_s: Optional[float] = None,
        arrivals: Optional[str] = None,
        tenants: Optional[str] = None,
    ) -> None:
        """``seeds`` enables multi-seed averaging: each grid cell is
        simulated once per seed and the normalized ratios are averaged
        (each seed produces a different random program instance, so this is
        the repeated-measurement average of the paper's methodology).

        ``jobs`` fans independent cells across that many worker processes;
        results are bitwise-identical to ``jobs=1``.  ``cache_dir`` backs
        the in-memory memo with a persistent on-disk result cache and a
        completion journal (``<cache_dir>/journal.jsonl``) so a killed
        sweep resumes re-simulating only the unfinished cells.

        ``faults`` injects deterministic machine faults into every cell
        (see :mod:`repro.sim.faults`); ``"off"`` keeps the machine
        pristine.  ``retry``/``cell_timeout_s`` tune crash recovery; a
        bare ``cell_timeout_s`` is shorthand for ``RetryPolicy`` with that
        wall-clock limit.

        ``arrivals`` switches every cell to open-loop admission: each
        workload runs as a single tenant under that arrival spec (e.g.
        ``"poisson(rate=0.25,jobs=4)"``).  ``tenants`` instead pins one
        full multi-tenant scenario spec for every cell (the per-cell
        workload becomes a display label).  Mutually exclusive.
        """
        if arrivals is not None and tenants is not None:
            raise ValueError("pass either arrivals= or tenants=, not both")
        self.arrivals = arrivals
        self._tenants_scenario: Optional[str] = None
        if tenants is not None:
            from ..workloads.scenario import parse_scenario

            self._tenants_scenario = parse_scenario(tenants).canonical()
        #: Per-workload canonicalized single-tenant scenario (arrivals mode).
        self._arrival_scenarios: dict[str, str] = {}
        self.scale = scale
        raw: tuple[int, ...] = tuple(seeds) if seeds is not None else (seed,)
        if not raw:
            raise ValueError(
                "at least one seed is required (seeds=() would make every "
                "per-seed average empty)"
            )
        deduped = tuple(dict.fromkeys(raw))
        if len(deduped) != len(raw):
            warnings.warn(
                f"duplicate seeds {raw} deduplicated to {deduped}; a repeated "
                "seed re-runs the identical simulation and would double-count "
                "it in per-seed averages",
                stacklevel=2,
            )
        self.seeds: tuple[int, ...] = deduped
        self.machine = machine
        self.trace_enabled = trace_enabled
        self.verbose = verbose
        self.faults = faults
        if retry is None and cell_timeout_s is not None:
            retry = RetryPolicy(cell_timeout_s=cell_timeout_s)
        self.executor = SweepExecutor(
            jobs=jobs,
            cache=ResultCache(cache_dir) if cache_dir is not None else None,
            machine=machine,
            verbose=verbose,
            retry=retry,
            journal=(
                SweepJournal(os.path.join(cache_dir, "journal.jsonl"))
                if cache_dir is not None
                else None
            ),
        )
        #: In-memory memo: cell spec -> result.  A read-through layer over
        #: the executor's disk cache.  Keyed by the spec itself, not its
        #: content address: scale is fixed per runner and the executor
        #: holds the machine, so within one runner the spec alone
        #: identifies a cell and a memo lookup derives no cell key.
        self._cache: dict[CellSpec, RunResult] = {}

    def close(self) -> None:
        """Release the executor's worker pool and close the completion
        journal.  The memo and the disk cache still answer afterwards."""
        self.executor.close()
        if self.executor.journal is not None:
            self.executor.journal.close()

    def __enter__(self) -> "GridRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def seed(self) -> int:
        return self.seeds[0]

    def _scenario_for(self, workload: str) -> str:
        if self._tenants_scenario is not None:
            return self._tenants_scenario
        if self.arrivals is None:
            return "off"
        cached = self._arrival_scenarios.get(workload)
        if cached is None:
            from ..workloads.scenario import parse_scenario

            cached = parse_scenario(f"{workload}@{self.arrivals}").canonical()
            self._arrival_scenarios[workload] = cached
        return cached

    def _spec(self, workload: str, policy: str, fast: int, seed: int) -> CellSpec:
        return CellSpec(
            workload=workload,
            policy=policy,
            fast=fast,
            seed=seed,
            scale=self.scale,
            trace_enabled=self.trace_enabled,
            faults=self.faults,
            scenario=self._scenario_for(workload),
        )

    def run_one(
        self, workload: str, policy: str, fast: int, seed: Optional[int] = None
    ) -> RunResult:
        if seed is None:
            seed = self.seeds[0]
        spec = self._spec(workload, policy, fast, seed)
        result = self._cache.get(spec)
        if result is None:
            results, _ = self.executor.run_cells([spec])
            result = self._cache[spec] = results[spec]
        return result

    def _prefetch(self, specs: Sequence[CellSpec]) -> SweepStats:
        """Resolve every spec into the memo, fanning misses out in one batch."""
        unique = list(dict.fromkeys(specs))
        missing = [s for s in unique if s not in self._cache]
        results, batch = self.executor.run_cells(missing)
        self._cache.update(results)
        stats = SweepStats(
            cells=len(unique),
            memo_hits=len(unique) - len(missing),
            cache_hits=batch.cache_hits,
            simulated=batch.simulated,
            sim_seconds=batch.sim_seconds,
            wall_seconds=batch.wall_seconds,
            resumed=batch.resumed,
            retries=batch.retries,
            timeouts=batch.timeouts,
            pool_crashes=batch.pool_crashes,
            inline_cells=batch.inline_cells,
            quarantined=batch.quarantined,
            cache_write_failures=batch.cache_write_failures,
            timings=list(batch.timings),
        )
        return stats

    def _mean_point(self, per_seed: Sequence[NormalizedPoint]) -> NormalizedPoint:
        if not per_seed:
            raise ValueError("cannot average an empty per-seed point list")
        n = len(per_seed)
        first = per_seed[0]
        return NormalizedPoint(
            workload=first.workload,
            policy=first.policy,
            fast_cores=first.fast_cores,
            speedup=sum(p.speedup for p in per_seed) / n,
            normalized_edp=sum(p.normalized_edp for p in per_seed) / n,
            exec_time_ns=sum(p.exec_time_ns for p in per_seed) / n,
            energy_j=sum(p.energy_j for p in per_seed) / n,
        )

    def run_grid(
        self,
        policies: Sequence[str],
        workloads: Sequence[str] = PAPER_WORKLOADS,
        fast_counts: Sequence[int] = PAPER_FAST_COUNTS,
    ) -> GridResult:
        """Run the full grid; FIFO baselines are always included.

        With multiple seeds, each returned point is the per-seed-normalized
        average; ``results`` keeps the first seed's raw runs.  All cells
        missing from the memo and disk cache are simulated up front in one
        parallel batch; ``GridResult.stats`` accounts for every cell.
        """
        grid = GridResult()
        ordered_policies = ["fifo"] + [p for p in policies if p != "fifo"]
        specs = [
            self._spec(workload, policy, fast, s)
            for workload in workloads
            for fast in fast_counts
            for policy in ordered_policies
            for s in self.seeds
        ]
        grid.stats = self._prefetch(specs)
        if self.verbose:
            print(grid.stats.summary(), flush=True)

        for workload in workloads:
            for fast in fast_counts:
                baselines = {
                    s: self.run_one(workload, "fifo", fast, s) for s in self.seeds
                }
                grid.results[(workload, "fifo", fast)] = baselines[self.seeds[0]]
                grid.add_point(
                    self._mean_point(
                        [normalize(b, b, fast) for b in baselines.values()]
                    )
                )
                for policy in ordered_policies:
                    if policy == "fifo":
                        continue
                    per_seed = []
                    for s in self.seeds:
                        result = self.run_one(workload, policy, fast, s)
                        per_seed.append(normalize(baselines[s], result, fast))
                    grid.results[(workload, policy, fast)] = self.run_one(
                        workload, policy, fast, self.seeds[0]
                    )
                    grid.add_point(self._mean_point(per_seed))
        return grid
