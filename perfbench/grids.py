"""``paper_grid`` and ``trace_grid``: cold then warm sweeps through GridRunner.

A *round* takes one simulation seed and

1. resolves the whole grid into an empty on-disk cache with one fresh
   runner and one ``run_grid`` call, so one process pool serves every
   cell, as ``repro figure4``/``figure5`` run it (the *cold pass*: every
   cell simulated; ``cold_cells_per_s`` and the pool's overhead come
   from it);
2. repeats the grid ``WARM_PASSES`` times on that cache as *jobs*: one
   ``run_grid`` call by a fresh runner per benchmark (all its fast-core
   counts and policies), as a user asking for that benchmark's bars
   waits on it (warm: nothing simulated);
3. resolves the same per-benchmark jobs into a second empty cache, for
   the cold job latencies (the span run skips this step).

``paper_grid`` ends every pass with the Figure 4 and Figure 5 shape
checks.  Rounds repeat until the run has lasted ``--seconds`` and holds
enough jobs for its tail percentiles.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import measure
from measure import Checker, cell_label
from repro.core.policies import POLICIES
from repro.harness.runner import PAPER_WORKLOADS as BENCHMARKS
from spans import Recorder, instrument, layer_table, maybe_span

#: Warm passes per round over the round's jobs.
WARM_PASSES = 2
#: Sweeps fan out over this many worker processes (sized for two cores).
JOBS = 2
#: Jobs needed for a nearest-rank p90 (p95) with ten samples beyond it.
MIN_COLD_JOBS = 100
MIN_WARM_JOBS = 200


@dataclass(frozen=True)
class GridConfig:
    policies: tuple[str, ...]
    fast: tuple[int, ...]
    scale: float
    trace: bool
    #: Figure 4/5 shape checks at the end of every pass.
    shape: bool
    #: Every simulation seed a run at a workload seed can use; round ``k``
    #: takes entry ``k`` modulo its length.
    all_seeds: Callable[[int], list[int]]


# Work per cell differs between simulation seeds (the traced grid's results
# are up to a fifth larger at some seeds than at most), so a run cycles over
# twelve of them: with fewer, the seeds drawn decide a run's figures.
def _paper_pool(seed: int) -> list[int]:
    return random.Random(seed).sample(range(1, 1000), 12)


def _trace_pool(seed: int) -> list[int]:
    # Simulation seed 1 is the golden grid's.
    return [1] + random.Random(seed).sample(range(2, 1000), 11)


CONFIGS = {
    "paper_grid": GridConfig(
        policies=POLICIES,  # Figure 4 and Figure 5 together
        fast=(8, 16, 24),
        scale=0.1,
        trace=False,
        shape=True,
        all_seeds=_paper_pool,
    ),
    "trace_grid": GridConfig(
        policies=("cata", "cats_bl"),
        fast=(8,),
        scale=0.3,
        trace=True,
        shape=False,
        all_seeds=_trace_pool,
    ),
}


def _policies(cfg: GridConfig) -> list[str]:
    return ["fifo"] + [p for p in cfg.policies if p != "fifo"]


def reference_specs(name: str, seed: int) -> list[tuple[str, Any]]:
    """Every cell a run at ``seed`` resolves, as ``(label, CellSpec)``."""
    from repro.harness.executor import CellSpec

    cfg = CONFIGS[name]
    return [
        (cell_label(b, p, f, s, cfg.scale, cfg.trace),
         CellSpec(b, p, f, s, cfg.scale, trace_enabled=cfg.trace))
        for s in cfg.all_seeds(seed)
        for b in BENCHMARKS
        for f in cfg.fast
        for p in _policies(cfg)
    ]


def golden_refs(cfg: GridConfig) -> dict[str, str]:
    """Golden fingerprints (``tests/golden``), keyed like our cells."""
    if not cfg.trace:
        return {}
    with open(measure.GOLDEN_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["scale"] != cfg.scale or doc["fast_cores"] not in cfg.fast:
        return {}
    out = {}
    for name, cell in doc["cells"].items():
        bench, policy = name.split("/")
        label = cell_label(bench, policy, doc["fast_cores"], doc["seed"], cfg.scale, True)
        out[label] = cell["sha256"]
    return out


@dataclass
class Phase:
    """Timings of one kind of job summed over rounds."""

    latencies: list[float] = field(default_factory=list)
    #: Per job: cells per second (0 for a failed job).
    rates: list[float] = field(default_factory=list)
    cells: int = 0
    failed_cells: int = 0
    seconds: float = 0.0
    sim_seconds: float = 0.0
    run_cells_seconds: float = 0.0
    retries: int = 0


class GridLoad:
    def __init__(self, name: str, seed: int, checker: Checker, jobs: int,
                 benchmarks: tuple[str, ...] = BENCHMARKS,
                 seeds: Optional[list[int]] = None, cold_jobs: bool = True) -> None:
        self.name = name
        self.cfg = CONFIGS[name]
        self.seed = seed
        #: Fixed simulation seeds for every round (self-test, warm-up).
        self.seeds = seeds
        self.benchmarks = benchmarks
        self.checker = checker
        self.jobs = jobs
        #: Whole-grid cold passes, one per round.
        self.cold = Phase()
        #: Per-benchmark warm jobs.
        self.warm = Phase()
        #: Per-benchmark cold jobs (step 3 of a round), when ``cold_jobs``.
        self.cold_jobs = Phase() if cold_jobs else None
        self.rounds = 0
        #: Per round and phase: (cells, seconds, jobs).
        self.per_round: list[dict[str, tuple[int, float, int]]] = []
        #: Shape-check verdicts per seed list, from the first pass.
        self._shapes: dict[tuple[int, ...], Any] = {}
        self.rec: Optional[Recorder] = None

    def _phases(self) -> dict[str, Phase]:
        out = {"cold": self.cold, "warm": self.warm}
        if self.cold_jobs is not None:
            out["cold_jobs"] = self.cold_jobs
        return out

    # ------------------------------------------------------------- one job
    def _job(self, phase: Phase, cache_dir: str, seeds: list[int],
             benches: tuple[str, ...], points: list) -> None:
        """One fresh runner's ``run_grid`` over ``benches``; ``points``
        gathers a pass's points for the shape checks."""
        from repro.analysis.validate import check_figure4_shape, check_figure5_shape
        from repro.harness.runner import GridRunner

        cfg = self.cfg
        warm = phase is self.warm
        what = benches[0] if len(benches) == 1 else "grid"
        op = f"{'warm' if warm else 'cold'}:{what}:s{'+'.join(map(str, seeds))}"
        shape = None
        t0 = time.perf_counter()
        try:
            with maybe_span(self.rec, "job", op):
                runner = GridRunner(
                    scale=cfg.scale, seeds=seeds, trace_enabled=cfg.trace,
                    jobs=self.jobs, cache_dir=cache_dir,
                )
                grid = runner.run_grid(cfg.policies, workloads=benches, fast_counts=cfg.fast)
                points.extend(grid.points)
                if cfg.shape and benches[-1] == BENCHMARKS[-1]:
                    with maybe_span(self.rec, "analysis.shape"):
                        shape = (
                            tuple(check_figure4_shape(points).violations),
                            tuple(check_figure5_shape(points).violations),
                        )
        except Exception as exc:  # one broken job must not hide the rest
            n = len(benches) * len(cfg.fast) * len(_policies(cfg)) * len(seeds)
            phase.latencies.append(float("inf"))
            phase.rates.append(0.0)
            phase.cells += n
            phase.failed_cells += n
            self.checker.fail(f"{op}: {type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - t0
        stats = grid.stats
        phase.latencies.append(elapsed)
        phase.rates.append(stats.cells / elapsed)
        phase.seconds += elapsed
        phase.cells += stats.cells
        phase.sim_seconds += stats.sim_seconds
        phase.run_cells_seconds += stats.wall_seconds
        phase.retries += stats.retries
        # Output checks, outside the timed region.
        bad = 0
        if warm and stats.simulated:
            self.checker.fail(f"{op}: warm job simulated {stats.simulated} cells")
            bad = stats.simulated
        if not warm and stats.simulated != stats.cells:
            self.checker.fail(f"{op}: cold job found {stats.cache_hits} cells cached")
            bad = stats.cells - stats.simulated
        for bench in benches:
            for s in seeds:
                for f in cfg.fast:
                    for p in _policies(cfg):
                        result = runner.run_one(bench, p, f, s)  # memo hit
                        label = cell_label(bench, p, f, s, cfg.scale, cfg.trace)
                        if not self.checker.check(label, measure.fingerprint(result)):
                            bad += 1
        if shape is not None:
            first = self._shapes.setdefault(tuple(seeds), shape)
            if first != shape:
                self.checker.fail(f"{op}: shape verdicts differ from the first pass")
                bad += 1
        phase.failed_cells += min(bad, stats.cells)

    # ----------------------------------------------------------- one round
    def round(self) -> None:
        k = self.rounds
        self.rounds += 1
        pool = self.cfg.all_seeds(self.seed)
        seeds = self.seeds or [pool[k % len(pool)]]
        before = self._totals()
        cache_dir = measure.fresh_dir("cache", f"{self.name}-{id(self)}-{k}")
        self._job(self.cold, cache_dir, seeds, self.benchmarks, [])
        for _ in range(WARM_PASSES):
            points: list = []
            for bench in self.benchmarks:
                self._job(self.warm, cache_dir, seeds, (bench,), points)
        shutil.rmtree(cache_dir, ignore_errors=True)
        if self.cold_jobs is not None:
            cache_dir = measure.fresh_dir("cache", f"{self.name}-{id(self)}-{k}-jobs")
            points = []
            for bench in self.benchmarks:
                self._job(self.cold_jobs, cache_dir, seeds, (bench,), points)
            shutil.rmtree(cache_dir, ignore_errors=True)
        after = self._totals()
        self.per_round.append({
            name: tuple(a - b for a, b in zip(after[name], before[name]))  # type: ignore[misc]
            for name in after
        })

    def _totals(self) -> dict[str, tuple[int, float, int]]:
        return {name: (ph.cells, ph.seconds, len(ph.latencies))
                for name, ph in self._phases().items()}

    def warm_up(self) -> None:
        """One round of one benchmark at a seed outside the run, so lazy
        first-use costs (imports, the first pool) are always paid here and
        never inside a timed job."""
        GridLoad(self.name, 0, Checker({}), self.jobs, ("swaptions",), seeds=[0],
                 cold_jobs=self.cold_jobs is not None).round()

    # ------------------------------------------------------------- metrics
    def e2e(self) -> dict[str, float]:
        """``cold_cells_per_s`` and ``jobs_per_s`` are medians over rounds;
        ``warm_cells_per_s`` and the latency percentiles are over every job
        of the run (cold: the per-benchmark cold jobs), the warm ones read
        at the host's slow speed (:func:`measure.warm_rate`)."""
        rounds = [r for r in self.per_round if r["cold"][1] > 0 and r["warm"][1] > 0]

        def jobs_per_s(r: dict[str, tuple[int, float, int]]) -> float:
            return sum(v[2] for v in r.values()) / sum(v[1] for v in r.values())

        cold = self.cold_jobs.latencies if self.cold_jobs is not None else []
        warm = self.warm.latencies
        return {
            "cold_cells_per_s": measure.median(r["cold"][0] / r["cold"][1] for r in rounds),
            "warm_cells_per_s": measure.warm_rate(self.warm.rates),
            "jobs_per_s": measure.median(jobs_per_s(r) for r in rounds),
            "warm_job_p90_ms": 1e3 * measure.percentile(warm, 90),
            "warm_job_p95_ms": 1e3 * measure.percentile(warm, 95),
            "cold_job_p50_ms": 1e3 * measure.percentile(cold, 50),
            "cold_job_p90_ms": 1e3 * measure.percentile(cold, 90),
        }

    def samples(self) -> dict[str, int]:
        cold = len(self.cold_jobs.latencies) if self.cold_jobs is not None else 0
        warm = len(self.warm.latencies)
        return {"warm_job_p90_ms": warm, "warm_job_p95_ms": warm,
                "cold_job_p50_ms": cold, "cold_job_p90_ms": cold}

    @property
    def wall(self) -> float:
        return sum(ph.seconds for ph in self._phases().values())

    @property
    def attempted(self) -> int:
        return sum(ph.cells for ph in self._phases().values())

    @property
    def failed(self) -> int:
        return sum(ph.failed_cells for ph in self._phases().values())


def measure_e2e(name: str, seed: int, seconds: float, checker: Checker,
                min_cold: int = MIN_COLD_JOBS, min_warm: int = MIN_WARM_JOBS,
                benchmarks: tuple[str, ...] = BENCHMARKS,
                seeds: Optional[list[int]] = None,
                between_rounds: Callable[[int], None] = lambda k: None) -> GridLoad:
    """Untraced rounds until ``seconds`` of them have passed and the tails
    have enough samples.  ``between_rounds(k)`` runs after round ``k``,
    outside every timing."""
    load = GridLoad(name, seed, checker, JOBS, benchmarks, seeds)
    load.warm_up()
    while True:
        load.round()
        between_rounds(load.rounds - 1)
        if (
            load.wall >= seconds
            and len(load.cold_jobs.latencies) >= min_cold
            and len(load.warm.latencies) >= min_warm
        ):
            return load


def measure_layers(name: str, seed: int, checker: Checker,
                   benchmarks: tuple[str, ...] = BENCHMARKS,
                   seeds: Optional[list[int]] = None) -> dict[str, Any]:
    """The span run.  One round with the pool (for the pool's share of the
    cold pass's wall), one inline untraced round (the tracing-overhead
    baseline) and one inline round with spans; every count is fixed by the
    seed.  None of them makes the per-benchmark cold jobs, so the cold
    phase is the whole-grid cold pass alone."""
    pooled = GridLoad(name, seed, checker, JOBS, benchmarks, seeds, cold_jobs=False)
    pooled.warm_up()
    pooled.round()
    inline = GridLoad(name, seed, checker, 1, benchmarks, seeds, cold_jobs=False)
    inline.warm_up()
    inline.round()
    traced = GridLoad(name, seed, checker, 1, benchmarks, seeds, cold_jobs=False)
    rec = Recorder()
    with instrument(rec):
        traced.warm_up()
        rec.spans.clear()
        rec.counts.clear()
        traced.rec = rec
        traced.round()
    return {
        "rec": rec,
        "wall": traced.wall,
        "pooled": pooled,
        "inline": inline,
        "traced": traced,
        # Untraced cold-pass wall x jobs - summed per-cell seconds (SweepStats).
        "pool_overhead_s": pooled.cold.run_cells_seconds * JOBS - pooled.cold.sim_seconds,
        "retries": sum(ph.retries for x in (pooled, inline, traced)
                       for ph in x._phases().values()),
        "table": layer_table(rec, traced.wall),
        "tables": {
            "cold": layer_table(rec, traced.cold.seconds, "cold:"),
            "warm": layer_table(rec, traced.warm.seconds, "warm:"),
        },
        "overhead_ratio": traced.wall / inline.wall - 1.0,
    }


def layer_metrics(res: dict[str, Any]) -> dict[str, float]:
    rec: Recorder = res["rec"]
    self_t = {k: v[0] for k, v in rec.self_times().items()}
    c = rec.counts

    def ratio(phase: str) -> float:
        hits = c.get(f"{phase}.cache_hits", 0)
        lookups = hits + c.get(f"{phase}.cache_misses", 0)
        return hits / lookups if lookups else 0.0

    sim_run = rec.total("sim.run")
    return {
        "workloads.build_s": self_t.get("workloads.build", 0.0),
        "workloads.tasks": c.get("workloads.tasks", 0),
        "core.build_system_s": self_t.get("core.build_system", 0.0),
        "sim.run_s": self_t.get("sim.run", 0.0),
        "sim.events": c.get("sim.events", 0),
        "sim.events_per_s": c.get("sim.events", 0) / sim_run if sim_run else 0.0,
        "runtime.bl_edges": c.get("runtime.bl_edges", 0),
        "runtime.tasks_executed": c.get("runtime.tasks_executed", 0),
        "sim.reconfigs": c.get("sim.reconfigs", 0),
        "sim.freq_transitions": c.get("sim.freq_transitions", 0),
        "sim.cpufreq_writes": c.get("sim.cpufreq_writes", 0),
        "sim.runs_warm": c.get("warm.sim.runs", 0),
        "sim.serialize_s": self_t.get("sim.serialize", 0.0),
        "sim.result_bytes": c.get("sim.result_bytes", 0),
        "sim.deserialize_s": self_t.get("sim.deserialize", 0.0),
        "harness.executor_s": self_t.get("harness.executor", 0.0),
        "harness.cache_put_s": self_t.get("harness.cache_put", 0.0),
        "harness.cache_get_s": self_t.get("harness.cache_get", 0.0),
        "harness.cache_hits": c.get("harness.cache_hits", 0),
        "harness.cache_misses": c.get("harness.cache_misses", 0),
        "harness.cache_hit_ratio_cold": ratio("cold"),
        "harness.cache_hit_ratio_warm": ratio("warm"),
        "harness.journal_s": self_t.get("harness.journal", 0.0),
        "harness.pool_overhead_s": res["pool_overhead_s"],
        "harness.retries": res["retries"],
        "harness.runner_s": self_t.get("harness.runner", 0.0),
        "analysis.shape_s": self_t.get("analysis.shape", 0.0),
        "span.wall_s": res["wall"],
        "span.unaccounted_s": res["table"][-1][1],
        "span.overhead_ratio": res["overhead_ratio"],
    }
