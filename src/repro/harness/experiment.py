"""Experiment registry — every reproducible artifact, addressable by id.

One descriptor per paper artifact (and per extension study), each knowing
how to run itself and render its result.  The CLI's ``experiments`` command
and external scripts drive reproduction through this table instead of
importing individual harness modules.  Sweep-backed experiments honor the
:class:`RunContext` parallelism (``jobs``) and persistent-cache
(``cache_dir``) settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .degradation import run_degradation
from .estimators import run_estimator_study
from .latency import run_latency
from .figure4 import run_figure4
from .figure5 import run_figure5
from .rsu_overhead import render_rsu_overhead, run_rsu_overhead
from .runner import GridRunner
from .scaling import render_scaling_study, run_scaling_study
from .section5c import render_section5c, run_section5c
from .table1 import render_table1

__all__ = [
    "Experiment",
    "EXPERIMENTS",
    "RunContext",
    "run_experiment",
    "list_experiments",
]


@dataclass(frozen=True)
class RunContext:
    """Execution settings shared by every sweep-backed experiment."""

    scale: float = 1.0
    seeds: tuple[int, ...] = (1, 2, 3)
    jobs: int = 1
    cache_dir: Optional[str] = None
    verbose: bool = False

    def runner(self, **overrides) -> GridRunner:
        """A runner for one experiment; use it as a context manager so
        its worker pool and journal are released when the run ends."""
        kwargs = dict(
            scale=self.scale,
            seeds=self.seeds,
            jobs=self.jobs,
            cache_dir=self.cache_dir,
            verbose=self.verbose,
        )
        kwargs.update(overrides)
        return GridRunner(**kwargs)


@dataclass(frozen=True)
class Experiment:
    """One regenerable artifact."""

    exp_id: str
    paper_artifact: str
    description: str
    #: context -> rendered text.  ``asserts`` names what is checked.
    run: Callable[[RunContext], str]
    asserts: str = ""


def _table1(ctx: RunContext) -> str:
    return render_table1()


def _figure4(ctx: RunContext) -> str:
    with ctx.runner() as runner:
        return run_figure4(runner).render()


def _figure5(ctx: RunContext) -> str:
    with ctx.runner() as runner:
        return run_figure5(runner).render()


def _section5c(ctx: RunContext) -> str:
    with ctx.runner(seeds=ctx.seeds[:1], trace_enabled=True) as runner:
        return render_section5c(run_section5c(runner, fast_cores=16))


def _rsu(ctx: RunContext) -> str:
    return render_rsu_overhead(run_rsu_overhead())


def _estimators(ctx: RunContext) -> str:
    with ctx.runner() as runner:
        return run_estimator_study(runner).render()


def _degradation(ctx: RunContext) -> str:
    return run_degradation(
        seed=ctx.seeds[0],
        scale=ctx.scale * 0.3,
        jobs=ctx.jobs,
        cache_dir=ctx.cache_dir,
        verbose=ctx.verbose,
    ).render()


def _latency(ctx: RunContext) -> str:
    return run_latency(
        seed=ctx.seeds[0],
        scale=ctx.scale * 0.3,
        jobs=ctx.jobs,
        cache_dir=ctx.cache_dir,
        verbose=ctx.verbose,
    ).render()


def _scaling(ctx: RunContext) -> str:
    rows = run_scaling_study(base_scale=ctx.scale * 0.7, seeds=ctx.seeds)
    return render_scaling_study(rows, "fluidanimate")


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        exp_id="table1",
        paper_artifact="Table I",
        description="Processor configuration of the simulated machine",
        run=_table1,
        asserts="row-for-row transcription of the paper's table",
    ),
    Experiment(
        exp_id="figure4",
        paper_artifact="Figure 4",
        description="FIFO / CATS+BL / CATS+SA / CATA speedup and EDP",
        run=_figure4,
        asserts="18 Section V-A/V-B shape claims",
    ),
    Experiment(
        exp_id="figure5",
        paper_artifact="Figure 5",
        description="CATA / CATA+RSU / TurboMode speedup and EDP",
        run=_figure5,
        asserts="12 Section V-C/V-D shape claims",
    ),
    Experiment(
        exp_id="section5c",
        paper_artifact="Section V-C (in-text)",
        description="Software reconfiguration latency and lock contention",
        run=_section5c,
        asserts="latency band, overhead fraction, bursty-app worst cases",
    ),
    Experiment(
        exp_id="rsu-overhead",
        paper_artifact="Section III-B.4 (in-text)",
        description="RSU storage/area/power overhead",
        run=_rsu,
        asserts="103 bits; <0.0001% area; <50 uW at 32 cores",
    ),
    Experiment(
        exp_id="estimators",
        paper_artifact="Section II-B / V-A (extension)",
        description="BL vs duration-weighted BL vs static annotations",
        run=_estimators,
        asserts="WBL >= BL on average; fixes the duration-blindness limitation",
    ),
    Experiment(
        exp_id="degradation",
        paper_artifact="Section VI related work (extension)",
        description="Policy slowdown under injected machine faults",
        run=_degradation,
        asserts="deterministic chaos ladder; per-policy graceful degradation",
    ),
    Experiment(
        exp_id="latency",
        paper_artifact="Section VI related work (extension)",
        description="Tail latency and QoS under open-loop multi-tenant arrivals",
        run=_latency,
        asserts="deterministic p50/p95/p99 and QoS-violation tables per policy",
    ),
    Experiment(
        exp_id="scaling",
        paper_artifact="Abstract (extension)",
        description="Software vs hardware reconfiguration cost vs core count",
        run=_scaling,
        asserts="lock waits grow with cores; RSU advantage persists",
    ),
)


def list_experiments() -> list[Experiment]:
    return list(EXPERIMENTS)


def run_experiment(
    exp_id: str,
    scale: float = 1.0,
    seeds: Optional[tuple[int, ...]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    verbose: bool = False,
) -> str:
    """Run one experiment by id and return its rendered artifact."""
    ctx = RunContext(
        scale=scale,
        seeds=seeds if seeds is not None else (1, 2, 3),
        jobs=jobs,
        cache_dir=cache_dir,
        verbose=verbose,
    )
    for exp in EXPERIMENTS:
        if exp.exp_id == exp_id:
            return exp.run(ctx)
    known = ", ".join(e.exp_id for e in EXPERIMENTS)
    raise ValueError(f"unknown experiment {exp_id!r}; known: {known}")
