"""Command-line interface.

``python -m repro <command>`` drives everything a user needs without
writing code:

=============  =============================================================
``list``       available benchmarks and policies
``characterize``  structural statistics of the benchmark suite
``table1``     print Table I (the simulated machine)
``run``        simulate one benchmark under one policy; optional timeline,
               energy breakdown, Chrome-trace export and fault injection
``sweep``      compare policies across power budgets on one benchmark
``latency``    tail latency / QoS under open-loop multi-tenant arrivals
``degradation``  policy slowdown under deterministic chaos fault ladders
``figure4``    regenerate Figure 4 (speedup + EDP panels, shape checks)
``figure5``    regenerate Figure 5
``section5c``  reconfiguration/lock statistics (Section V-C)
``rsu``        RSU area/power overhead (Section III-B.4)
``perf``       simulator performance benchmarks; appends a run record to
               ``BENCH_history.jsonl``, ``--check`` gates on regressions
               vs the committed baselines, ``--update`` rewrites them
``check``      unified static analysis (lint + TDG) with SARIF output
``lint``       AST determinism linter over the source tree
``analyze-tdg``  static race/deadlock analysis of workload task graphs
``serve``      persistent sweep daemon (HTTP/JSON job queue over the
               resumable executor); see ``docs/service.md``
``submit``     submit a sweep grid to a running daemon
``status``     progress of a submitted job (``--wait`` long-polls)
``fetch``      results of a finished job, with SHA-256 fingerprints
``drain``      gracefully drain a running daemon (stop admissions, finish
               in-flight work, checkpoint, exit)
=============  =============================================================

``run --sanitize`` attaches the sim-sanitizer (runtime invariant checks,
byte-identical output); see ``docs/static-analysis.md``.  ``run --faults``
injects deterministic machine faults (``core_fail@1.5ms:c3;...`` or
``chaos:intensity=0.5``); see ``docs/robustness.md``.

The sweep-backed commands (``sweep``/``figure4``/``figure5``/
``experiments``) accept ``--jobs N`` to fan independent grid cells across
worker processes (bitwise-identical results), ``--cache-dir PATH`` for a
persistent on-disk result cache, and ``--verbose`` for per-cell timing and
cache hit/miss reporting; see ``docs/parallel.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis import render_table, render_timeline
from .analysis.export import export_chrome_trace
from .core.policies import EXTRA_POLICIES, POLICIES, build_system, run_policy
from .harness import (
    GridRunner,
    render_rsu_overhead,
    render_section5c,
    render_table1,
    run_figure4,
    run_figure5,
    run_rsu_overhead,
    run_section5c,
)
from .workloads import BENCHMARKS, build_program, characterization_rows, characterize

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'CATA: Criticality Aware Task "
        "Acceleration for Multicore Processors' (IPDPS 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list benchmarks and policies")
    p_list.add_argument("--json", action="store_true",
                        help="machine-readable JSON: benchmarks, policies, "
                        "arrival kinds and experiments")
    sub.add_parser("table1", help="print Table I (machine configuration)")

    p_run = sub.add_parser("run", help="simulate one benchmark under one policy")
    p_run.add_argument("benchmark", choices=sorted(BENCHMARKS))
    p_run.add_argument("--policy", default="cata", choices=POLICIES + EXTRA_POLICIES)
    p_run.add_argument("--fast", type=int, default=8, help="fast cores / budget")
    p_run.add_argument("--scale", type=float, default=0.5)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--baseline", action="store_true",
                       help="also run FIFO and report speedup / normalized EDP")
    p_run.add_argument("--sanitize", action="store_true",
                       help="enable runtime invariant checks (sim-sanitizer); "
                       "output is unchanged, violations raise")
    p_run.add_argument("--faults", default="off", metavar="SPEC",
                       help="deterministic fault injection: 'kind@time:cN' "
                       "clauses joined by ';' (core_fail/task_abort/"
                       "dvfs_stuck/rsu_off/rsu_on) or "
                       "'chaos:intensity=0.5[,horizon=4ms]'; default off")
    p_run.add_argument("--timeline", action="store_true",
                       help="print an ASCII core-by-time timeline")
    p_run.add_argument("--breakdown", action="store_true",
                       help="print the per-state energy breakdown")
    p_run.add_argument("--export-trace", metavar="FILE",
                       help="write a Chrome/Perfetto trace JSON")
    p_run.add_argument("--export-paraver", metavar="BASENAME",
                       help="write Paraver .prv/.pcf trace files")
    p_run.add_argument("--arrivals", default=None, metavar="SPEC",
                       help="open-loop admission: run the benchmark as one "
                       "tenant under this arrival spec, e.g. "
                       "'poisson(rate=0.5,jobs=4)' or "
                       "'mmpp(rate=0.4,burst=8,dwell=2,jobs=4)'")
    p_run.add_argument("--tenants", default=None, metavar="SPEC",
                       help="full multi-tenant scenario "
                       "('[name:]bench@kind(...)[@qos=12ms]' joined by '+'); "
                       "overrides the benchmark argument")

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    def add_executor_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                       help="worker processes for independent grid cells "
                       "(results are identical to --jobs 1)")
        p.add_argument("--cache-dir", metavar="PATH", default=None,
                       help="persistent on-disk result cache directory")
        p.add_argument("--verbose", action="store_true",
                       help="per-cell timing and cache hit/miss reporting")

    def add_resilience_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--retries", type=positive_int, default=3, metavar="N",
                       help="attempts per cell before giving up "
                       "(crashed/timed-out cells are re-dispatched)")
        p.add_argument("--cell-timeout", type=float, default=None, metavar="SEC",
                       help="per-cell wall-clock limit in seconds; a stuck "
                       "worker pool is torn down and rebuilt")

    p_sweep = sub.add_parser("sweep", help="compare policies across budgets")
    p_sweep.add_argument("benchmark", choices=sorted(BENCHMARKS))
    p_sweep.add_argument("--policies", nargs="+", default=["cats_sa", "cata", "cata_rsu"],
                         choices=POLICIES + EXTRA_POLICIES)
    p_sweep.add_argument("--budgets", nargs="+", type=int, default=[8, 16, 24])
    p_sweep.add_argument("--scale", type=float, default=0.5)
    p_sweep.add_argument("--seed", type=int, default=1)
    p_sweep.add_argument("--faults", default="off", metavar="SPEC",
                         help="fault spec applied to every cell (see run "
                         "--faults); changes the cache key")
    p_sweep.add_argument("--arrivals", default=None, metavar="SPEC",
                         help="open-loop admission for every cell (see run "
                         "--arrivals); changes the cache key")
    p_sweep.add_argument("--tenants", default=None, metavar="SPEC",
                         help="multi-tenant scenario pinned for every cell "
                         "(the benchmark becomes a display label)")
    add_executor_flags(p_sweep)
    add_resilience_flags(p_sweep)

    p_lat = sub.add_parser(
        "latency", help="tail latency / QoS under open-loop arrivals"
    )
    p_lat.add_argument("--tenants", default=None, metavar="SPEC",
                       help="multi-tenant scenario spec (default: the "
                       "two-tenant web+batch study scenario)")
    p_lat.add_argument("--policies", nargs="+", default=None,
                       choices=POLICIES + EXTRA_POLICIES,
                       help="default: fifo cats_sa cata cata_rsu")
    p_lat.add_argument("--intensities", nargs="+", type=float, default=None,
                       help="arrival-rate multipliers (default: 0.5 1.0 2.0)")
    p_lat.add_argument("--fast", type=int, default=8)
    p_lat.add_argument("--seed", type=int, default=1)
    p_lat.add_argument("--scale", type=float, default=0.3)
    p_lat.add_argument("--smoke", action="store_true",
                       help="tiny scenario, two policies, one intensity "
                       "(CI mode)")
    p_lat.add_argument("--csv", metavar="FILE", default=None,
                       help="also write the study rows as CSV")
    add_executor_flags(p_lat)
    add_resilience_flags(p_lat)

    for name, help_text in (
        ("figure4", "regenerate Figure 4"),
        ("figure5", "regenerate Figure 5"),
    ):
        p_fig = sub.add_parser(name, help=help_text)
        p_fig.add_argument("--scale", type=float, default=1.0)
        p_fig.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
        p_fig.add_argument("--fast", nargs="+", type=int, default=[8, 16, 24])
        p_fig.add_argument("--csv", metavar="FILE", default=None,
                           help="also write the figure points as CSV")
        add_executor_flags(p_fig)
        add_resilience_flags(p_fig)

    p_deg = sub.add_parser(
        "degradation", help="policy slowdown under injected machine faults"
    )
    p_deg.add_argument("--workloads", nargs="+", default=None,
                       choices=sorted(BENCHMARKS),
                       help="default: swaptions fluidanimate")
    p_deg.add_argument("--policies", nargs="+", default=None,
                       choices=POLICIES + EXTRA_POLICIES,
                       help="default: fifo cats_sa turbomode cata cata_rsu")
    p_deg.add_argument("--intensities", nargs="+", type=float, default=None,
                       help="chaos intensity ladder (default: 0 0.25 0.5 1.0)")
    p_deg.add_argument("--fast", type=int, default=8)
    p_deg.add_argument("--scale", type=float, default=0.3)
    p_deg.add_argument("--seed", type=int, default=1)
    p_deg.add_argument("--csv", metavar="FILE", default=None,
                       help="also write the study rows as CSV")
    add_executor_flags(p_deg)

    p_5c = sub.add_parser("section5c", help="Section V-C reconfiguration statistics")
    p_5c.add_argument("--scale", type=float, default=1.0)
    p_5c.add_argument("--fast", type=int, default=16)

    p_char = sub.add_parser(
        "characterize", help="structural statistics of the benchmark suite"
    )
    p_char.add_argument("--scale", type=float, default=1.0)
    p_char.add_argument("--seed", type=int, default=1)

    p_exp = sub.add_parser(
        "experiments", help="list reproducible artifacts, or run one by id"
    )
    p_exp.add_argument("exp_id", nargs="?", help="experiment id to run")
    p_exp.add_argument("--scale", type=float, default=1.0)
    p_exp.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    add_executor_flags(p_exp)

    from .service.client import DEFAULT_URL
    from .service.protocol import DEFAULT_CLIENT, DEFAULT_HOST, DEFAULT_PORT

    p_serve = sub.add_parser(
        "serve", help="run the persistent sweep service daemon"
    )
    p_serve.add_argument("--host", default=DEFAULT_HOST)
    p_serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                         help=f"TCP port (default {DEFAULT_PORT}; 0 picks a "
                         "free one, announced on stdout and in "
                         "<state-dir>/endpoint.json)")
    p_serve.add_argument("--state-dir", default=".repro-service",
                         metavar="PATH",
                         help="result cache, journal and job log; the daemon "
                         "resumes everything in here after a restart")
    p_serve.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                         help="worker processes of the simulation tier")
    p_serve.add_argument("--default-share", type=positive_int, default=2,
                         metavar="N",
                         help="concurrency share of unconfigured clients")
    p_serve.add_argument("--share", action="append", default=[],
                         metavar="CLIENT=N",
                         help="per-client concurrency share (repeatable)")
    p_serve.add_argument("--verbose", action="store_true",
                         help="per-cell executor logging")
    p_serve.add_argument("--max-queue", type=positive_int, default=512,
                         metavar="N",
                         help="soft queue-depth bound: past it, "
                         "low-criticality submissions are shed (429)")
    p_serve.add_argument("--hard-queue", type=positive_int, default=2048,
                         metavar="N",
                         help="hard queue-depth ceiling: past it, every "
                         "submission is shed regardless of criticality")
    p_serve.add_argument("--max-inflight", type=positive_int, default=4096,
                         metavar="N",
                         help="per-client cap on unresolved cells")
    p_serve.add_argument("--shed-seed", type=int, default=0, metavar="SEED",
                         help="seed of the deterministic shed decision")
    p_serve.add_argument("--drain-grace", type=float, default=30.0,
                         metavar="SEC",
                         help="graceful-drain deadline for SIGTERM / "
                         "POST /v1/admin/drain")
    add_resilience_flags(p_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a sweep grid to a running daemon"
    )
    p_submit.add_argument("benchmarks", nargs="+", choices=sorted(BENCHMARKS))
    p_submit.add_argument("--policies", nargs="+",
                          default=["cats_sa", "cata", "cata_rsu"],
                          choices=POLICIES + EXTRA_POLICIES)
    p_submit.add_argument("--budgets", nargs="+", type=int, default=[8, 16, 24])
    p_submit.add_argument("--seeds", nargs="+", type=int, default=[1])
    p_submit.add_argument("--scale", type=float, default=0.5)
    p_submit.add_argument("--faults", default="off", metavar="SPEC")
    p_submit.add_argument("--url", default=DEFAULT_URL,
                          help="daemon base URL")
    p_submit.add_argument("--client", default=DEFAULT_CLIENT,
                          help="client name for fairness accounting")
    p_submit.add_argument("--criticality", choices=["low", "high"],
                          default=None,
                          help="admission criticality under overload "
                          "(default: derived — qos-bounded scenario cells "
                          "are high, everything else low)")
    p_submit.add_argument("--submit-retries", type=positive_int, default=5,
                          metavar="N",
                          help="client attempts per request (backoff is "
                          "jittered-exponential, honoring Retry-After)")
    p_submit.add_argument("--wait", action="store_true",
                          help="block until the job settles, then print the "
                          "results table")
    p_submit.add_argument("--timeout", type=float, default=3600.0,
                          metavar="SEC", help="--wait deadline")

    p_status = sub.add_parser("status", help="progress of a submitted job")
    p_status.add_argument("job", help="job id from `repro submit`")
    p_status.add_argument("--url", default=DEFAULT_URL)
    p_status.add_argument("--detail", action="store_true",
                          help="per-cell states")
    p_status.add_argument("--wait", type=float, default=0.0, metavar="SEC",
                          help="long-poll until the job settles or SEC passes")

    p_fetch = sub.add_parser(
        "fetch", help="results of a finished job (with fingerprints)"
    )
    p_fetch.add_argument("job", help="job id from `repro submit`")
    p_fetch.add_argument("--url", default=DEFAULT_URL)
    p_fetch.add_argument("--json", metavar="FILE", default=None,
                         help="also dump the full response as JSON")

    p_drain = sub.add_parser(
        "drain", help="gracefully drain a running daemon (stop admissions, "
        "finish in-flight work, exit)"
    )
    p_drain.add_argument("--url", default=DEFAULT_URL)

    p_rsu = sub.add_parser("rsu", help="RSU area/power overhead")
    p_rsu.add_argument("--cores", nargs="+", type=int, default=[32, 64, 128, 256, 1024])

    p_perf = sub.add_parser(
        "perf", help="simulator performance benchmarks + regression check"
    )
    p_perf.add_argument("--smoke", action="store_true",
                        help="best-of-2 instead of best-of-3 per scenario "
                        "(CI mode)")
    p_perf.add_argument("--check", action="store_true",
                        help="compare against the committed BENCH_*.json "
                        "baselines; exit 1 on regression")
    p_perf.add_argument("--out-dir", default=".", metavar="DIR",
                        help="directory for BENCH_engine.json / "
                        "BENCH_sweep.json (default: current directory)")
    p_perf.add_argument("--threshold", type=float, default=None, metavar="FRAC",
                        help="regression threshold as a fraction "
                        "(default: 0.30)")
    p_perf.add_argument("--update", action="store_true",
                        help="rewrite the BENCH_*.json baselines with this "
                        "run's numbers (default: measure + append history "
                        "only, baselines untouched)")
    p_perf.add_argument("--only", nargs="+", metavar="SCENARIO",
                        help="run (and check) only the named scenarios; "
                        "incompatible with --update")
    p_perf.add_argument("--history-limit", type=positive_int, default=None,
                        metavar="N",
                        help="after appending this run, prune each "
                        "BENCH_history.jsonl to its newest N records")

    # Delegated subcommands: main() hands the remaining argv to the
    # analysis drivers before this parser ever runs, so these entries only
    # exist for `repro --help` discoverability.
    sub.add_parser("check",
                   help="unified static analysis: lint rule families + TDG "
                   "checks, text/json/sarif output (repro check --help)",
                   add_help=False)
    sub.add_parser("lint", help="AST determinism linter (repro lint --help)",
                   add_help=False)
    sub.add_parser("analyze-tdg",
                   help="static TDG race/deadlock analysis "
                   "(repro analyze-tdg --help)",
                   add_help=False)

    return parser


def _cmd_list() -> str:
    from .workloads.scenario import ARRIVAL_KINDS

    lines = ["benchmarks:"]
    lines += [f"  {name}" for name in sorted(BENCHMARKS)]
    lines.append("policies (paper):")
    lines += [f"  {p}" for p in POLICIES]
    lines.append("policies (extensions):")
    lines += [f"  {p}" for p in EXTRA_POLICIES]
    lines.append("arrival kinds (run/sweep --arrivals, latency --tenants):")
    for kind in sorted(ARRIVAL_KINDS):
        lines.append(f"  {kind}: {ARRIVAL_KINDS[kind]['description']}")
    return "\n".join(lines)


def _cmd_list_json() -> str:
    import json as _json

    from .harness import list_experiments
    from .workloads.scenario import ARRIVAL_KINDS

    payload = {
        "benchmarks": sorted(BENCHMARKS),
        "policies": {"paper": list(POLICIES), "extensions": list(EXTRA_POLICIES)},
        "arrival_kinds": {
            kind: {
                "description": meta["description"],
                # None marks a required parameter; others show defaults.
                "params": meta["params"],
            }
            for kind, meta in ARRIVAL_KINDS.items()
        },
        "experiments": [
            {
                "id": e.exp_id,
                "artifact": e.paper_artifact,
                "description": e.description,
            }
            for e in list_experiments()
        ],
    }
    return _json.dumps(payload, indent=2, sort_keys=True)


def _cmd_run_scenario(args: argparse.Namespace) -> str:
    from .core.policies import run_scenario_policy
    from .workloads.scenario import parse_scenario

    spec = (
        args.tenants
        if args.tenants is not None
        else f"{args.benchmark}@{args.arrivals}"
    )
    scn = parse_scenario(spec)
    result = run_scenario_policy(
        scn,
        args.policy,
        fast_cores=args.fast,
        seed=args.seed,
        scale=args.scale,
        sanitize=args.sanitize,
        faults=args.faults,
    )
    summary = result.extra.get("scenario", {})
    lines = [
        f"{scn.label()} under {args.policy} @ {args.fast} fast cores "
        f"(scale {args.scale}, seed {args.seed})",
        f"  scenario:         {scn.canonical()}",
        f"  jobs admitted:    {summary.get('jobs', 0)}",
        f"  tasks executed:   {result.tasks_executed}",
        f"  makespan:         {result.exec_time_ns / 1e6:.3f} ms",
        f"  energy:           {result.energy_j:.4f} J",
        "  latency p50/p95/p99: "
        f"{(result.latency_p50_ns or 0.0) / 1e6:.3f} / "
        f"{(result.latency_p95_ns or 0.0) / 1e6:.3f} / "
        f"{(result.latency_p99_ns or 0.0) / 1e6:.3f} ms",
        f"  QoS violations:   {result.qos_violation_rate or 0.0:.2%} of jobs",
    ]
    for name, stats in summary.get("tenants", {}).items():
        parts = [
            f"jobs {stats['jobs']}",
            f"p99 {stats['latency_p99_ns'] / 1e6:.3f} ms",
        ]
        if "qos_violations" in stats:
            parts.append(f"QoS misses {stats['qos_violations']}")
        if "accel_grants" in stats:
            parts.append(f"accel grants {stats['accel_grants']}")
        lines.append(f"    tenant {name}: " + ", ".join(parts))
    if args.timeline:
        lines.append(render_timeline(result.trace, width=100))
    if args.export_trace:
        n = export_chrome_trace(result.trace, args.export_trace)
        lines.append(f"  wrote {n} trace events to {args.export_trace}")
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> str:
    if args.arrivals is not None and args.tenants is not None:
        raise SystemExit("pass either --arrivals or --tenants, not both")
    if args.arrivals is not None or args.tenants is not None:
        return _cmd_run_scenario(args)
    system = build_system(
        build_program(args.benchmark, scale=args.scale, seed=args.seed),
        args.policy,
        fast_cores=args.fast,
        seed=args.seed,
        sanitize=args.sanitize,
        faults=args.faults,
    )
    result = system.run()
    lines = [
        f"{args.benchmark} under {args.policy} @ {args.fast} fast cores "
        f"(scale {args.scale}, seed {args.seed})",
        f"  tasks executed:   {result.tasks_executed}",
        f"  execution time:   {result.exec_time_ns / 1e6:.3f} ms",
        f"  energy:           {result.energy_j:.4f} J",
        f"  EDP:              {result.edp:.6e} J*s",
        f"  reconfigurations: {result.reconfig_count} "
        f"(avg latency {result.avg_reconfig_latency_ns / 1e3:.1f} us, "
        f"{result.cpufreq_writes} cpufreq writes)",
    ]
    faults = result.extra.get("faults")
    if faults is not None:
        lines.append(
            f"  faults:           {faults['events']} injected "
            f"({faults['cores_failed']} cores failed, "
            f"{faults['tasks_aborted']} tasks aborted, "
            f"{faults['rails_stuck']} rails stuck, "
            f"{faults['rsu_outages']} RSU outages; "
            f"{faults['tasks_requeued']} tasks requeued)"
        )
    if system.sanitizer is not None:
        lines.append(f"  {system.sanitizer.render_summary()}")
    if args.baseline:
        fifo = run_policy(
            build_program(args.benchmark, scale=args.scale, seed=args.seed),
            "fifo",
            fast_cores=args.fast,
            seed=args.seed,
        )
        lines.append(
            f"  speedup over FIFO: {fifo.exec_time_ns / result.exec_time_ns:.3f}"
        )
        lines.append(f"  normalized EDP:    {result.edp / fifo.edp:.3f}")
    if args.breakdown:
        bd = result.extra["energy_breakdown_j"]
        total = sum(bd.values())
        lines.append("  energy breakdown:")
        for bucket, joules in bd.items():
            lines.append(
                f"    {bucket:<10} {joules:8.4f} J  ({100 * joules / total:5.1f}%)"
            )
    if args.timeline:
        lines.append(render_timeline(result.trace, width=100))
    if args.export_trace:
        n = export_chrome_trace(result.trace, args.export_trace)
        lines.append(f"  wrote {n} trace events to {args.export_trace}")
    if args.export_paraver:
        from .analysis.paraver import export_paraver

        prv, pcf = export_paraver(result.trace, args.export_paraver)
        lines.append(f"  wrote Paraver trace to {prv} / {pcf}")
    return "\n".join(lines)


def _retry_from_args(args: argparse.Namespace):
    from .harness import RetryPolicy

    if args.retries == 3 and args.cell_timeout is None:
        return None
    return RetryPolicy(max_attempts=args.retries, cell_timeout_s=args.cell_timeout)


def _cmd_sweep(args: argparse.Namespace) -> str:
    with GridRunner(
        scale=args.scale,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        verbose=args.verbose,
        faults=args.faults,
        retry=_retry_from_args(args),
        arrivals=args.arrivals,
        tenants=args.tenants,
    ) as runner:
        grid = runner.run_grid(
            args.policies, workloads=[args.benchmark], fast_counts=args.budgets
        )
    rows: list[list[object]] = []
    for budget in args.budgets:
        row: list[object] = [budget]
        for policy in args.policies:
            row.append(grid.point(args.benchmark, policy, budget).speedup)
        rows.append(row)
    table = render_table(
        ["budget"] + [f"{p}" for p in args.policies],
        rows,
        title=f"speedup over FIFO on {args.benchmark} (scale {args.scale})",
    )
    return table + "\n" + grid.stats.summary()


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.overload import OverloadPolicy
    from .service.server import serve

    shares: dict[str, int] = {}
    for item in args.share:
        name, sep, value = item.partition("=")
        if not sep or not name or not value.isdigit() or int(value) < 1:
            raise SystemExit(
                f"--share expects CLIENT=N with N >= 1, got {item!r}"
            )
        shares[name] = int(value)
    try:
        overload = OverloadPolicy(
            max_queue_depth=args.max_queue,
            hard_queue_depth=args.hard_queue,
            max_inflight_per_client=args.max_inflight,
            shed_seed=args.shed_seed,
        )
    except ValueError as exc:
        raise SystemExit(f"bad overload policy: {exc}") from exc
    return serve(
        args.state_dir,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        retry=_retry_from_args(args),
        shares=shares or None,
        default_share=args.default_share,
        overload=overload,
        drain_grace_s=args.drain_grace,
        verbose=args.verbose,
    )


def _render_job_status(status: dict) -> str:
    lines = [
        f"job {status['job']} ({status['client']}): {status['state']} — "
        f"{status['done']}/{status['unique']} cells done, "
        f"{status['running']} running, {status['pending']} pending, "
        f"{status['failed']} failed",
        f"  cached: {status['cached']}  simulated: {status['simulated']}  "
        f"attached: {status['attached']}  deduped: {status['deduped']}  "
        f"resumed: {status['resumed']}",
    ]
    for row in status.get("detail", []):
        src = "cache" if row["from_cache"] else "sim"
        extra = f"  [{row['error']}]" if row["error"] else ""
        lines.append(
            f"    {row['state']:<8} {row['label']:<40} "
            f"{row['seconds']:8.3f}s  {src}{extra}"
        )
    return "\n".join(lines)


def _render_fetch(payload: dict) -> str:
    from .analysis import render_table as _table

    rows = []
    for item in payload["results"]:
        result = item["result"]
        edp = result["energy_j"] * result["exec_time_ns"] / 1e9
        rows.append(
            [
                item["label"],
                f"{result['exec_time_ns'] / 1e6:.3f}",
                f"{result['energy_j']:.4f}",
                f"{edp:.4e}",
                "cache" if item["from_cache"] else "sim",
                item["fingerprint"][:12],
            ]
        )
    table = _table(
        ["cell", "exec ms", "energy J", "EDP J*s", "source", "sha256[:12]"],
        rows,
        title=f"job {payload['job']} results",
    )
    return (
        table
        + f"\ncells: {payload['cells']}  cached: {payload['cached']}  "
        f"simulated: {payload['simulated']}  resumed: {payload['resumed']}"
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service.client import ClientRetryPolicy, ServiceClient

    client = ServiceClient(
        args.url,
        retry=ClientRetryPolicy(max_attempts=args.submit_retries),
    )
    receipt = client.submit(
        workloads=list(args.benchmarks),
        policies=list(args.policies),
        budgets=list(args.budgets),
        seeds=list(args.seeds),
        scale=args.scale,
        faults=args.faults,
        client=args.client,
        criticality=args.criticality,
    )
    print(
        f"job {receipt['job']} accepted: {receipt['cells']} cells "
        f"({receipt['cached']} already cached, {receipt['attached']} "
        f"in flight elsewhere, {receipt['pending']} queued)"
    )
    if not args.wait:
        print(f"poll with: repro status {receipt['job']} --url {client.url}")
        return 0
    status = client.wait(receipt["job"], timeout_s=args.timeout)
    if status.get("state") != "done":
        print(_render_job_status(client.status(receipt["job"], detail=True)))
        return 1
    print(_render_fetch(client.fetch(receipt["job"])))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient

    client = ServiceClient(args.url)
    status = (
        client.status(args.job, wait_s=args.wait)
        if args.wait > 0
        else client.status(args.job, detail=args.detail)
    )
    if args.wait > 0 and args.detail:
        status = client.status(args.job, detail=True)
    print(_render_job_status(status))
    return 0 if status["state"] != "failed" else 1


def _cmd_fetch(args: argparse.Namespace) -> int:
    import json as _json

    from .service.client import ServiceClient

    client = ServiceClient(args.url)
    payload = client.fetch(args.job)
    print(_render_fetch(payload))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(payload, fh, sort_keys=True)
        print(f"wrote full response to {args.json}")
    return 0


def _cmd_drain(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient

    client = ServiceClient(args.url)
    summary = client.drain()
    print(
        f"daemon draining: {summary.get('running', 0)} cells running, "
        f"{summary.get('queued', 0)} queued (queued work resumes on the "
        "next start)"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    # The analysis drivers own their argument parsing; hand over before the
    # main parser sees (and rejects) their flags.
    if raw and raw[0] == "check":
        from .analysis.check import main as check_main

        return check_main(raw[1:])
    if raw and raw[0] == "lint":
        from .analysis.lint.runner import main as lint_main

        return lint_main(raw[1:])
    if raw and raw[0] == "analyze-tdg":
        from .analysis.tdgcheck import main as tdg_main

        return tdg_main(raw[1:])
    args = build_parser().parse_args(raw)
    if args.command == "list":
        print(_cmd_list_json() if args.json else _cmd_list())
    elif args.command == "table1":
        print(render_table1())
    elif args.command == "run":
        print(_cmd_run(args))
    elif args.command == "sweep":
        print(_cmd_sweep(args))
    elif args.command in ("figure4", "figure5"):
        fn = run_figure4 if args.command == "figure4" else run_figure5
        with GridRunner(
            scale=args.scale,
            seeds=tuple(args.seeds),
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            verbose=args.verbose,
            retry=_retry_from_args(args),
        ) as runner:
            result = fn(runner, fast_counts=tuple(args.fast))
        print(result.render())
        if result.stats is not None:
            print(result.stats.summary())
        if args.csv and result.grid is not None:
            result.grid.write_csv(args.csv)
            print(f"wrote {len(result.points)} points to {args.csv}")
        if not result.shape.ok:
            return 1
    elif args.command == "latency":
        from .harness import (
            LATENCY_INTENSITIES,
            LATENCY_POLICIES,
            LATENCY_SMOKE_TENANTS,
            LATENCY_TENANTS,
            run_latency,
        )

        tenants = args.tenants
        policies = tuple(args.policies) if args.policies else None
        intensities = tuple(args.intensities) if args.intensities else None
        if args.smoke:
            tenants = tenants or LATENCY_SMOKE_TENANTS
            policies = policies or ("fifo", "cata")
            intensities = intensities or (1.0,)
        study = run_latency(
            tenants=tenants or LATENCY_TENANTS,
            policies=policies or LATENCY_POLICIES,
            intensities=intensities or LATENCY_INTENSITIES,
            fast=args.fast,
            seed=args.seed,
            scale=args.scale,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            verbose=args.verbose,
            retry=_retry_from_args(args),
        )
        print(study.render())
        print(study.stats.summary())
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(study.to_csv() + "\n")
            print(f"wrote {len(study.rows)} rows to {args.csv}")
    elif args.command == "degradation":
        from .harness import (
            DEGRADATION_INTENSITIES,
            DEGRADATION_POLICIES,
            DEGRADATION_WORKLOADS,
            run_degradation,
        )

        study = run_degradation(
            workloads=tuple(args.workloads) if args.workloads else DEGRADATION_WORKLOADS,
            policies=tuple(args.policies) if args.policies else DEGRADATION_POLICIES,
            intensities=(
                tuple(args.intensities) if args.intensities else DEGRADATION_INTENSITIES
            ),
            fast=args.fast,
            seed=args.seed,
            scale=args.scale,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            verbose=args.verbose,
        )
        print(study.render())
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(study.to_csv() + "\n")
            print(f"wrote {len(study.rows)} rows to {args.csv}")
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command in ("submit", "status", "fetch", "drain"):
        from .service.client import ServiceError

        handler = {
            "submit": _cmd_submit,
            "status": _cmd_status,
            "fetch": _cmd_fetch,
            "drain": _cmd_drain,
        }[args.command]
        try:
            return handler(args)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    elif args.command == "section5c":
        with GridRunner(scale=args.scale, trace_enabled=True) as runner:
            print(render_section5c(run_section5c(runner, fast_cores=args.fast)))
    elif args.command == "experiments":
        from .harness import list_experiments, run_experiment

        if args.exp_id is None:
            rows = [
                (e.exp_id, e.paper_artifact, e.description)
                for e in list_experiments()
            ]
            print(render_table(["id", "artifact", "description"], rows,
                               title="Reproducible experiments"))
        else:
            print(run_experiment(args.exp_id, scale=args.scale,
                                 seeds=tuple(args.seeds), jobs=args.jobs,
                                 cache_dir=args.cache_dir,
                                 verbose=args.verbose))
    elif args.command == "characterize":
        stats = [
            characterize(build_program(name, scale=args.scale, seed=args.seed))
            for name in sorted(BENCHMARKS)
        ]
        headers, rows = characterization_rows(stats)
        print(render_table(headers, rows, title="Workload characterization"))
    elif args.command == "rsu":
        print(render_rsu_overhead(run_rsu_overhead(core_counts=tuple(args.cores))))
    elif args.command == "perf":
        from .perf import REGRESSION_THRESHOLD, run_perf

        threshold = (
            args.threshold if args.threshold is not None else REGRESSION_THRESHOLD
        )
        report, code = run_perf(
            out_dir=args.out_dir,
            smoke=args.smoke,
            check=args.check,
            threshold=threshold,
            update=args.update,
            only=tuple(args.only) if args.only else None,
            history_limit=args.history_limit,
        )
        print(report)
        return code
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
