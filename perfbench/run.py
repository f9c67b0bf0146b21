"""Benchmark of the CATA reproduction: sweeps and the sweep service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``paper_grid`` -- the Figure 4 and Figure 5 grid, untraced, cold then warm;
* ``trace_grid`` -- the golden traced grid over several seeds, cold then warm;
* ``svc_mixed``  -- two closed-loop clients against a ``repro serve`` daemon.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` makes the span run instead and prints the per-layer metrics,
the per-layer table (self time, count, share of wall, ``unaccounted``)
and the span run's end-to-end numbers beside the untraced ones.

Every run checks its outputs: each cell's SHA-256 must match the committed
reference (``perfbench/refs``, made for ``--seed 1`` by ``make_refs.py``),
the golden traces for simulation seed 1 of ``trace_grid``, and the first
result this run saw for the same cell.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  The exit code is 1 when any check
failed, 2 when the checkout cannot run the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any

import measure

WORKLOADS = ("paper_grid", "trace_grid", "svc_mixed")
#: Set-up launches per run (one with ``--tiny``), after one throwaway
#: launch; set-up time is their median.  Sweeps launch between rounds (every
#: other round, topped up at the end); the service launches half before and
#: half after its load.
SETUP_LAUNCHES = 6


def _spec() -> dict[str, Any]:
    with open(os.path.join(measure.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _grid_e2e(args: argparse.Namespace, env: dict[str, str], checker: measure.Checker):
    import grids

    launches = _setup_launches(args)
    measure.sweep_setup_seconds(env)  # throwaway
    setup: list[float] = []

    def between_rounds(k: int) -> None:
        if k % 2 == 0 and len(setup) < launches:
            setup.append(measure.sweep_setup_seconds(env))

    kw = _tiny_grid(args)
    seconds = 0.0 if args.tiny else args.seconds
    load = grids.measure_e2e(args.workload, args.seed, seconds, checker,
                             between_rounds=between_rounds, **kw)
    while len(setup) < launches:
        setup.append(measure.sweep_setup_seconds(env))
    metrics = load.e2e()
    metrics["setup_s"] = measure.median(setup)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    print(f"setup launches (s): {' '.join(f'{t:.4f}' for t in setup)}")
    print(f"rounds: {load.rounds}; cells: {load.cold.cells} in whole-grid cold passes, "
          f"{load.warm.cells} in {len(load.warm.latencies)} warm jobs, "
          f"{load.cold_jobs.cells} in {len(load.cold_jobs.latencies)} cold jobs")
    _print_warm_rates(load.warm.rates)
    return metrics, load.samples(), load.attempted, load.failed


def _print_warm_rates(rates: list[float]) -> None:
    print("warm cells/s per job: " + ", ".join(
        f"p{p} {measure.percentile(rates, p):.1f}" for p in (10, 50, 90)
    ) + f" (n={len(rates)}; warm_cells_per_s is p10)")


def _setup_launches(args: argparse.Namespace) -> int:
    return 1 if args.tiny else SETUP_LAUNCHES


def _peak_rss_mb() -> float:
    parent, child = measure.peak_rss_mb()
    print(f"peak resident set (MB): benchmark process {parent:.2f}, "
          f"largest child process {child:.2f}")
    return max(parent, child)


def _tiny_grid(args: argparse.Namespace) -> dict[str, Any]:
    """Self-test sizes: one simulation seed, one round."""
    if not args.tiny:
        return {}
    import grids

    cfg = grids.CONFIGS[args.workload]
    benches = grids.BENCHMARKS if cfg.shape else grids.BENCHMARKS[:2]
    return {"min_cold": 0, "min_warm": 0, "benchmarks": benches,
            "seeds": cfg.all_seeds(args.seed)[:1]}


def _grid_layers(args: argparse.Namespace, env: dict[str, str], checker: measure.Checker):
    import grids

    kw = _tiny_grid(args)
    kw.pop("min_cold", None)
    kw.pop("min_warm", None)
    res = grids.measure_layers(args.workload, args.seed, checker, **kw)
    for phase, load_phase in (("cold", res["traced"].cold), ("warm", res["traced"].warm)):
        _print_table(res["tables"][phase], load_phase.seconds, f"{phase} phase")
    print(f"span-run wall {res['wall']:.4f} s; unaccounted {res['table'][-1][1]:.4f} s")
    cold = {name: secs for name, secs, _, _ in res["tables"]["cold"]}
    cold_wall = res["traced"].cold.seconds
    pooled = res["pooled"].cold.run_cells_seconds * grids.JOBS
    print(f"cold-wall split: sim.run {100 * cold.get('sim.run', 0) / cold_wall:.1f}%, "
          f"sim.serialize + harness.cache_put "
          f"{100 * (cold.get('sim.serialize', 0) + cold.get('harness.cache_put', 0)) / cold_wall:.1f}% "
          f"of the inline span run; pool overhead "
          f"{100 * res['pool_overhead_s'] / pooled:.1f}% of jobs x run_cells wall "
          f"of the pooled whole-grid cold pass")
    rows = [("untraced, jobs=2", res["pooled"]), ("untraced, inline", res["inline"]),
            ("span run, inline", res["traced"])]
    print("tracing overhead (span run vs untraced inline run):")
    for label, load in rows:
        e = load.e2e()
        print(f"  {label:18s} cold_cells_per_s={e['cold_cells_per_s']:.2f} "
              f"warm_cells_per_s={e['warm_cells_per_s']:.2f} "
              f"wall_s={load.wall:.3f}")
    res["rec"].dump(os.path.join(measure.WORK, f"spans-{args.workload}-{args.seed}.json"))
    loads = [res["pooled"], res["inline"], res["traced"]]
    return (grids.layer_metrics(res), sum(x.attempted for x in loads),
            sum(x.failed for x in loads))


def _svc_run(env: dict[str, str], tag: str, seed: int, n_jobs: int,
             checker: measure.Checker, rec=None):
    import service_load

    daemon = service_load.Daemon(env, tag)
    try:
        service_load.warm_up(daemon.url, measure.Checker({}))
        return service_load.run_load(daemon.url, seed, n_jobs, checker, rec)
    finally:
        daemon.stop()


def _svc_e2e(args: argparse.Namespace, env: dict[str, str], checker: measure.Checker):
    import service_load

    launches = _setup_launches(args)
    service_load.setup_seconds(env, 1, "throwaway")
    setup = service_load.setup_seconds(env, launches // 2, "before")
    n_jobs = service_load.jobs_per_client(0 if args.tiny else args.seconds)
    load = _svc_run(env, "load", args.seed, n_jobs, checker)
    setup += service_load.setup_seconds(env, launches - launches // 2, "after")
    metrics = service_load.e2e(load)
    metrics["setup_s"] = measure.median(setup)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    print(f"setup launches (s): {' '.join(f'{t:.4f}' for t in setup)}")
    samples = service_load.samples(load)
    print(f"jobs: {samples['cold_job_p50_ms']} cold, {samples['warm_job_p90_ms']} warm; "
          f"max connections {load.gauge.max_open}, client threads {len(load.gauge.threads)}")
    _print_warm_rates(service_load.warm_rates(load))
    failed = sum(1 for r in load.records if not r.ok)
    return metrics, samples, len(load.records), failed


def _svc_layers(args: argparse.Namespace, env: dict[str, str], checker: measure.Checker):
    import service_load
    from spans import Recorder

    # Half-length loads: the span run needs two of them.
    n_jobs = service_load.jobs_per_client(0 if args.tiny else args.seconds / 2)
    untraced = _svc_run(env, "untraced", args.seed, n_jobs, checker)
    traced = _svc_run(env, "traced", args.seed, n_jobs, checker, Recorder())
    _print_table(service_load.layer_table(traced), sum(traced.client_walls),
                 "both clients")
    print("tracing overhead (span run vs untraced run):")
    for label, load in (("untraced", untraced), ("span run", traced)):
        e = service_load.e2e(load)
        print(f"  {label:9s} jobs_per_s={e['jobs_per_s']:.2f} "
              f"warm_job_p90_ms={e['warm_job_p90_ms']:.3f} "
              f"cold_job_p50_ms={e['cold_job_p50_ms']:.3f} wall_s={load.wall:.3f}")
    traced.rec.dump(os.path.join(measure.WORK, f"spans-{args.workload}-{args.seed}.json"))
    loads = (untraced, traced)
    return (service_load.layer_metrics(traced, untraced),
            sum(len(x.records) for x in loads),
            sum(1 for x in loads for r in x.records if not r.ok))


def _print_table(rows, wall: float, what: str) -> None:
    print(f"per-layer self time, {what}, over a span-run wall of {wall:.4f} s:")
    print(f"  {'layer':22s} {'self_s':>10s} {'count':>7s} {'share':>7s}")
    for name, secs, n, share in rows:
        print(f"  {name:22s} {secs:10.4f} {n:7d} {100 * share:6.1f}%")


def _finite(value: float) -> float:
    # A failed job's latency is infinite and a percentile without samples
    # is NaN; JSON has neither.
    return value if math.isfinite(value) else 1e12


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=measure.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--refs", default=None, help="reference file to check against")
    args = ap.parse_args(argv)

    try:
        env = measure.prepare_environment()
        spec = _spec()
    except (measure.SetupError, OSError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    from repro.sim.arrays import native_enabled

    native_enabled()  # build the kernel .so once, never inside a timing
    manifest = measure.manifest(args.workload, args.seed)
    print("manifest " + json.dumps(manifest, sort_keys=True))

    refs = measure.load_refs(
        args.refs or os.path.join(measure.REFS_DIR, f"{args.workload}.json")
    )
    golden = {}
    if args.workload == "trace_grid":
        import grids

        golden = grids.golden_refs(grids.CONFIGS["trace_grid"])
    checker = measure.Checker(refs, golden)

    grid = args.workload != "svc_mixed"
    if args.trace:
        values, attempted, failed = (_grid_layers if grid else _svc_layers)(args, env, checker)
        wanted = spec["per_layer"]
        samples: dict[str, int] = {}
    else:
        values, samples, attempted, failed = (_grid_e2e if grid else _svc_e2e)(args, env, checker)
        wanted = spec["end_to_end"]
    measure.reap_children()

    metrics = {}
    for m in wanted:
        value = _finite(float(values.get(m["name"], 0.0)))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = ""
        if m["name"] in samples:
            p = float(m["name"].rsplit("_p", 1)[1].split("_")[0])
            n = samples[m["name"]]
            note = f"  (n={n}, {measure.beyond(n, p)} beyond)"
        print(f"{m['name']:30s} {value:14.4f} {m['unit']}{note}")
    print(f"checks: {checker.checked} fingerprints, {checker.ref_checked} against "
          f"references, {checker.golden_checked} against golden traces, "
          f"{len(checker.mismatches)} mismatches")
    for line in checker.mismatches[:20]:
        print(f"  MISMATCH {line}")
    correct = not checker.mismatches and failed == 0
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed if correct else max(failed, 1)),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
