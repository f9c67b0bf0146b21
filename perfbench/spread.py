"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py`` once per seed and reports, per metric, the median and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), beside the metric's bound from
``BENCHMARK.json``.  Runs are pooled only when their manifests' pool key
(kernel backend, Python version, core count) agrees.  Example::

    python3 perfbench/spread.py --workload svc_mixed --runs 10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> tuple[str, dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed} failed ({out.returncode}):\n{out.stdout}\n{out.stderr}")
    manifest = next(json.loads(x[len("manifest "):]) for x in lines if x.startswith("manifest "))
    return manifest["pool_key"], json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    pool_key = None
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.monotonic()
        key, result = run_once(args.workload, seed, spec["run_seconds"])
        elapsed = time.monotonic() - t0
        if pool_key is None:
            pool_key = key
        elif key != pool_key:
            print(f"seed {seed}: pool key {key} differs from {pool_key}; not pooled")
            continue
        if not result["correct"]:
            print(f"seed {seed}: output checks failed")
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed} ({elapsed:.0f}s): " + " ".join(
            f"{n}={result['metrics'][n]['value']:.4g}" for n in values), flush=True)
    worst = 0.0
    print(f"{'metric':18s} {'median':>10s} {'iqr/med':>8s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        flag = "" if spread < m["bound"] / 3 else (" >bound/3" if spread < m["bound"] else " >BOUND")
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"{m['name']:18s} {med:10.4f} {spread:8.4f} {m['bound']:6.2f}{flag}")
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
