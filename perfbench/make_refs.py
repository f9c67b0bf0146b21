"""Regenerate the reference fingerprints the benchmark checks against.

Simulates every cell a run at the default workload seed can resolve,
directly through ``simulate_cell`` (no cache, no pool, no daemon), and
writes ``perfbench/refs/<workload>.json``.  Run from the checkout root
only after an intentional change of simulated behaviour::

    python3 perfbench/make_refs.py [workload ...]
"""

from __future__ import annotations

import json
import os
import sys

import measure


def specs_for(workload: str):
    if workload == "svc_mixed":
        import service_load

        with open(os.path.join(measure.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
        return service_load.reference_specs(measure.DEFAULT_SEED, seconds)
    import grids

    return grids.reference_specs(workload, measure.DEFAULT_SEED)


def main(argv: list[str]) -> int:
    measure.prepare_environment()
    from repro.harness.executor import simulate_cell

    os.makedirs(measure.REFS_DIR, exist_ok=True)
    for workload in argv or ("paper_grid", "trace_grid", "svc_mixed"):
        cells = {}
        for label, spec in specs_for(workload):
            result, _ = simulate_cell(spec)
            cells[label] = measure.fingerprint(result)
        path = os.path.join(measure.REFS_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": measure.DEFAULT_SEED,
                       "cells": cells}, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(cells)} cells -> {os.path.relpath(path, measure.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
