"""Shared fixtures for the benchmark harness.

``paper_runner`` is session-scoped so Figure 4 and Figure 5 — which share
the FIFO baselines and the CATA column — reuse each other's simulations.
Results are also written to ``benchmarks/results/`` so the regenerated
tables survive pytest's output capture.

Set ``REPRO_BENCH_JOBS`` to fan the paper-scale grids across that many
worker processes (results are bitwise-identical to serial), and
``REPRO_BENCH_CACHE`` to a directory to persist results between benchmark
runs — a re-run then only re-simulates cells whose key (scale, seed,
machine, schema version) actually changed.
"""

from __future__ import annotations

import os
import pathlib
import sys
from typing import Iterator

import pytest

from repro.harness import GridRunner

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Seeds used for the paper-scale sweeps (multi-seed averaging).
PAPER_SEEDS = (1, 2, 3)

#: Parallelism / persistent-cache knobs for the paper-scale sweeps.
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
BENCH_CACHE = os.environ.get("REPRO_BENCH_CACHE") or None


@pytest.fixture(scope="session")
def paper_runner() -> Iterator[GridRunner]:
    with GridRunner(
        scale=1.0, seeds=PAPER_SEEDS, jobs=BENCH_JOBS, cache_dir=BENCH_CACHE
    ) as runner:
        yield runner


@pytest.fixture(scope="session")
def traced_runner() -> Iterator[GridRunner]:
    """Single-seed runner with tracing for the Section V-C statistics."""
    with GridRunner(
        scale=1.0, seeds=(1,), trace_enabled=True,
        jobs=BENCH_JOBS, cache_dir=BENCH_CACHE,
    ) as runner:
        yield runner


def emit(name: str, text: str) -> None:
    """Print a regenerated artifact (bypassing capture) and save it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    sys.__stdout__.write(f"\n===== {name} =====\n{text}\n")
    sys.__stdout__.flush()
