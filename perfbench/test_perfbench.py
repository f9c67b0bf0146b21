"""Self-test of the benchmark, at tiny sizes.

Run from the checkout root (about a minute on two cores)::

    python3 -m pytest perfbench/test_perfbench.py -q

It checks that every metric named in ``BENCHMARK.json`` is printed with
its unit, that the span run's counts repeat exactly, that a tampered
reference fingerprint fails the run, that the service load never holds
more than two client threads or connections, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-run", "selftest")
WORKLOADS = ("paper_grid", "trace_grid", "svc_mixed")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

#: Span-run counts that must repeat exactly at a fixed seed.
COUNTS = {
    "paper_grid": ("workloads.tasks", "sim.events", "runtime.bl_edges",
                   "harness.cache_hits", "harness.cache_misses"),
    "trace_grid": ("workloads.tasks", "sim.events", "runtime.bl_edges",
                   "harness.cache_hits", "harness.cache_misses"),
    "svc_mixed": ("service.cells_simulated",),
}


def bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    out = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return out.returncode, out.stdout.strip().splitlines()


_cache: dict[tuple[str, ...], tuple[int, list[str]]] = {}


def cached(*args: str) -> tuple[int, list[str]]:
    if args not in _cache:
        _cache[args] = bench(*args)
    return _cache[args]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload: str, trace: str) -> None:
    code, lines = cached("--workload", workload, "--trace", trace)
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if len(line.split()) >= 3}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)
        assert printed.get(m["name"]) == m["unit"], m["name"]
    if trace == "0":
        for m in wanted:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_counts_repeat_exactly(workload: str) -> None:
    first = json.loads(cached("--workload", workload, "--trace", "1")[1][-1])["metrics"]
    code, lines = bench("--workload", workload, "--trace", "1")
    assert code == 0
    second = json.loads(lines[-1])["metrics"]
    for name in COUNTS[workload]:
        assert first[name]["value"] == second[name]["value"], name
        assert first[name]["value"] > 0, name
    if workload == "svc_mixed":
        served = ("service.cells_cached", "service.cells_attached")
        assert sum(first[n]["value"] for n in served) == sum(second[n]["value"] for n in served)
    else:
        assert first["sim.runs_warm"]["value"] == 0
        assert first["harness.cache_hit_ratio_cold"]["value"] == 0.0
        assert first["harness.cache_hit_ratio_warm"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_reference_fails_the_run(workload: str) -> None:
    with open(os.path.join(HERE, "refs", f"{workload}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    # Flip every reference: whichever cells the tiny run resolves, each
    # one now disagrees with its reference.
    doc["cells"] = {k: v[::-1] for k, v in doc["cells"].items()}
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"tampered-{workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, lines = bench("--workload", workload, "--refs", path)
    assert code == 1
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert any("MISMATCH" in line for line in lines)


def test_service_load_stays_within_two_connections() -> None:
    metrics = json.loads(cached("--workload", "svc_mixed", "--trace", "1")[1][-1])["metrics"]
    assert 1 <= metrics["service.max_connections"]["value"] <= 2
    assert 1 <= metrics["service.client_threads"]["value"] <= 2
    assert metrics["service.shed"]["value"] == 0
    code, lines = cached("--workload", "svc_mixed", "--trace", "0")
    assert code == 0
    summary = next(line for line in lines if "max connections" in line)
    assert "max connections 2," in summary or "max connections 1," in summary


def test_refuses_to_run_without_program_sources() -> None:
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
