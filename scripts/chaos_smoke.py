#!/usr/bin/env python
"""Chaos smoke test for the resilient sweep harness (CI entry point).

Drives the real executor through the failure modes it is hardened
against and fails loudly if any recovery path silently degrades:

1. a pool worker is SIGKILLed mid-cell — the sweep must finish with
   results bitwise-identical to a clean run, recording >= 1 pool crash;
2. a cache entry is corrupted behind the executor's back — the entry
   must be quarantined and recomputed, not crash the sweep;
3. the journaled, interrupted sweep must resume re-simulating only the
   unfinished cells;
4. a real ``repro sweep --jobs 2`` SIGKILLed once its journal holds a
   line leaves no pool worker alive, and the rerun simulates only the
   cells missing from the cache, counts every journaled cell as resumed
   and prints the same table as a clean run.

Run from the repo root:  PYTHONPATH=src python scripts/chaos_smoke.py
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from repro.harness.cache import QUARANTINE_DIR, ResultCache
from repro.harness.executor import (
    CellSpec,
    RetryPolicy,
    SweepExecutor,
    process_alive,
    simulate_cell,
)
from repro.harness.journal import SweepJournal

SCALE = 0.05
_WORK = tempfile.mkdtemp(prefix="chaos-smoke-")
os.environ.setdefault("CHAOS_SMOKE_DIR", _WORK)
#: Set before any pool worker forks, so the kill function can tell a
#: worker process from the (must-survive) driver process.
os.environ.setdefault("CHAOS_SMOKE_MAIN_PID", str(os.getpid()))


def _specs(faults: str = "off") -> list[CellSpec]:
    return [
        CellSpec(workload="swaptions", policy=p, fast=8, seed=1, scale=SCALE,
                 faults=faults)
        for p in ("fifo", "cats_sa", "cata", "cata_rsu")
    ]


def kill_once_cell(spec: CellSpec, machine_dict=None):
    """SIGKILL the hosting pool worker on the first attempt per cell."""
    flag = os.path.join(os.environ["CHAOS_SMOKE_DIR"], f"killed-{spec.policy}")
    in_worker = os.environ["CHAOS_SMOKE_MAIN_PID"] != str(os.getpid())
    if in_worker and not os.path.exists(flag):
        with open(flag, "w", encoding="utf-8"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return simulate_cell(spec, machine_dict)


#: ~2 s of cells at ``--jobs 2``: the kill lands after the first
#: checkpoint and before the last.
KILL_SWEEP = ["sweep", "fluidanimate", "--scale", "1.0", "--budgets", "8", "16",
              "--jobs", "2"]


def children(pid: int) -> list[int]:
    """Pids whose parent is ``pid`` (Linux procfs)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def sweep(*extra: str) -> str:
    """Run ``repro sweep`` to completion; returns its stdout."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *KILL_SWEEP, *extra],
        check=True, capture_output=True, text=True,
    ).stdout


def stat(summary: str, name: str) -> int:
    """One counter of a ``sweep stats`` line (absent counters are 0)."""
    match = re.search(rf"\b{name}: (\d+)", summary)
    return int(match.group(1)) if match else 0


def check(condition: bool, message: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {message}")
    if not condition:
        raise SystemExit(f"chaos smoke failed: {message}")


def main() -> int:
    specs = _specs(faults="chaos:intensity=0.5,horizon=1ms")
    print("chaos smoke: clean reference run")
    clean, _ = SweepExecutor(jobs=1).run_cells(specs)

    print("chaos smoke: SIGKILLed pool workers")
    cache_dir = os.path.join(_WORK, "cache")
    crashy = SweepExecutor(
        jobs=2,
        cache=ResultCache(cache_dir),
        journal=SweepJournal(os.path.join(cache_dir, "journal.jsonl")),
        retry=RetryPolicy(backoff_base_s=0.05),
        cell_fn=kill_once_cell,
        verbose=True,
    )
    survived, batch = crashy.run_cells(specs)
    crashy.journal.close()
    check(batch.simulated == len(specs), "every cell simulated")
    check(batch.pool_crashes >= 1, f"pool crashes recorded ({batch.pool_crashes})")
    check(
        all(survived[s].exec_time_ns == clean[s].exec_time_ns for s in specs),
        "recovered results bitwise-match the clean run",
    )

    print("chaos smoke: corrupt cache entry")
    cache = ResultCache(cache_dir)
    victim = specs[0]
    with open(cache._path(victim.key()), "w", encoding="utf-8") as fh:
        fh.write("{ corrupted mid-write")
    ex = SweepExecutor(jobs=1, cache=cache)
    recomputed, batch2 = ex.run_cells(specs)
    check(batch2.quarantined == 1, "corrupt entry quarantined")
    check(batch2.cache_hits == len(specs) - 1, "intact entries still hit")
    check(batch2.simulated == 1, "only the corrupt cell recomputed")
    check(
        recomputed[victim].exec_time_ns == clean[victim].exec_time_ns,
        "recomputed result bitwise-matches",
    )
    check(
        os.path.isdir(os.path.join(cache_dir, QUARANTINE_DIR)),
        "quarantine directory holds the evidence",
    )

    print("chaos smoke: journaled resume")
    resumed = SweepExecutor(
        jobs=1,
        cache=ResultCache(cache_dir),
        journal=SweepJournal(os.path.join(cache_dir, "journal.jsonl")),
    )
    _, batch3 = resumed.run_cells(specs)
    check(batch3.simulated == 0, "resume re-simulates nothing when complete")
    check(batch3.resumed >= len(specs) - 1, f"resume detected ({batch3.resumed})")

    print("chaos smoke: SIGKILL a running sweep")
    kill_dir = os.path.join(_WORK, "killed-sweep")
    journal_path = os.path.join(kill_dir, "journal.jsonl")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *KILL_SWEEP, "--cache-dir", kill_dir],
        stdout=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline and proc.poll() is None:
        if os.path.exists(journal_path) and os.path.getsize(journal_path) > 0:
            break
        time.sleep(0.01)
    workers = children(proc.pid) if os.path.isdir("/proc") else []
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)
    check(proc.returncode == -signal.SIGKILL, "sweep killed mid-grid")
    journaled = SweepJournal(journal_path).completed
    cached = len(ResultCache(kill_dir))
    check(len(journaled) >= 1, f"journal checkpointed {len(journaled)} cells before the kill")
    if os.path.isdir("/proc"):
        check(len(workers) == 2, f"sweep ran pool workers {workers}")
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(map(process_alive, workers)):
            time.sleep(0.1)
        survivors = [pid for pid in workers if process_alive(pid)]
        check(not survivors, f"no worker outlives the killed sweep (alive: {survivors})")
    else:
        print("  [skip] worker survival: needs procfs to find the sweep's workers")
    resumed_out = sweep("--cache-dir", kill_dir)
    summary = resumed_out.strip().splitlines()[-1]
    cells = stat(summary, "cells")
    check(
        stat(summary, "simulated") == cells - cached,
        f"rerun simulated only the {cells - cached} cells missing from the cache",
    )
    check(
        stat(summary, "resumed") == len(journaled),
        f"rerun counts all {len(journaled)} journaled cells as resumed",
    )
    clean_out = sweep()
    check(
        resumed_out.splitlines()[:-1] == clean_out.splitlines()[:-1],
        "resumed sweep prints the clean run's table",
    )

    print("chaos smoke: all recovery paths exercised")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        shutil.rmtree(_WORK, ignore_errors=True)
