#!/usr/bin/env python
"""Sweep-service smoke test (CI entry point).

Boots a real ``repro serve`` daemon as a subprocess and drives it over
HTTP through the guarantees the service makes:

1. a cold submit simulates every cell; the served results are
   byte-identical (SHA-256 fingerprints) to the single-process CLI path;
2. a second identical submit is answered entirely from the warm cache —
   zero simulations;
3. two clients submitting the same grid concurrently simulate each cell
   exactly once between them and fetch identical bytes;
4. a daemon SIGKILLed mid-sweep leaves none of its worker processes
   behind (the pids ``/v1/healthz`` reports are gone within 10 s), and a
   restart resumes the interrupted job from the journal and
   re-simulates only the unfinished cells;
5. a cell that overruns ``--cell-timeout`` fails its job and its worker
   is killed, while the daemon keeps serving: the kill must not reach
   the daemon's own SIGTERM handler.

Run from the repo root:  PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro.harness.executor import CellSpec, SweepExecutor, process_alive
from repro.service.client import ServiceClient, ServiceUnavailableError
from repro.service.protocol import result_fingerprint

SCALE = 0.05
#: Slow enough (~1s/cell on CI) that a SIGKILL reliably lands mid-sweep.
SLOW_SCALE = 1.5
SLOW_WORKLOAD = "fluidanimate"
SLOW_SEEDS = [1, 2]
#: Several seconds per cell, far past the timeout daemon's --cell-timeout.
HUNG_SCALE = 3.0
_WORK = tempfile.mkdtemp(prefix="service-smoke-")
STATE = os.path.join(_WORK, "state")


def check(condition: bool, message: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {message}", flush=True)
    if not condition:
        raise SystemExit(f"service smoke failed: {message}")


def start_daemon(
    *flags: str, state: str = STATE
) -> tuple[subprocess.Popen, ServiceClient]:
    """Start ``repro serve`` on an ephemeral port; wait for its endpoint."""
    endpoint_path = os.path.join(state, "endpoint.json")
    if os.path.exists(endpoint_path):
        os.unlink(endpoint_path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--state-dir", state, *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            out = proc.stdout.read().decode("utf-8", "replace") if proc.stdout else ""
            raise SystemExit(f"daemon exited early ({proc.returncode}):\n{out}")
        try:
            with open(endpoint_path, encoding="utf-8") as fh:
                endpoint = json.load(fh)
            if endpoint.get("pid") == proc.pid:
                return proc, ServiceClient(endpoint["url"], timeout_s=120)
        except (FileNotFoundError, json.JSONDecodeError):
            pass
        time.sleep(0.1)
    proc.kill()
    raise SystemExit("daemon did not publish endpoint.json within 30s")


def grid(policies: list[str], seed: int = 1) -> dict:
    return {
        "workloads": ["swaptions"],
        "policies": policies,
        "budgets": [8],
        "seeds": [seed],
        "scale": SCALE,
    }


def slow_grid(policies: list[str]) -> dict:
    """A grid whose cells are slow enough that the SIGKILL lands mid-job,
    after the first cells are checkpointed (the daemon writes cache and
    journal for each cell as it completes)."""
    return {
        "workloads": [SLOW_WORKLOAD],
        "policies": policies,
        "budgets": [8],
        "seeds": SLOW_SEEDS,
        "scale": SLOW_SCALE,
    }


def survivors(pids: list[int], timeout_s: float = 10.0) -> list[int]:
    """The processes of ``pids`` still running after up to ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline and any(map(process_alive, pids)):
        time.sleep(0.1)
    return [pid for pid in pids if process_alive(pid)]


def stop_daemon(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


def main() -> int:
    print("service smoke: starting daemon", flush=True)
    proc, client = start_daemon()
    try:
        policies = ["fifo", "cats_sa", "cata"]

        print("service smoke: cold submit", flush=True)
        cold = client.submit_body(grid(policies) | {"client": "smoke-cold"})
        status = client.wait(cold["job"], timeout_s=300)
        check(status["state"] == "done", "cold job finished")
        check(status["simulated"] == len(policies), "cold submit simulated all cells")
        served = client.fetch(cold["job"])

        print("service smoke: byte-identity with the CLI path", flush=True)
        specs = [
            CellSpec(workload="swaptions", policy=p, fast=8, seed=1, scale=SCALE)
            for p in policies
        ]
        local, _ = SweepExecutor(jobs=1).run_cells(specs)
        local_fp = {s.label(): result_fingerprint(r) for s, r in local.items()}
        check(
            all(row["fingerprint"] == local_fp[row["label"]]
                for row in served["results"]),
            "served fingerprints match a local --jobs 1 run",
        )

        print("service smoke: warm resubmit", flush=True)
        warm = client.submit_body(grid(policies) | {"client": "smoke-warm"})
        check(warm["cached"] == len(policies), "warm receipt: all cells cached")
        warm_status = client.wait(warm["job"], timeout_s=60)
        check(warm_status["state"] == "done", "warm job finished")
        check(warm_status["simulated"] == 0, "warm submit simulated nothing")
        warm_served = client.fetch(warm["job"])
        check(
            [r["fingerprint"] for r in warm_served["results"]]
            == [r["fingerprint"] for r in served["results"]],
            "warm results byte-identical to the cold run",
        )

        print("service smoke: concurrent identical submissions", flush=True)
        before = client.health()["stats"]["simulated"]
        receipts: dict[str, dict] = {}

        def submit_as(name: str) -> None:
            receipts[name] = client.submit_body(
                grid(policies, seed=2) | {"client": name}
            )

        threads = [
            threading.Thread(target=submit_as, args=(f"smoke-c{i}",))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        fetched = {}
        for name, receipt in receipts.items():
            final = client.wait(receipt["job"], timeout_s=300)
            check(final["state"] == "done", f"{name} job finished")
            fetched[name] = client.fetch(receipt["job"])
        after = client.health()["stats"]["simulated"]
        check(
            after - before == len(policies),
            f"each cell simulated exactly once across both clients "
            f"({after - before} simulations for {len(policies)} cells)",
        )
        fps = [
            [r["fingerprint"] for r in fetched[name]["results"]]
            for name in sorted(fetched)
        ]
        check(fps[0] == fps[1], "both clients fetched identical bytes")

        print("service smoke: SIGKILL mid-sweep", flush=True)
        slow = client.submit_body(slow_grid(policies) | {"client": "smoke-kill"})
        slow_cells = slow["unique"]
        deadline = time.monotonic() + 300.0
        while time.monotonic() < deadline:
            progress = client.status(slow["job"])
            if progress["done"] >= 1:
                break
            time.sleep(0.2)
        check(progress["done"] >= 1, "at least one slow cell finished pre-kill")
        check(progress["state"] != "done", "job still in flight when killed")
        workers = client.health()["worker"]["pids"]
        check(bool(workers) and proc.pid not in workers,
              f"cells run in worker processes {workers}, not the daemon")
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        left = survivors(workers)
        check(not left, f"no worker outlives the SIGKILLed daemon (alive: {left})")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    print("service smoke: restart and resume", flush=True)
    proc, client = start_daemon()
    try:
        health = client.health()
        check(health["recovered_jobs"] >= 1, "restart recovered the killed job")
        final = client.wait(slow["job"], timeout_s=600)
        check(final["state"] == "done", "interrupted job finished after restart")
        check(final["resumed"] >= 1, f"journal resume ({final['resumed']} cells)")
        relife = client.health()["stats"]
        check(
            relife["simulated"] + final["resumed"] == slow_cells,
            "restart re-simulated only the unfinished cells "
            f"({relife['simulated']} simulated + {final['resumed']} resumed)",
        )
        results = client.fetch(slow["job"])
        check(len(results["results"]) == slow_cells, "all results fetchable")
    finally:
        stop_daemon(proc)

    print("service smoke: cell timeout kills the worker, not the daemon",
          flush=True)
    proc, client = start_daemon(
        "--cell-timeout", "1.0", "--retries", "1",
        state=os.path.join(_WORK, "timeout-state"),
    )
    try:
        hung = client.submit_body({
            "workloads": [SLOW_WORKLOAD], "policies": ["fifo"], "budgets": [8],
            "seeds": [1], "scale": HUNG_SCALE, "client": "smoke-timeout",
        })
        workers: list[int] = []
        deadline = time.monotonic() + 30.0
        while not workers and time.monotonic() < deadline:
            workers = client.health()["worker"]["pids"]
            time.sleep(0.05)
        final = client.wait(hung["job"], timeout_s=120)
        check(final["state"] == "failed", "the overrunning cell failed its job")
        try:
            serving = not client.health()["draining"]
        except ServiceUnavailableError:
            serving = False
        check(serving, "the daemon keeps serving after the kill")
        left = survivors(workers)
        check(bool(workers) and not left,
              f"the timed-out worker {workers} was killed (alive: {left})")
        after = client.submit_body(grid(["fifo"], seed=3) | {"client": "smoke-timeout"})
        check(client.wait(after["job"], timeout_s=120)["state"] == "done",
              "a later job runs on a fresh worker")
    finally:
        stop_daemon(proc)

    print("service smoke: all service guarantees exercised", flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        shutil.rmtree(_WORK, ignore_errors=True)
