"""``svc_mixed``: two closed-loop clients against a ``repro serve`` daemon.

The daemon runs with ``--jobs 1`` on loopback.  One process drives it
from two client threads, each holding at most one connection at a time:

* ``web`` submits open-loop scenario cells whose tenant has a ``qos=``
  bound (the daemon derives high criticality from it) under CATA and
  FIFO, plus the benchmark's closed-loop CATA cell it is read against;
* ``batch`` submits small Figure 4 slices (one benchmark, fast=8, the
  four Figure 4 policies), which contain that same closed-loop cell.

A job is submit, long-poll until it settles, fetch.  Each client's job
sequence is drawn from the workload seed: a quarter of its jobs visit a
new (benchmark, seed) pair and are cold, the rest revisit a pair the
client already fetched and are fully warm.  Both clients draw from one
pool of pairs, so they sometimes ask for the same cell at once.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import measure
from measure import Checker, cell_label
from repro.harness.figure4 import FIGURE4_POLICIES as BATCH_POLICIES
from repro.harness.runner import PAPER_WORKLOADS as BENCHMARKS
from spans import Recorder, maybe_span

SCALE = 0.1
FAST = 8
WEB_POLICIES = ("cata", "fifo")
#: Jobs per client per second of ``--seconds``.
JOBS_PER_SECOND = 25
#: Pool pairs per first visit a client makes.
POOL_PER_NEW = 1.25
CLIENTS = ("web", "batch")


def scenario_for(bench: str) -> str:
    from repro.workloads.scenario import parse_scenario

    return parse_scenario(f"web:{bench}@poisson(rate=0.5,jobs=3)@qos=10ms").canonical()


def job_body(client: str, bench: str, seed: int) -> dict[str, Any]:
    if client == "batch":
        return {
            "client": "batch", "workloads": [bench], "policies": list(BATCH_POLICIES),
            "budgets": [FAST], "seeds": [seed], "scale": SCALE,
        }
    from repro.harness.executor import CellSpec
    from repro.service.protocol import spec_to_dict

    scenario = scenario_for(bench)
    cells = [CellSpec(bench, p, FAST, seed, SCALE, scenario=scenario) for p in WEB_POLICIES]
    cells.append(CellSpec(bench, "cata", FAST, seed, SCALE))
    return {"client": "web", "cells": [spec_to_dict(c) for c in cells]}


def pool(seed: int, n_jobs: int) -> list[tuple[str, int]]:
    """The (benchmark, simulation seed) pairs both clients draw from.

    A prefix of one fixed permutation, so a shorter run's pool is part of
    a longer run's and one reference file covers both."""
    n_seeds = math.ceil(POOL_PER_NEW * (n_jobs // 4) / len(BENCHMARKS))
    seeds = random.Random(seed).sample(range(1, 1000), 999)[:n_seeds]
    return [(b, s) for s in seeds for b in BENCHMARKS]


def sequence(seed: int, client: str, n_jobs: int) -> list[tuple[str, int]]:
    """A client's job sequence: exactly ``n_jobs // 4`` first visits,
    spread evenly over the benchmarks, and revisits of visited pairs."""
    rng = random.Random(f"{seed}:{client}")
    n_new = max(1, n_jobs // 4)
    by_bench: dict[str, list[tuple[str, int]]] = {b: [] for b in BENCHMARKS}
    for pair in pool(seed, n_jobs):
        by_bench[pair[0]].append(pair)
    for pairs in by_bench.values():
        rng.shuffle(pairs)
    fresh: list[tuple[str, int]] = []
    order = list(BENCHMARKS)
    while len(fresh) < n_new:
        rng.shuffle(order)
        fresh.extend(by_bench[b].pop() for b in order[: n_new - len(fresh)])
    new_at = {0} | set(rng.sample(range(1, n_jobs), n_new - 1))
    seq: list[tuple[str, int]] = []
    visited: list[tuple[str, int]] = []
    for i in range(n_jobs):
        if i in new_at:
            visited.append(fresh[len(visited)])
            seq.append(visited[-1])
        else:
            seq.append(rng.choice(visited))
    return seq


def jobs_per_client(seconds: float) -> int:
    return max(8, int(round(JOBS_PER_SECOND * seconds)))


def reference_specs(seed: int, seconds: float) -> list[tuple[str, Any]]:
    """Every cell any job of a ``seconds`` run's pool can ask for, as
    ``(label, CellSpec)``."""
    from repro.service.protocol import expand_submit

    cells: dict[str, Any] = {}
    for client in CLIENTS:
        for bench, s in pool(seed, jobs_per_client(seconds)):
            _, specs = expand_submit(job_body(client, bench, s))
            for spec in specs:
                label = cell_label(spec.workload, spec.policy, spec.fast, spec.seed,
                                   spec.scale, spec.trace_enabled, spec.scenario)
                cells.setdefault(label, spec)
    return list(cells.items())


# ------------------------------------------------------------------ daemon
class Daemon:
    """One ``repro serve --jobs 1`` process on an ephemeral loopback port."""

    def __init__(self, env: dict[str, str], tag: str) -> None:
        self.state = measure.fresh_dir("svc", tag)
        self.log = open(os.path.join(self.state, "daemon.log"), "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", "1", "--port", "0",
             "--state-dir", os.path.join(self.state, "state")],
            env=env, stdout=self.log, stderr=subprocess.STDOUT, cwd=measure.ROOT,
        )
        try:
            self.url = self._wait_ready(deadline=time.monotonic() + 60.0)
        except BaseException:
            self.stop()
            raise
        #: Launch until ``/v1/healthz`` first answered.
        self.ready_s = time.perf_counter() - t0

    def _wait_ready(self, deadline: float) -> str:
        endpoint = os.path.join(self.state, "state", "endpoint.json")
        url = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            if url is None:
                try:
                    with open(endpoint, encoding="utf-8") as fh:
                        url = json.load(fh)["url"]
                except (OSError, ValueError, KeyError):
                    time.sleep(0.002)
                    continue
            host, port = url[len("http://"):].rsplit(":", 1)
            conn = http.client.HTTPConnection(host, int(port), timeout=2.0)
            try:
                conn.request("GET", "/v1/healthz")
                if conn.getresponse().status == 200:
                    return url
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        raise RuntimeError("daemon did not answer /v1/healthz within 60s")

    def stop(self) -> None:
        """Drain the daemon and wait until it has exited."""
        from repro.service.client import ClientRetryPolicy, ServiceClient, ServiceError

        if self.proc.poll() is None and getattr(self, "url", None):
            try:
                ServiceClient(self.url, timeout_s=10, retry=ClientRetryPolicy.none()).drain()
            except ServiceError:
                pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.log.close()


def setup_seconds(env: dict[str, str], launches: int, tag: str) -> list[float]:
    """Daemon launch until healthz answers, over ``launches`` launches."""
    times = []
    for i in range(launches):
        daemon = Daemon(env, f"setup-{tag}{i}")
        daemon.stop()
        times.append(daemon.ready_s)
    return times


# ------------------------------------------------------------------- load
class Gauge:
    """Concurrent connections and retry sleeps across the load's clients."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.open = 0
        self.max_open = 0
        self.retries = 0
        self.threads: set[int] = set()

    def enter(self) -> None:
        with self._lock:
            self.open += 1
            self.max_open = max(self.max_open, self.open)
            self.threads.add(threading.get_ident())

    def leave(self) -> None:
        with self._lock:
            self.open -= 1

    def retry_sleep(self, seconds: float) -> None:
        with self._lock:
            self.retries += 1
        time.sleep(seconds)


def _client(url: str, gauge: Gauge):
    from repro.service.client import ServiceClient

    class CountingClient(ServiceClient):
        # Every HTTP exchange opens and closes exactly one connection
        # inside ``_request_once``; counting around it counts connections.
        def _request_once(self, *args: Any, **kwargs: Any) -> dict[str, Any]:
            gauge.enter()
            try:
                return super()._request_once(*args, **kwargs)
            finally:
                gauge.leave()

    return CountingClient(url, timeout_s=60.0, sleep=gauge.retry_sleep)


@dataclass
class JobRecord:
    client: str
    warm: bool = False
    ok: bool = False
    latency: float = float("inf")
    cells: int = 0
    submit: float = 0.0
    wait: float = 0.0
    fetch: float = 0.0
    simulate: float = 0.0
    fetch_bytes: int = 0
    unique: int = 0
    cached: int = 0
    attached: int = 0
    simulated: int = 0
    payload: Optional[dict[str, Any]] = None
    error: str = ""


@dataclass
class Load:
    records: list[JobRecord] = field(default_factory=list)
    wall: float = 0.0
    client_walls: list[float] = field(default_factory=list)
    gauge: Gauge = field(default_factory=Gauge)
    shed: int = 0
    daemon_retries: int = 0
    rec: Optional[Recorder] = None


def run_job(client: Any, name: str, bench: str, seed: int,
            rec: Optional[Recorder] = None) -> JobRecord:
    """Submit, long-poll, fetch.  The caller checks the fetched payload
    with :func:`verify` right away, outside the job's timed window."""
    body = job_body(name, bench, seed)
    job = JobRecord(client=name, cells=len(body.get("cells") or body["policies"]))
    t0 = time.perf_counter()
    try:
        with maybe_span(rec, "job", f"{name}:{bench}:s{seed}") as root:
            with maybe_span(rec, "service.submit"):
                receipt = client.submit_body(body)
            t1 = time.perf_counter()
            job.warm = receipt["cached"] == receipt["unique"]
            if root is not None:
                root.op = ("warm:" if job.warm else "cold:") + root.op
            with maybe_span(rec, "service.wait"):
                status = client.wait(receipt["job"], timeout_s=120.0, poll_s=30.0)
            t2 = time.perf_counter()
            if status.get("state") != "done":
                raise RuntimeError(f"job {receipt['job']} settled as {status.get('state')}")
            with maybe_span(rec, "service.fetch"):
                job.payload = client.fetch(receipt["job"])
            t3 = time.perf_counter()
    except Exception as exc:  # a failed job is counted, not fatal
        job.error = f"{name} job {bench}/s{seed}: {type(exc).__name__}: {exc}"
        return job
    job.latency = t3 - t0
    job.submit, job.wait, job.fetch = t1 - t0, t2 - t1, t3 - t2
    job.cached, job.attached = receipt["cached"], receipt["attached"]
    job.simulated = status.get("simulated", 0)
    job.unique = receipt["unique"]
    if rec is not None and not job.warm:
        # Split the long-poll span with the per-cell seconds of ?detail.
        with maybe_span(rec, "trace.detail"):
            detail = client.status(receipt["job"], detail=True)
        sim = sum(r["seconds"] for r in detail["detail"] if not r["from_cache"])
        job.simulate = min(sim, job.wait)
    return job


def verify(job: JobRecord, checker: Checker) -> None:
    """Output checks of one fetched job; sets ``job.ok``."""
    if job.payload is None:
        checker.fail(job.error)
        return
    payload = job.payload
    job.fetch_bytes = len(json.dumps(payload, sort_keys=True).encode("utf-8"))
    ok = payload.get("state") == "done" and len(payload["results"]) == job.unique
    if job.warm and job.simulated:
        checker.fail(f"{job.client}: a warm job simulated {job.simulated} cells")
        ok = False
    for item in payload["results"]:
        cell = item["cell"]
        label = cell_label(cell["workload"], cell["policy"], cell["fast"], cell["seed"],
                           cell["scale"], cell["trace"], cell["scenario"])
        digest = measure.fingerprint_dict(item["result"])
        if digest != item["fingerprint"]:
            checker.fail(f"{label}: served fingerprint does not match its result")
            ok = False
        ok = checker.check(label, digest) and ok
    job.ok = ok
    job.payload = None


def warm_up(url: str, checker: Checker) -> None:
    """A cold then warm job at a seed outside the pool: the daemon's lazy
    first-use costs (kernel load, imports) are always paid here."""
    client = _client(url, Gauge())
    for _ in range(2):
        verify(run_job(client, "batch", "swaptions", 0), checker)


def run_load(url: str, seed: int, n_jobs: int, checker: Checker,
             rec: Optional[Recorder] = None) -> Load:
    load = Load(rec=rec)
    lock = threading.Lock()

    def drive(name: str) -> None:
        client = _client(url, load.gauge)
        t0 = time.perf_counter()
        mine = []
        for b, s in sequence(seed, name, n_jobs):
            job = run_job(client, name, b, s, rec)
            # Checked (and its payload dropped) before the next submit, so
            # the client never holds more than one job's results.
            with maybe_span(rec, "perfbench.verify", job.client):
                verify(job, checker)
            mine.append(job)
        with lock:
            load.records.extend(mine)
            load.client_walls.append(time.perf_counter() - t0)

    threads = [threading.Thread(target=drive, args=(name,), name=f"client-{name}")
               for name in CLIENTS]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    load.wall = time.perf_counter() - t0
    from repro.service.client import ClientRetryPolicy, ServiceClient

    health = ServiceClient(url, retry=ClientRetryPolicy.none()).health()
    overload = health["overload"]
    load.shed = overload["shed_low"] + overload["shed_high"] + overload["shed_client_cap"]
    load.daemon_retries = health["stats"]["retries"]
    if load.shed:
        checker.fail(f"daemon shed {load.shed} submissions")
    return load


def e2e(load: Load) -> dict[str, float]:
    def lat(warm: bool) -> list[float]:
        return [r.latency for r in load.records if r.warm == warm]

    cold = [r for r in load.records if not r.warm and r.ok]
    cold_s = sum(r.latency for r in cold)
    done = sum(1 for r in load.records if r.ok)
    # Warm jobs are read at the host's slow speed: see measure.warm_rate.
    return {
        "cold_cells_per_s": sum(r.cells for r in cold) / cold_s if cold_s else 0.0,
        "warm_cells_per_s": measure.warm_rate(warm_rates(load)),
        "jobs_per_s": done / load.wall,
        "warm_job_p90_ms": 1e3 * measure.percentile(lat(True), 90),
        "warm_job_p95_ms": 1e3 * measure.percentile(lat(True), 95),
        "cold_job_p50_ms": 1e3 * measure.percentile(lat(False), 50),
        "cold_job_p90_ms": 1e3 * measure.percentile(lat(False), 90),
    }


def warm_rates(load: Load) -> list[float]:
    """Cells per second of each warm job (0 for a failed one)."""
    return [r.cells / r.latency if r.ok else 0.0 for r in load.records if r.warm]


def samples(load: Load) -> dict[str, int]:
    warm = sum(1 for r in load.records if r.warm)
    cold = len(load.records) - warm
    return {"warm_job_p90_ms": warm, "warm_job_p95_ms": warm,
            "cold_job_p50_ms": cold, "cold_job_p90_ms": cold}


def layer_metrics(traced: Load, untraced: Load) -> dict[str, float]:
    recs = [r for r in traced.records if r.ok]
    cold = [r for r in recs if not r.warm]

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return {
        "service.submit_ms": 1e3 * mean([r.submit for r in recs]),
        "service.queue_wait_ms": 1e3 * mean([r.wait - r.simulate for r in cold]),
        "service.simulate_ms": 1e3 * mean([r.simulate for r in cold]),
        "service.fetch_ms": 1e3 * mean([r.fetch for r in recs]),
        "service.fetch_bytes": mean([r.fetch_bytes for r in recs]),
        "service.cells_cached": sum(r.cached for r in traced.records),
        "service.cells_attached": sum(r.attached for r in traced.records),
        "service.cells_simulated": sum(r.simulated for r in traced.records),
        "service.retries": traced.gauge.retries + traced.daemon_retries,
        "service.shed": traced.shed,
        "service.max_connections": traced.gauge.max_open,
        "service.client_threads": len(traced.gauge.threads),
        "span.wall_s": traced.wall,
        "span.unaccounted_s": layer_table(traced)[-1][1],
        "span.overhead_ratio": traced.wall / untraced.wall - 1.0,
    }


def layer_table(traced: Load) -> list[tuple[str, float, int, float]]:
    """Client-side layer rows; the long-poll row is split in two."""
    rec = traced.rec
    assert rec is not None
    wall = sum(traced.client_walls)
    sim = sum(r.simulate for r in traced.records)
    rows = []
    accounted = 0.0
    for name, (self_s, n) in sorted(rec.self_times().items()):
        parts = [(name, self_s)]
        if name == "service.wait":
            parts = [("service.queue_wait", self_s - sim), ("service.simulate", sim)]
        for part, secs in parts:
            accounted += secs
            rows.append((part, secs, n, secs / wall if wall else 0.0))
    rest = wall - accounted
    rows.append(("unaccounted", rest, 0, rest / wall if wall else 0.0))
    return rows
