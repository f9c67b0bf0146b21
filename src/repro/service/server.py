"""Sweep service daemon: ``repro serve``.

Promotes the crash-proof sweep harness into long-running infrastructure.
Architecture, front to back:

* an **asyncio HTTP/JSON front** (:class:`ServiceServer`) — a minimal
  stdlib HTTP/1.1 loop over ``asyncio.start_server``, one JSON response
  per connection; long-polls park in ``asyncio.to_thread`` so they never
  block the event loop; request bodies are bounded (413 past
  :data:`~repro.service.protocol.MAX_BODY_BYTES`);
* an **admission controller** (:mod:`repro.service.overload`) — bounded
  queue depth and per-client in-flight caps; under pressure
  low-criticality submissions are shed first (``429 + Retry-After``,
  deterministic seeded decisions) while high-criticality jobs are
  admitted until a hard ceiling;
* the **service core** (:class:`SweepService`) — thread-safe job/cell
  bookkeeping: submissions expand to content-addressed cells, identical
  in-flight cells from different clients collapse onto one
  :class:`_CellTask` (simulated exactly once), warm cells are answered
  from the :class:`~repro.harness.cache.ResultCache` in O(1) with no
  simulation, and a :class:`~repro.service.fairness.FairScheduler`
  enforces per-client concurrency shares;
* the **worker tier** — one background thread feeding fair batches to
  an isolated :class:`~repro.harness.executor.SweepExecutor` (same
  retries, timeouts, pool recovery, journal), whose ``--jobs`` persistent
  worker processes run every cell beside the daemon, never in its
  interpreter: a simulating cell cannot hold the GIL that the HTTP front
  needs.  The workers are forked at the first batch that simulates and
  exit with the daemon (joined by a drain, killed with it by a SIGKILL).
  The same ``simulate_cell`` runs, so service results are
  bitwise-identical to the single-process CLI path.  A cell that overruns
  ``--cell-timeout`` has its worker killed by the executor (with
  ``--retries`` attempts), and a batch that raises anything fails its own
  unfinished cells while the worker thread keeps serving.

Durability: submissions are appended to ``<state>/jobs.jsonl`` (a
:class:`~repro.harness.journal.DurableLog`, fsynced like the sweep
journal) before they are acknowledged, and each cell lands in the result
cache and the sweep journal the moment it completes.  A SIGKILLed daemon
therefore restarts by replaying ``jobs.jsonl``: finished cells resolve
instantly from the cache (counted as *resumed* when the journal vouches
for them) and only genuinely unfinished cells are re-simulated.  SIGTERM
(or ``POST /v1/admin/drain``) is the *graceful* path: admissions stop
(503), the in-flight batch finishes and checkpoints, and the daemon exits
within a drain deadline — anything still queued resumes on the next start.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional
from urllib.parse import parse_qs, urlsplit

from ..harness.cache import ResultCache
from ..harness.executor import CellSpec, RetryPolicy, SweepExecutor
from ..harness.journal import DurableLog, SweepJournal
from ..runtime.system import RunResult
from ..sim.config import MachineConfig
from ..sim.serialize import result_to_dict
from .fairness import DEFAULT_SHARE, FairScheduler
from .overload import (
    AdmissionController,
    DrainingError,
    OverloadedError,
    OverloadPolicy,
    criticality_of,
)
from .protocol import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    MAX_BODY_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    expand_submit,
    result_fingerprint,
    spec_from_dict,
    spec_to_dict,
)

__all__ = [
    "SweepService",
    "ServiceServer",
    "ServiceShutdownError",
    "serve",
]

_PENDING = "pending"
_RUNNING = "running"
_DONE = "done"
_FAILED = "failed"


class ServiceShutdownError(RuntimeError):
    """The worker tier failed to stop within the drain deadline.

    Raised (after logging) instead of silently returning: a worker thread
    that outlives ``stop()`` is still mutating state the caller believes
    quiesced, and the exit code must say so.
    """


@dataclass
class _CellTask:
    """One unique in-flight cell, shared by every job that requested it."""

    spec: CellSpec
    key: str
    state: str = _PENDING
    #: Simulation seconds (0.0 when served from cache).
    seconds: float = 0.0
    #: Resolved from the warm cache, no simulation on behalf of anyone.
    from_cache: bool = False
    #: Vouched for by the sweep journal of an earlier daemon life.
    resumed: bool = False
    error: str = ""
    #: Client whose submission first enqueued the cell (in-flight
    #: accounting for the admission controller's per-client cap).
    client: str = ""
    #: Jobs subscribed for completion accounting (only those that were
    #: waiting on this cell at submit time; warm hits never subscribe).
    jobs: set[str] = field(default_factory=set)


@dataclass
class _Job:
    """One accepted submission."""

    job_id: str
    client: str
    #: Unique cell keys, submission order.
    keys: list[str]
    #: Requested cells including duplicates within the submission.
    requested: int
    #: Duplicates inside this submission (resolved once, fanned out).
    deduped: int = 0
    #: Cells already resolved when the job arrived (warm cache / an
    #: earlier job's finished work).
    cached_at_submit: int = 0
    #: Cells that were already queued or running for another client when
    #: this job arrived — deduplicated in flight, simulated exactly once.
    attached: int = 0
    #: Cells vouched for by the journal of a previous daemon life.
    resumed: int = 0
    #: Cells simulated after this job subscribed to them.
    simulated: int = 0
    #: Cells that resolved from cache after subscription (rare: another
    #: batch finished them between submit and dispatch).
    cached_after_submit: int = 0
    #: Keys already resolved when this job arrived — from this job's point
    #: of view they were served from the warm cache, whatever first
    #: resolved them.
    pre_resolved: set[str] = field(default_factory=set)


class SweepService:
    """Thread-safe core of the sweep daemon (usable without HTTP).

    Three kinds of threads share this object: ``asyncio.to_thread``
    handler threads (submit/status/fetch/drain), the dedicated
    sweep-worker thread, and executor callbacks (``_on_cell_complete``).
    The lock discipline below is machine-checked by ``repro check``
    (CONC2xx):

    @guarded_by("_cond"): _tasks, _jobs, _job_seq, scheduler, admission
    @guarded_by("_cond"): _draining, _idempotency, _client_inflight
    @guarded_by("_cond"): _worker, _abandoned

    The fsynced ``jobs.jsonl`` append runs outside ``_cond`` (submit
    releases it before logging), so a slow disk never stalls the HTTP
    handlers; the :class:`~repro.harness.journal.DurableLog` serializes
    appends on its own lock.
    """

    def __init__(
        self,
        state_dir: str,
        jobs: int = 1,
        retry: Optional[RetryPolicy] = None,
        machine: Optional[MachineConfig] = None,
        shares: Optional[dict[str, int]] = None,
        default_share: int = DEFAULT_SHARE,
        overload: Optional[OverloadPolicy] = None,
        drain_grace_s: float = 30.0,
        verbose: bool = False,
    ) -> None:
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        cache_dir = os.path.join(state_dir, "cache")
        self.cache = ResultCache(cache_dir)
        self.machine = machine
        self.journal = SweepJournal(os.path.join(cache_dir, "journal.jsonl"))
        self.executor = SweepExecutor(
            jobs=jobs,
            cache=self.cache,
            machine=machine,
            verbose=verbose,
            retry=retry,
            journal=self.journal,
            on_cell_complete=self._on_cell_complete,
            isolate=True,
        )
        self.scheduler = FairScheduler(default_share=default_share, shares=shares)
        self.admission = AdmissionController(overload)
        #: Worker join deadline for ``stop()``/drain.
        self.drain_grace_s = drain_grace_s
        #: Cells per worker batch: mirrors the executor's oversubscription
        #: window so the pool stays fed, small enough that fairness and
        #: in-flight dedup re-evaluate frequently.
        self.batch_size = max(2 * jobs, 4)
        self._cond = threading.Condition()
        self._tasks: dict[str, _CellTask] = {}
        self._jobs: dict[str, _Job] = {}
        self._job_seq = 1
        self._draining = False
        #: idempotency_key -> job id, for exactly-once client re-submits.
        self._idempotency: dict[str, str] = {}
        #: Unresolved (queued or running) cells per submitting client.
        self._client_inflight: dict[str, int] = {}
        self._jobs_log = DurableLog(os.path.join(state_dir, "jobs.jsonl"))
        self._started_monotonic = time.monotonic()
        self._stop = threading.Event()
        self._worker: Optional[threading.Thread] = None
        #: Set when the worker thread missed the stop deadline: it must
        #: not touch job state once its killed pool fails its batch.
        self._abandoned = False
        self.recovered_jobs = self._recover()

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Start the worker thread (idempotent)."""
        with self._cond:
            if self._worker is None:
                self._worker = threading.Thread(
                    target=self._worker_loop,
                    name="repro-sweep-worker",
                    daemon=True,
                )
                self._worker.start()

    def begin_drain(self) -> dict[str, Any]:
        """Stop admissions immediately; running work continues.

        Returns a drain summary.  New submissions are answered
        ``503 + Retry-After`` from this moment; the worker finishes its
        in-flight batch under :meth:`stop`, and everything still queued
        stays durable in ``jobs.jsonl`` for the next daemon life.
        """
        with self._cond:
            self._draining = True
            queued = self.scheduler.pending()
            running = sum(
                1 for t in self._tasks.values() if t.state == _RUNNING
            )
            self._cond.notify_all()
            return {
                "draining": True,
                "queued": queued,
                "running": running,
                "jobs": len(self._jobs),
            }

    def stop(self, timeout_s: Optional[float] = None) -> None:
        """Stop the worker tier; pending work persists in ``jobs.jsonl``.

        The in-flight batch is allowed to finish (and checkpoint through
        the journal) within ``timeout_s`` (default: ``drain_grace_s``);
        the executor is then closed, which joins its worker processes.
        A worker thread that fails to join by the deadline is abandoned,
        its worker processes are killed, and the miss is logged and
        surfaced as :class:`ServiceShutdownError` — never silent.
        """
        deadline = self.drain_grace_s if timeout_s is None else timeout_s
        self._stop.set()
        with self._cond:
            worker = self._worker
            self._worker = None
            self._cond.notify_all()
        stuck = False
        if worker is not None:
            worker.join(timeout=deadline)
            stuck = worker.is_alive()
        if stuck:
            with self._cond:
                self._abandoned = True
        self.executor.close(kill=stuck)
        # Both logs close on both paths: an abandoned thread that finishes
        # a cell late finds the journal closed and drops the line.
        self.journal.close()
        self._jobs_log.close()
        if stuck:
            message = (
                f"sweep worker thread failed to stop within {deadline:.1f}s; "
                "its worker processes were killed"
            )
            print(f"repro-serve: ERROR: {message}", file=sys.stderr, flush=True)
            raise ServiceShutdownError(message)

    # ------------------------------------------------------------ durability
    def _recover(self) -> int:
        """Replay ``jobs.jsonl``: re-register every job of previous daemon
        lives.  Finished cells resolve instantly from the cache; only the
        unfinished remainder re-enters the queue.  Recovery bypasses
        admission control — these jobs were already accepted."""
        recovered = 0
        for entry in self._jobs_log.read():
            try:
                job_id = str(entry["job"])
                client = str(entry["client"])
                specs = [spec_from_dict(c) for c in entry["cells"]]
            except (KeyError, TypeError, ValueError):
                continue  # not a job entry: skip, don't crash
            self._register(job_id, client, specs, self._keyed(specs))
            seq = _job_seq_of(job_id)
            idem = entry.get("idempotency")
            with self._cond:
                if seq is not None:
                    self._job_seq = max(self._job_seq, seq + 1)
                if idem is not None:
                    self._idempotency[str(idem)] = job_id
            recovered += 1
        return recovered

    # ------------------------------------------------------------ submission
    def submit(self, body: Any) -> dict[str, Any]:
        """Accept one submit request; returns the receipt.

        Raises :class:`~repro.service.overload.DrainingError` while
        draining and :class:`~repro.service.overload.OverloadedError`
        when the admission controller sheds the submission.
        """
        client, specs = expand_submit(body)
        criticality = criticality_of(body, specs)
        idem = (
            str(body["idempotency_key"])
            if isinstance(body, dict) and body.get("idempotency_key")
            else None
        )
        # Content-address outside the lock (hashing is CPU, not state).
        keyed = self._keyed(specs)
        with self._cond:
            if self._draining:
                raise DrainingError()
            if idem is not None and idem in self._idempotency:
                replay = self._jobs.get(self._idempotency[idem])
                if replay is not None:
                    # The first attempt landed; the retry gets the same
                    # receipt instead of a duplicate job.
                    return self._receipt(replay)
            # Upper bound on this submission's new load: keys not already
            # resolved or in flight (warm-cache hits resolve later, at
            # registration, without ever being enqueued).
            new_cells = sum(
                1
                for key in keyed.values()
                if (task := self._tasks.get(key)) is None
                or task.state == _FAILED
            )
            decision = self.admission.decide(
                client,
                criticality,
                new_cells,
                queue_depth=sum(self._client_inflight.values()),
                client_inflight=self._client_inflight.get(client, 0),
            )
            if not decision.admitted:
                raise OverloadedError(decision.reason, decision.retry_after_s)
            job_id = f"j{self._job_seq:06d}"
            self._job_seq += 1
        entry: dict[str, Any] = {
            "job": job_id,
            "client": client,
            "cells": [spec_to_dict(s) for s in specs],
            "criticality": criticality,
        }
        if idem is not None:
            entry["idempotency"] = idem
        # Durable before acknowledged: a SIGKILLed daemon must be able to
        # finish every job it ever accepted.
        self._jobs_log.append(entry)
        job = self._register(job_id, client, specs, keyed)
        if idem is not None:
            with self._cond:
                self._idempotency[idem] = job_id
        return self._receipt(job)

    def _keyed(self, specs: list[CellSpec]) -> dict[CellSpec, str]:
        """Unique specs, submission order, each with its cell key."""
        return {spec: spec.key(self.machine) for spec in dict.fromkeys(specs)}

    def _register(
        self,
        job_id: str,
        client: str,
        specs: list[CellSpec],
        keyed: dict[CellSpec, str],
    ) -> _Job:
        """Register a job whose unique cells ``keyed`` (from
        :meth:`_keyed`) the caller addressed outside ``_cond``."""
        with self._cond:
            job = _Job(
                job_id=job_id,
                client=client,
                keys=list(keyed.values()),
                requested=len(specs),
                deduped=len(specs) - len(keyed),
            )
            for spec, key in keyed.items():
                task = self._tasks.get(key)
                if task is not None and task.state in (_PENDING, _RUNNING):
                    # In-flight dedup: another client already queued this
                    # exact cell; subscribe instead of re-simulating.
                    task.jobs.add(job_id)
                    job.attached += 1
                    continue
                if task is not None and task.state == _DONE:
                    job.cached_at_submit += 1
                    job.pre_resolved.add(key)
                    if task.resumed:
                        job.resumed += 1
                    continue
                # Unknown (or previously failed) cell: O(1) warm-cache
                # probe first, simulate only on a genuine miss.
                cached = self.cache.get(key)
                if cached is not None:
                    resumed = key in self.journal.completed
                    self._tasks[key] = _CellTask(
                        spec=spec,
                        key=key,
                        state=_DONE,
                        seconds=self.journal.seconds.get(key, 0.0),
                        from_cache=True,
                        resumed=resumed,
                    )
                    job.cached_at_submit += 1
                    job.pre_resolved.add(key)
                    if resumed:
                        job.resumed += 1
                    continue
                task = _CellTask(spec=spec, key=key, client=client)
                task.jobs.add(job_id)
                self._tasks[key] = task
                self.scheduler.enqueue(client, task)
                self._client_inflight[client] = (
                    self._client_inflight.get(client, 0) + 1
                )
            self._jobs[job_id] = job
            self._cond.notify_all()
        return job

    def _receipt(self, job: _Job) -> dict[str, Any]:
        pending = (
            len(job.keys) - job.cached_at_submit - job.attached
        )
        return {
            "job": job.job_id,
            "client": job.client,
            "cells": job.requested,
            "unique": len(job.keys),
            "deduped": job.deduped,
            "cached": job.cached_at_submit,
            "attached": job.attached,
            "pending": pending,
            "resumed": job.resumed,
        }

    def _dec_inflight_locked(self, task: _CellTask) -> None:
        """Release one unit of the enqueuing client's in-flight budget."""
        count = self._client_inflight.get(task.client)
        if count is None:
            return
        if count <= 1:
            del self._client_inflight[task.client]
        else:
            self._client_inflight[task.client] = count - 1

    # ------------------------------------------------------------ worker tier
    def _worker_loop(self) -> None:
        """Feed fair batches to the executor until :meth:`stop`.

        One handler covers taking a batch and running it.  Whatever
        escapes — exhausted retries, a cell timeout, a non-retryable cell
        error, a ``SystemExit`` a worker process handed back — fails every
        RUNNING cell (with one worker thread, exactly the current batch's
        unfinished cells: the executor already checkpointed the ones that
        finished), and the thread keeps serving.  Catching
        ``BaseException`` gives nothing up here: this is not the main
        thread, so no interrupt is delivered to it and a ``SystemExit``
        would only end the thread, never the daemon.
        """
        while not self._stop.is_set():
            try:
                with self._cond:
                    batch = self._take_batch_locked()
                    if not batch:
                        self._cond.wait(timeout=0.25)
                        continue
                self.executor.run_cells([task.spec for task in batch])
            except BaseException as exc:  # the daemon must survive any batch
                with self._cond:
                    if self._abandoned:
                        return
                    for task in self._tasks.values():
                        if task.state == _RUNNING:
                            task.state = _FAILED
                            task.error = f"{type(exc).__name__}: {exc}"
                            self._dec_inflight_locked(task)
                    self._cond.notify_all()

    def _take_batch_locked(self) -> list[_CellTask]:
        batch: list[_CellTask] = []
        while len(batch) < self.batch_size:
            taken = self.scheduler.take(self.batch_size - len(batch))
            if not taken:
                break
            for task in taken:
                # A cell can have been resolved (or failed) since it was
                # queued — e.g. by a previous batch it was attached to.
                if task.state == _PENDING:
                    task.state = _RUNNING
                    batch.append(task)
        return batch

    def _on_cell_complete(
        self,
        spec: CellSpec,
        key: str,
        result: RunResult,
        seconds: float,
        from_cache: bool,
    ) -> None:
        """Executor hook: journal-backed per-cell progress streaming."""
        with self._cond:
            task = self._tasks.get(key)
            if task is None:
                return
            if task.state in (_PENDING, _RUNNING):
                self._dec_inflight_locked(task)
            task.state = _DONE
            task.seconds = seconds
            task.from_cache = from_cache
            task.error = ""
            for job_id in task.jobs:
                job = self._jobs.get(job_id)
                if job is None:
                    continue
                if from_cache:
                    job.cached_after_submit += 1
                else:
                    job.simulated += 1
            task.jobs.clear()
            self._cond.notify_all()

    # ------------------------------------------------------------ queries
    def status(self, job_id: str, detail: bool = False) -> dict[str, Any]:
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            return self._status_locked(job, detail)

    def _status_locked(self, job: _Job, detail: bool) -> dict[str, Any]:
        counts = {_PENDING: 0, _RUNNING: 0, _DONE: 0, _FAILED: 0}
        rows: list[dict[str, Any]] = []
        for key in job.keys:
            task = self._tasks[key]
            counts[task.state] += 1
            if detail:
                rows.append(
                    {
                        "label": task.spec.label(),
                        "key": key,
                        "state": task.state,
                        "seconds": round(task.seconds, 6),
                        "from_cache": task.from_cache,
                        "resumed": task.resumed,
                        "error": task.error,
                    }
                )
        if counts[_FAILED]:
            state = _FAILED
        elif counts[_DONE] == len(job.keys):
            state = _DONE
        elif counts[_RUNNING] or counts[_DONE]:
            state = _RUNNING
        else:
            state = "queued"
        payload: dict[str, Any] = {
            "job": job.job_id,
            "client": job.client,
            "state": state,
            "cells": job.requested,
            "unique": len(job.keys),
            "deduped": job.deduped,
            "pending": counts[_PENDING],
            "running": counts[_RUNNING],
            "done": counts[_DONE],
            "failed": counts[_FAILED],
            "cached": job.cached_at_submit + job.cached_after_submit,
            "attached": job.attached,
            "simulated": job.simulated,
            "resumed": job.resumed,
        }
        if detail:
            payload["detail"] = rows
        return payload

    def wait_settled(self, job_id: str, timeout_s: float) -> dict[str, Any]:
        """Block until the job settles (done/failed) or the deadline
        passes; returns the final status either way (long-poll body)."""
        deadline = time.monotonic() + max(0.0, timeout_s)
        with self._cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    raise KeyError(job_id)
                status = self._status_locked(job, detail=False)
                remaining = deadline - time.monotonic()
                if status["state"] in (_DONE, _FAILED) or remaining <= 0:
                    return status
                self._cond.wait(timeout=min(remaining, 1.0))

    def fetch(self, job_id: str) -> dict[str, Any]:
        """Results of a finished job, each with its SHA-256 fingerprint."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            status = self._status_locked(job, detail=False)
            if status["state"] != _DONE:
                raise _NotDone(status["state"])
            tasks = [self._tasks[key] for key in job.keys]
            pre_resolved = set(job.pre_resolved)
        results = []
        for task in tasks:
            result = self.cache.get(task.key)
            if result is None:
                # Quarantined/evicted behind our back; recoverable by
                # resubmitting (the cell will re-simulate).
                raise _NotDone(f"result for {task.spec.label()} missing from cache")
            results.append(
                {
                    "label": task.spec.label(),
                    "cell": spec_to_dict(task.spec),
                    "key": task.key,
                    "fingerprint": result_fingerprint(result),
                    "seconds": round(task.seconds, 6),
                    "from_cache": task.from_cache or task.key in pre_resolved,
                    "result": result_to_dict(result),
                }
            )
        payload = dict(status)
        payload["results"] = results
        return payload

    def health(self) -> dict[str, Any]:
        stats = self.executor.stats
        with self._cond:
            active = sum(
                1
                for task in self._tasks.values()
                if task.state in (_PENDING, _RUNNING)
            )
            worker = self._worker
            return {
                "ok": True,
                "version": PROTOCOL_VERSION,
                "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
                "draining": self._draining,
                "jobs": len(self._jobs),
                "recovered_jobs": self.recovered_jobs,
                "active_cells": active,
                "known_cells": len(self._tasks),
                "worker": {
                    "alive": worker.is_alive() if worker is not None else False,
                    "pids": self.executor.worker_pids(),
                },
                "overload": self.admission.snapshot(),
                "stats": {
                    "cells": stats.cells,
                    "cache_hits": stats.cache_hits,
                    "deduped": stats.deduped,
                    "simulated": stats.simulated,
                    "resumed": stats.resumed,
                    "retries": stats.retries,
                    "timeouts": stats.timeouts,
                    "pool_crashes": stats.pool_crashes,
                    "sim_seconds": round(stats.sim_seconds, 6),
                },
            }


def _job_seq_of(job_id: str) -> Optional[int]:
    if job_id.startswith("j") and job_id[1:].isdigit():
        return int(job_id[1:])
    return None


class _NotDone(Exception):
    """Job not in a fetchable state; maps to HTTP 409."""


# ---------------------------------------------------------------- HTTP front
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServiceServer:
    """Minimal stdlib HTTP/1.1 front over a :class:`SweepService`."""

    def __init__(
        self,
        service: SweepService,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        on_drain: Optional[Callable[[], None]] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        #: Called (on the event loop) after a drain request has stopped
        #: admissions; ``serve()`` uses it to schedule process exit.
        self.on_drain = on_drain
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the actual ``(host, port)``
        (``port=0`` picks a free one)."""
        self.service.start()
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self._write_endpoint_file()
        return self.host, self.port

    def _write_endpoint_file(self) -> None:
        """Drop ``<state>/endpoint.json`` so clients and smoke harnesses
        can find a daemon bound to an ephemeral port."""
        path = os.path.join(self.service.state_dir, "endpoint.json")
        try:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "host": self.host,
                        "port": self.port,
                        "pid": os.getpid(),
                        "url": f"http://{self.host}:{self.port}",
                    },
                    fh,
                    sort_keys=True,
                )
        except OSError:
            pass

    async def stop(self) -> None:
        """Close the HTTP front, then stop the worker tier gracefully.

        Propagates :class:`ServiceShutdownError` if the worker misses
        the drain deadline — ``serve()`` turns that into a nonzero exit.
        """
        if self._server is not None:
            for sock in self._server.sockets:
                # Forked simulation workers hold copies of the listening
                # socket; shutting it down stops the port accepting for
                # every holder, where close() only drops this process's
                # copy.  (Linux; elsewhere close() alone applies.)
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            # A connection the loop accepted just before the shutdown
            # attaches to the server in a task of its own; one loop turn
            # lets it run.  After close() that task fails, and asyncio
            # then never closes the accepted socket.
            await asyncio.sleep(0)
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.to_thread(self.service.stop)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status, payload = 500, {"error": "internal error"}
        extra_headers: dict[str, str] = {}
        try:
            request = await asyncio.wait_for(reader.readline(), timeout=30.0)
            parts = request.decode("latin-1").split()
            if len(parts) < 2:
                raise _BadRequest("malformed request line")
            method, target = parts[0].upper(), parts[1]
            headers: dict[str, str] = {}
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=30.0)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            try:
                length = int(headers.get("content-length", "0") or "0")
            except ValueError:
                raise _BadRequest("content-length is not an integer") from None
            if length < 0:
                raise _BadRequest("content-length is negative")
            if length > MAX_BODY_BYTES:
                # Reject before buffering a byte: an oversized (or
                # forever-streaming) body must not balloon the daemon.
                status, payload = 413, {
                    "error": f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit"
                }
            else:
                body = (
                    await asyncio.wait_for(
                        reader.readexactly(length), timeout=30.0
                    )
                    if length > 0
                    else b""
                )
                status, payload, extra_headers = await self._route(
                    method, target, body
                )
        except _BadRequest as exc:
            status, payload = 400, {"error": str(exc)}
        except (asyncio.IncompleteReadError, asyncio.TimeoutError):
            status, payload = 400, {"error": "truncated request"}
        except ConnectionError:
            writer.close()
            return
        except Exception as exc:  # one bad request must not
            # take the daemon down.
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        try:
            blob = json.dumps(payload, sort_keys=True).encode("utf-8")
            reason = _REASONS.get(status, "OK")
            head_lines = [
                f"HTTP/1.1 {status} {reason}",
                "Content-Type: application/json",
                f"Content-Length: {len(blob)}",
            ]
            head_lines += [f"{k}: {v}" for k, v in extra_headers.items()]
            head_lines.append("Connection: close")
            head = "\r\n".join(head_lines) + "\r\n\r\n"
            writer.write(head.encode("latin-1") + blob)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        split = urlsplit(target)
        path = split.path.rstrip("/")
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        if method == "POST" and path == "/v1/jobs":
            try:
                parsed = json.loads(body.decode("utf-8")) if body else {}
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise _BadRequest(f"body is not valid JSON: {exc}") from exc
            try:
                # Submission writes fsynced state; keep it off the loop.
                receipt = await asyncio.to_thread(self.service.submit, parsed)
            except ProtocolError as exc:
                return 400, {"error": str(exc)}, {}
            except OverloadedError as exc:
                return (
                    429,
                    {
                        "error": f"overloaded: {exc.reason}",
                        "retry_after_s": exc.retry_after_s,
                    },
                    {"Retry-After": _retry_after_header(exc.retry_after_s)},
                )
            except DrainingError as exc:
                return (
                    503,
                    {
                        "error": str(exc),
                        "retry_after_s": exc.retry_after_s,
                    },
                    {"Retry-After": _retry_after_header(exc.retry_after_s)},
                )
            return 200, receipt, {}
        if method == "POST" and path == "/v1/admin/drain":
            summary = await asyncio.to_thread(self.service.begin_drain)
            if self.on_drain is not None:
                # Admissions are already off; schedule the actual exit
                # after this response has gone out.
                loop = asyncio.get_running_loop()
                loop.call_soon(self.on_drain)
            return 200, summary, {}
        if method == "GET" and path == "/v1/healthz":
            return 200, self.service.health(), {}
        if method == "GET" and path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            try:
                if rest.endswith("/results"):
                    job_id = rest[: -len("/results")]
                    return 200, await asyncio.to_thread(
                        self.service.fetch, job_id
                    ), {}
                job_id = rest
                wait_s = float(query.get("wait", "0") or "0")
                detail = query.get("detail", "0") not in ("0", "", "false")
                if wait_s > 0:
                    status = await asyncio.to_thread(
                        self.service.wait_settled, job_id, min(wait_s, 300.0)
                    )
                    if detail:
                        status = self.service.status(job_id, detail=True)
                    return 200, status, {}
                return 200, self.service.status(job_id, detail=detail), {}
            except KeyError:
                return 404, {"error": f"unknown job {rest.split('/')[0]!r}"}, {}
            except _NotDone as exc:
                return 409, {"error": f"job not fetchable: {exc}"}, {}
            except ValueError as exc:
                raise _BadRequest(str(exc)) from exc
        return 404, {"error": f"no route for {method} {path}"}, {}


def _retry_after_header(retry_after_s: float) -> str:
    """HTTP ``Retry-After`` wants integral seconds; round up, floor 1."""
    return str(max(1, int(round(retry_after_s))))


class _BadRequest(Exception):
    pass


def serve(
    state_dir: str,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    jobs: int = 1,
    retry: Optional[RetryPolicy] = None,
    shares: Optional[dict[str, int]] = None,
    default_share: int = DEFAULT_SHARE,
    overload: Optional[OverloadPolicy] = None,
    drain_grace_s: float = 30.0,
    verbose: bool = False,
) -> int:
    """Blocking entry point for ``repro serve``; returns an exit code.

    SIGTERM/SIGINT and ``POST /v1/admin/drain`` all take the graceful
    path: admissions stop immediately (503 + Retry-After), the in-flight
    batch finishes and checkpoints, and the process exits within
    ``drain_grace_s`` — exit code 1 if the worker tier missed the
    deadline, 0 on a clean drain.
    """
    service = SweepService(
        state_dir,
        jobs=jobs,
        retry=retry,
        shares=shares,
        default_share=default_share,
        overload=overload,
        drain_grace_s=drain_grace_s,
        verbose=verbose,
    )
    server = ServiceServer(service, host=host, port=port)
    exit_code = 0

    async def _main() -> None:
        nonlocal exit_code
        stop = asyncio.Event()
        server.on_drain = stop.set
        bound_host, bound_port = await server.start()
        print(
            f"repro-serve listening on http://{bound_host}:{bound_port} "
            f"(state dir {state_dir!r}, jobs={jobs}, "
            f"recovered {service.recovered_jobs} jobs)",
            flush=True,
        )
        loop = asyncio.get_running_loop()

        def _graceful(signame: str) -> None:
            # Admissions stop the instant the signal lands; the drain
            # itself (worker join, checkpoints) runs after stop.wait().
            print(f"repro-serve: {signame}: draining", flush=True)
            service.begin_drain()
            stop.set()

        try:
            import signal as _signal

            for sig in (_signal.SIGINT, _signal.SIGTERM):
                loop.add_signal_handler(
                    sig, _graceful, _signal.Signals(sig).name
                )
        except (NotImplementedError, OSError):  # pragma: no cover — non-POSIX
            pass
        await stop.wait()
        print("repro-serve shutting down (graceful drain)", flush=True)
        try:
            await server.stop()
        except ServiceShutdownError as exc:
            print(f"repro-serve: drain failed: {exc}", file=sys.stderr,
                  flush=True)
            exit_code = 1
            return
        print("repro-serve drained cleanly", flush=True)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover — belt and braces
        pass
    return exit_code
