"""Client tier of the sweep service: ``repro submit/status/fetch``.

A thin, dependency-free (``http.client``) JSON client for the daemon's
protocol (:mod:`repro.service.protocol`).  One connection per request —
the daemon speaks ``Connection: close`` — wrapped in a resilience layer
built for an unreliable path to the daemon (docs/service.md, "Overload &
resilience"):

* **jittered exponential backoff** (:class:`ClientRetryPolicy`) with a
  seeded jitter stream, so a retry schedule is exactly reproducible;
  a server ``Retry-After`` (429 shed / 503 drain) overrides the computed
  delay; a bounded retry budget caps total time spent waiting;
* **idempotent re-submit**: every submission carries an
  ``idempotency_key``; a retried ``POST /v1/jobs`` whose first attempt
  actually landed is answered with the original receipt instead of a
  duplicate job (and would be harmless even without the key — cells are
  content-addressed and dedup on their keys);
* **typed errors**: truncated or non-JSON response bodies raise
  :class:`ServiceProtocolError` (retryable) instead of leaking a bare
  ``json.JSONDecodeError``;
* a **circuit breaker** for connection-level failures: after
  ``failure_threshold`` consecutive failures the breaker opens and calls
  fail fast with :class:`CircuitOpenError`; after ``reset_after_s`` one
  half-open probe is let through and its outcome closes or re-opens the
  circuit.

The clock and sleep functions are injectable, so every time-dependent
behavior above is testable without waiting.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional
from urllib.parse import urlsplit

from ..harness.executor import RetryPolicy
from .protocol import DEFAULT_CLIENT, DEFAULT_HOST, DEFAULT_PORT

__all__ = [
    "DEFAULT_URL",
    "ServiceError",
    "ServiceUnavailableError",
    "ServiceProtocolError",
    "ServiceOverloadedError",
    "CircuitOpenError",
    "ClientRetryPolicy",
    "CircuitBreaker",
    "ServiceClient",
]

DEFAULT_URL = f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"


class ServiceError(RuntimeError):
    """The daemon answered with a non-200 status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceUnavailableError(ServiceError):
    """No daemon reachable at the configured URL."""

    def __init__(self, url: str, reason: str) -> None:
        RuntimeError.__init__(
            self, f"no sweep daemon reachable at {url} ({reason}); "
            "start one with `repro serve`"
        )
        self.status = 0
        self.message = reason


class ServiceProtocolError(ServiceError):
    """The daemon's response was truncated or not valid JSON.

    Distinct from :class:`ServiceError` so callers (and the retry loop)
    can tell "the daemon said no" from "the bytes never arrived whole" —
    the latter is a transport problem and safely retryable.
    """

    def __init__(self, status: int, reason: str) -> None:
        RuntimeError.__init__(
            self, f"malformed response from daemon (HTTP {status}): {reason}"
        )
        self.status = status
        self.message = reason


class ServiceOverloadedError(ServiceError):
    """429 (criticality shed) or 503 (draining), with the server's
    ``Retry-After`` hint when it sent one."""

    def __init__(
        self, status: int, message: str, retry_after_s: Optional[float]
    ) -> None:
        super().__init__(status, message)
        self.retry_after_s = retry_after_s


class CircuitOpenError(ServiceUnavailableError):
    """Failing fast: the circuit breaker is open after repeated
    connection-level failures; no request was attempted."""

    def __init__(self, url: str, retry_in_s: float) -> None:
        ServiceUnavailableError.__init__(
            self, url,
            f"circuit breaker open (probe allowed in {retry_in_s:.1f}s)",
        )


@dataclass(frozen=True)
class ClientRetryPolicy:
    """Retry/backoff behavior of one :class:`ServiceClient`.

    Shares the executor's :class:`~repro.harness.executor.RetryPolicy`
    backoff: exponential base doubling per attempt, jitter drawn from a
    seeded RNG so the schedule is reproducible, hard cap per delay; the
    client adds a total budget across one logical request.
    """

    #: Total tries per request (first attempt included).
    max_attempts: int = 5
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 30.0
    #: Seed of the jitter RNG; the stream restarts per request, so two
    #: identical requests see identical schedules.
    jitter_seed: int = 0
    #: Total seconds the client will spend sleeping between retries of
    #: one request before giving up with the last error.
    retry_budget_s: float = 60.0
    #: Obey a server ``Retry-After`` instead of the computed backoff.
    honor_retry_after: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s <= 0 or self.backoff_cap_s <= 0:
            raise ValueError("backoff values must be positive")
        if self.retry_budget_s < 0:
            raise ValueError("retry_budget_s must be >= 0")

    #: The one jittered exponential formula, read from this policy's own
    #: ``backoff_base_s``/``backoff_cap_s``.
    backoff_s = RetryPolicy.backoff_s

    def schedule(self, retries: Optional[int] = None) -> list[float]:
        """The deterministic delay sequence one request would see.

        ``schedule()[i]`` is the sleep before retry ``i + 1`` (server
        ``Retry-After`` overrides individual entries at run time).
        """
        n = self.max_attempts - 1 if retries is None else retries
        rng = random.Random(self.jitter_seed)
        return [self.backoff_s(attempt, rng) for attempt in range(1, n + 1)]

    @classmethod
    def none(cls) -> "ClientRetryPolicy":
        """Single attempt, no retries (the pre-overload-layer behavior)."""
        return cls(max_attempts=1)


class CircuitBreaker:
    """Open/half-open/closed breaker over connection-level failures.

    Not thread-safe on its own (each :class:`ServiceClient` owns one and
    the client itself is documented single-threaded); the clock is
    injectable for tests.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after_s: float = 15.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_after_s <= 0:
            raise ValueError("reset_after_s must be positive")
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self._clock = clock
        self.state = "closed"
        self.consecutive_failures = 0
        self._opened_at = 0.0

    def allow(self) -> bool:
        """May a request proceed right now?

        An open breaker lets exactly one probe through once
        ``reset_after_s`` has elapsed (transitioning to half-open); the
        probe's outcome closes or re-opens the circuit.
        """
        if self.state == "closed":
            return True
        if self.state == "open":
            if self._clock() - self._opened_at >= self.reset_after_s:
                self.state = "half-open"
                return True
            return False
        # half-open: one probe is already in flight.
        return False

    def retry_in_s(self) -> float:
        """Seconds until an open breaker will allow its probe."""
        if self.state != "open":
            return 0.0
        return max(0.0, self.reset_after_s - (self._clock() - self._opened_at))

    def record_success(self) -> None:
        self.state = "closed"
        self.consecutive_failures = 0

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if (
            self.state == "half-open"
            or self.consecutive_failures >= self.failure_threshold
        ):
            self.state = "open"
            self._opened_at = self._clock()


class ServiceClient:
    """Blocking JSON client for one sweep daemon (single-threaded)."""

    def __init__(
        self,
        url: str = DEFAULT_URL,
        timeout_s: float = 60.0,
        retry: Optional[ClientRetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        split = urlsplit(url if "//" in url else f"http://{url}")
        if split.scheme not in ("", "http"):
            raise ValueError(f"only http:// URLs are supported, got {url!r}")
        self.host = split.hostname or DEFAULT_HOST
        self.port = split.port or DEFAULT_PORT
        self.url = f"http://{self.host}:{self.port}"
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else ClientRetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._sleep = sleep

    # ------------------------------------------------------------- transport
    def _request_once(
        self,
        method: str,
        path: str,
        body: Optional[dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
    ) -> dict[str, Any]:
        """One HTTP exchange; raises the typed error for its outcome."""
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=timeout_s if timeout_s is not None else self.timeout_s,
        )
        try:
            payload = (
                json.dumps(body, sort_keys=True).encode("utf-8")
                if body is not None
                else None
            )
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            retry_after_raw = response.getheader("Retry-After")
        except (ConnectionError, socket.timeout, socket.gaierror,
                http.client.HTTPException, OSError) as exc:
            raise ServiceUnavailableError(self.url, str(exc)) from exc
        finally:
            conn.close()
        try:
            data = json.loads(raw.decode("utf-8")) if raw else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            # A complete HTTP status with an undecodable body: truncated
            # mid-flight, or not our daemon.  Typed so callers can retry.
            raise ServiceProtocolError(
                response.status, f"undecodable response body: {exc}"
            ) from exc
        if response.status != 200:
            message = (
                data.get("error", raw.decode("utf-8", "replace"))
                if isinstance(data, dict)
                else str(data)
            )
            if response.status in (429, 503):
                retry_after: Optional[float] = None
                if retry_after_raw is not None:
                    try:
                        retry_after = float(retry_after_raw)
                    except ValueError:
                        retry_after = None
                if retry_after is None and isinstance(data, dict):
                    hinted = data.get("retry_after_s")
                    if isinstance(hinted, (int, float)):
                        retry_after = float(hinted)
                raise ServiceOverloadedError(
                    response.status, message, retry_after
                )
            raise ServiceError(response.status, message)
        return data

    @staticmethod
    def _retryable(exc: ServiceError) -> bool:
        if isinstance(
            exc,
            (ServiceUnavailableError, ServiceProtocolError,
             ServiceOverloadedError),
        ):
            return True
        # Injected/transient infrastructure errors; the daemon's own
        # verdicts (400/404/409) are final.
        return exc.status >= 500

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
        idempotent: bool = True,
    ) -> dict[str, Any]:
        """Retry loop around :meth:`_request_once`.

        Non-idempotent requests (a POST without an idempotency key) are
        never retried.  The jitter RNG restarts here, so a request's
        backoff schedule is exactly ``retry.schedule()``.
        """
        policy = self.retry
        rng = random.Random(policy.jitter_seed)
        budget = policy.retry_budget_s
        attempt = 0
        while True:
            attempt += 1
            if not self.breaker.allow():
                raise CircuitOpenError(self.url, self.breaker.retry_in_s())
            try:
                result = self._request_once(
                    method, path, body=body, timeout_s=timeout_s
                )
            except ServiceError as exc:
                # Any complete HTTP response proves the connection path
                # works; only transport-level failures feed the breaker.
                if isinstance(
                    exc, (ServiceUnavailableError, ServiceProtocolError)
                ):
                    self.breaker.record_failure()
                else:
                    self.breaker.record_success()
                retryable = (
                    idempotent
                    and self._retryable(exc)
                    and attempt < policy.max_attempts
                )
                if not retryable:
                    raise
                delay = policy.backoff_s(attempt, rng)
                if (
                    policy.honor_retry_after
                    and isinstance(exc, ServiceOverloadedError)
                    and exc.retry_after_s is not None
                ):
                    delay = exc.retry_after_s
                if delay > budget:
                    raise
                budget -= delay
                if delay > 0:
                    self._sleep(delay)
                continue
            self.breaker.record_success()
            return result

    # ------------------------------------------------------------------- API
    def submit(
        self,
        workloads: list[str],
        policies: list[str],
        budgets: Optional[list[int]] = None,
        seeds: Optional[list[int]] = None,
        scale: float = 1.0,
        faults: str = "off",
        client: str = DEFAULT_CLIENT,
        criticality: Optional[str] = None,
    ) -> dict[str, Any]:
        """Submit a grid; returns the daemon's receipt (``job`` id &c.)."""
        body: dict[str, Any] = {
            "client": client,
            "workloads": workloads,
            "policies": policies,
            "budgets": budgets if budgets is not None else [8],
            "seeds": seeds if seeds is not None else [1],
            "scale": scale,
            "faults": faults,
        }
        if criticality is not None:
            body["criticality"] = criticality
        return self.submit_body(body)

    def submit_body(self, body: dict[str, Any]) -> dict[str, Any]:
        """Submit a raw protocol body (grid or explicit ``cells`` list).

        Injects a fresh ``idempotency_key`` when the body carries none:
        retries of this call can then never double-register the job, and
        even a duplicate registration would be harmless — cells are
        content-addressed and dedup on their keys.
        """
        if "idempotency_key" not in body:
            body = dict(body)
            body["idempotency_key"] = os.urandom(16).hex()
        return self._request("POST", "/v1/jobs", body=body)

    def status(
        self, job_id: str, detail: bool = False, wait_s: float = 0.0
    ) -> dict[str, Any]:
        """Job progress; ``wait_s > 0`` long-polls until the job settles."""
        query = []
        if detail:
            query.append("detail=1")
        if wait_s > 0:
            query.append(f"wait={wait_s:g}")
        path = f"/v1/jobs/{job_id}" + ("?" + "&".join(query) if query else "")
        timeout = self.timeout_s + wait_s if wait_s > 0 else None
        return self._request("GET", path, timeout_s=timeout)

    def wait(
        self, job_id: str, timeout_s: float = 3600.0, poll_s: float = 30.0
    ) -> dict[str, Any]:
        """Long-poll (in ``poll_s`` slices) until done/failed or timeout."""
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return self.status(job_id)
            status = self.status(job_id, wait_s=min(poll_s, remaining))
            if status.get("state") in ("done", "failed"):
                return status

    def fetch(self, job_id: str) -> dict[str, Any]:
        """Results of a finished job (serialized results + fingerprints)."""
        return self._request("GET", f"/v1/jobs/{job_id}/results")

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/v1/healthz")

    def drain(self) -> dict[str, Any]:
        """Ask the daemon to drain: stop admissions, finish in-flight
        work, checkpoint and exit."""
        return self._request(
            "POST", "/v1/admin/drain", body={}, idempotent=True
        )
