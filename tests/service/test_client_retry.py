"""Client-resilience tests: seeded backoff schedules, ``Retry-After``
override, retry budget, typed protocol errors on malformed responses,
and the circuit breaker — with injected sleep/clock, so no test waits."""

import random
import socket
import threading

import pytest

from repro.harness.executor import RetryPolicy
from repro.service.client import (
    CircuitBreaker,
    CircuitOpenError,
    ClientRetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceOverloadedError,
    ServiceProtocolError,
    ServiceUnavailableError,
)


def _client(policy=None, breaker=None):
    """A client pointed nowhere, with a recording no-op sleep."""
    sleeps = []
    client = ServiceClient(
        "http://127.0.0.1:1",
        retry=policy if policy is not None else ClientRetryPolicy(),
        breaker=breaker,
        sleep=sleeps.append,
    )
    return client, sleeps


class TestBackoffSchedule:
    def test_schedule_is_deterministic_per_seed(self):
        policy = ClientRetryPolicy(jitter_seed=42)
        assert policy.schedule() == policy.schedule()
        assert policy.schedule() != ClientRetryPolicy(jitter_seed=43).schedule()

    def test_schedule_is_jittered_exponential_and_capped(self):
        policy = ClientRetryPolicy(
            max_attempts=10, backoff_base_s=1.0, backoff_cap_s=8.0,
            jitter_seed=0,
        )
        schedule = policy.schedule()
        assert len(schedule) == 9
        for attempt, delay in enumerate(schedule, start=1):
            base = min(8.0, 1.0 * 2 ** (attempt - 1))
            # Jitter keeps each delay in [base/2, base].
            assert base / 2 <= delay <= base

    def test_client_and_executor_share_one_backoff(self):
        client = ClientRetryPolicy(
            max_attempts=8, backoff_base_s=0.5, backoff_cap_s=4.0,
            jitter_seed=7,
        )
        executor = RetryPolicy(
            backoff_base_s=0.5, backoff_cap_s=4.0, jitter_seed=7
        )
        rng = random.Random(executor.jitter_seed)
        assert client.schedule() == [
            executor.backoff_s(attempt, rng) for attempt in range(1, 8)
        ]

    def test_retries_follow_the_published_schedule(self):
        policy = ClientRetryPolicy(max_attempts=3, jitter_seed=5)
        client, sleeps = _client(policy)
        calls = []

        def flaky(method, path, body=None, timeout_s=None):
            calls.append(path)
            raise ServiceUnavailableError(client.url, "connection refused")

        client._request_once = flaky
        with pytest.raises(ServiceUnavailableError):
            client._request("GET", "/v1/healthz")
        assert len(calls) == 3
        assert sleeps == policy.schedule()

    def test_retry_after_overrides_computed_delay(self):
        client, sleeps = _client(ClientRetryPolicy(max_attempts=4))
        outcomes = [
            ServiceOverloadedError(429, "shed", 7.0),
            ServiceOverloadedError(503, "draining", 3.0),
            {"ok": True},
        ]

        def scripted(method, path, body=None, timeout_s=None):
            outcome = outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        client._request_once = scripted
        assert client._request("POST", "/v1/jobs", body={}) == {"ok": True}
        assert sleeps == [7.0, 3.0]

    def test_retry_after_ignored_when_disabled(self):
        policy = ClientRetryPolicy(max_attempts=2, honor_retry_after=False)
        client, sleeps = _client(policy)
        outcomes = [ServiceOverloadedError(429, "shed", 7.0), {"ok": True}]

        def scripted(method, path, body=None, timeout_s=None):
            outcome = outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        client._request_once = scripted
        client._request("POST", "/v1/jobs", body={})
        assert sleeps == policy.schedule()[:1]

    def test_retry_budget_bounds_total_sleep(self):
        policy = ClientRetryPolicy(max_attempts=10, retry_budget_s=5.0)
        client, sleeps = _client(policy)

        def overloaded(method, path, body=None, timeout_s=None):
            raise ServiceOverloadedError(429, "shed", 4.0)

        client._request_once = overloaded
        with pytest.raises(ServiceOverloadedError):
            client._request("POST", "/v1/jobs", body={})
        # 4.0 fits the budget once; the second 4.0 would exceed it.
        assert sleeps == [4.0]

    def test_non_idempotent_requests_never_retry(self):
        client, sleeps = _client(ClientRetryPolicy(max_attempts=5))
        calls = []

        def flaky(method, path, body=None, timeout_s=None):
            calls.append(path)
            raise ServiceUnavailableError(client.url, "reset")

        client._request_once = flaky
        with pytest.raises(ServiceUnavailableError):
            client._request("POST", "/v1/jobs", body={}, idempotent=False)
        assert len(calls) == 1 and sleeps == []

    def test_client_errors_are_final(self):
        client, sleeps = _client(ClientRetryPolicy(max_attempts=5))
        calls = []

        def not_found(method, path, body=None, timeout_s=None):
            calls.append(path)
            raise ServiceError(404, "unknown job")

        client._request_once = not_found
        with pytest.raises(ServiceError):
            client._request("GET", "/v1/jobs/j000042")
        assert len(calls) == 1 and sleeps == []


class TestProtocolErrors:
    def _one_shot_server(self, response: bytes) -> tuple[str, int]:
        """A raw TCP server answering exactly one connection."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def run():
            conn, _ = listener.accept()
            conn.recv(65536)
            conn.sendall(response)
            conn.close()
            listener.close()

        threading.Thread(target=run, daemon=True).start()
        return listener.getsockname()[0], listener.getsockname()[1]

    def test_truncated_json_body_raises_typed_protocol_error(self):
        garbage = b'{"job": "j0001'
        head = (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: " + str(len(garbage)).encode() + b"\r\n"
            b"Connection: close\r\n\r\n"
        )
        host, port = self._one_shot_server(head + garbage)
        client = ServiceClient(
            f"http://{host}:{port}", retry=ClientRetryPolicy.none(),
            timeout_s=10,
        )
        with pytest.raises(ServiceProtocolError, match="undecodable"):
            client.health()

    def test_protocol_error_is_retryable(self):
        client, sleeps = _client(ClientRetryPolicy(max_attempts=2))
        outcomes = [ServiceProtocolError(200, "truncated"), {"ok": True}]

        def scripted(method, path, body=None, timeout_s=None):
            outcome = outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        client._request_once = scripted
        assert client._request("GET", "/v1/healthz") == {"ok": True}
        assert len(sleeps) == 1


class TestCircuitBreaker:
    def test_opens_after_threshold_and_allows_half_open_probe(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=3, reset_after_s=10.0,
            clock=lambda: clock["now"],
        )
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_in_s() == 10.0
        clock["now"] = 10.0
        # Exactly one half-open probe.
        assert breaker.allow()
        assert breaker.state == "half-open"
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_s=5.0,
            clock=lambda: clock["now"],
        )
        breaker.record_failure()
        clock["now"] = 5.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_client_fails_fast_when_open(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=2, reset_after_s=60.0,
            clock=lambda: clock["now"],
        )
        client, _ = _client(ClientRetryPolicy(max_attempts=2), breaker)
        attempts = []

        def refused(method, path, body=None, timeout_s=None):
            attempts.append(path)
            raise ServiceUnavailableError(client.url, "refused")

        client._request_once = refused
        with pytest.raises(ServiceUnavailableError):
            client._request("GET", "/v1/healthz")
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            client._request("GET", "/v1/healthz")
        # No request was attempted while open.
        assert len(attempts) == 2

    def test_http_responses_do_not_feed_the_breaker(self):
        breaker = CircuitBreaker(failure_threshold=1)
        client, _ = _client(ClientRetryPolicy.none(), breaker)

        def conflict(method, path, body=None, timeout_s=None):
            raise ServiceError(409, "not fetchable")

        client._request_once = conflict
        with pytest.raises(ServiceError):
            client._request("GET", "/v1/jobs/j1/results")
        # A complete HTTP response proves the transport works.
        assert breaker.state == "closed"


class TestIdempotencyKeys:
    def test_submit_body_injects_a_fresh_key_per_call(self):
        client, _ = _client(ClientRetryPolicy.none())
        seen = []

        def capture(method, path, body=None, timeout_s=None):
            seen.append(body)
            return {"job": f"j{len(seen):06d}"}

        client._request_once = capture
        client.submit_body({"workloads": ["swaptions"]})
        client.submit_body({"workloads": ["swaptions"]})
        keys = [b["idempotency_key"] for b in seen]
        assert len(keys) == 2 and keys[0] != keys[1]
        assert all(len(k) == 32 for k in keys)

    def test_explicit_key_is_preserved(self):
        client, _ = _client(ClientRetryPolicy.none())
        seen = []

        def capture(method, path, body=None, timeout_s=None):
            seen.append(body)
            return {"job": "j000001"}

        client._request_once = capture
        client.submit_body({"workloads": ["x"], "idempotency_key": "mine"})
        assert seen[0]["idempotency_key"] == "mine"
