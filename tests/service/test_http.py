"""End-to-end tests over a live HTTP daemon: a real :class:`ServiceServer`
bound to an ephemeral port, driven through :class:`ServiceClient` — the
exact stack ``repro submit``/``status``/``fetch`` use."""

import asyncio
import http.client
import json
import os
import socket
import threading
import time

import pytest

from repro.service.client import (
    ClientRetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceOverloadedError,
)
from repro.service.overload import OverloadPolicy
from repro.service.protocol import MAX_BODY_BYTES
from repro.service.server import ServiceServer, SweepService
from tests import cells

SCALE = 0.05


class _LiveServer:
    """A ServiceServer running on its own asyncio loop in a daemon thread."""

    def __init__(self, state_dir, **service_kwargs):
        self.service = SweepService(state_dir, jobs=1, **service_kwargs)
        self.server = ServiceServer(self.service, host="127.0.0.1", port=0)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result(timeout=10)
        self.url = f"http://{self.server.host}:{self.server.port}"

    def close(self):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture
def live(tmp_path):
    server = _LiveServer(str(tmp_path / "state"))
    yield server
    server.close()


def _submit(svc_client, **overrides):
    kwargs = {
        "workloads": ["swaptions"],
        "policies": ["fifo", "cata"],
        "budgets": [8],
        "seeds": [1],
        "scale": SCALE,
    }
    kwargs.update(overrides)
    return svc_client.submit(**kwargs)


class TestRoundtrip:
    def test_submit_wait_fetch(self, live):
        client = ServiceClient(live.url)
        receipt = _submit(client, client="cli-test")
        assert receipt["cells"] == 2
        status = client.wait(receipt["job"], timeout_s=120)
        assert status["state"] == "done"
        assert status["simulated"] == 2
        fetched = client.fetch(receipt["job"])
        assert len(fetched["results"]) == 2
        for row in fetched["results"]:
            assert len(row["fingerprint"]) == 64
            assert row["result"]["exec_time_ns"] > 0

    def test_warm_resubmit_over_http_simulates_nothing(self, live):
        client = ServiceClient(live.url)
        first = _submit(client)
        client.wait(first["job"], timeout_s=120)
        second = _submit(client)
        assert second["cached"] == 2
        status = client.wait(second["job"], timeout_s=30)
        assert status["state"] == "done"
        assert status["simulated"] == 0
        f1 = client.fetch(first["job"])
        f2 = client.fetch(second["job"])
        assert [r["fingerprint"] for r in f1["results"]] == [
            r["fingerprint"] for r in f2["results"]
        ]

    def test_status_detail_and_longpoll(self, live):
        client = ServiceClient(live.url)
        receipt = _submit(client, policies=["fifo"])
        # Long-poll: one request that returns only once the job settles.
        status = client.status(receipt["job"], wait_s=60)
        assert status["state"] == "done"
        detail = client.status(receipt["job"], detail=True)
        assert [row["state"] for row in detail["detail"]] == ["done"]

    def test_healthz(self, live):
        client = ServiceClient(live.url)
        health = client.health()
        assert health["ok"] is True
        assert health["jobs"] == 0
        assert "stats" in health


class TestErrorMapping:
    def test_unknown_job_is_404(self, live):
        client = ServiceClient(live.url)
        with pytest.raises(ServiceError) as err:
            client.status("j424242")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.fetch("j424242")
        assert err.value.status == 404

    def test_bad_submission_is_400(self, live):
        client = ServiceClient(live.url)
        with pytest.raises(ServiceError) as err:
            _submit(client, workloads=["not-a-workload"])
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.submit_body({"cells": "nope"})
        assert err.value.status == 400

    def test_fetch_before_done_is_409(self, live):
        # Park a job behind a worker tier that never picks it up: stop the
        # worker thread first so the cell stays queued.
        live.service.stop()
        client = ServiceClient(live.url, timeout_s=10)
        receipt = client.submit_body(
            {
                "workloads": ["swaptions"],
                "policies": ["fifo"],
                "budgets": [8],
                "seeds": [7],
                "scale": SCALE,
            }
        )
        with pytest.raises(ServiceError) as err:
            client.fetch(receipt["job"])
        assert err.value.status == 409

    def test_malformed_body_is_400_and_daemon_survives(self, live):
        conn = http.client.HTTPConnection(
            live.server.host, live.server.port, timeout=10
        )
        conn.request(
            "POST", "/v1/jobs", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        assert resp.status == 400
        resp.read()
        conn.close()
        # The daemon shrugged it off and still serves.
        assert ServiceClient(live.url).health()["ok"] is True

    def test_infinite_scale_is_400(self, live):
        conn = http.client.HTTPConnection(
            live.server.host, live.server.port, timeout=10
        )
        conn.request(
            "POST", "/v1/jobs",
            body=(
                b'{"workloads": ["swaptions"], "policies": ["fifo"], '
                b'"budgets": [8], "seeds": [1], "scale": Infinity}'
            ),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        assert resp.status == 400
        assert "scale" in json.loads(resp.read())["error"]
        conn.close()
        assert ServiceClient(live.url).health()["ok"] is True

    def test_unknown_route_is_404(self, live):
        conn = http.client.HTTPConnection(
            live.server.host, live.server.port, timeout=10
        )
        conn.request("GET", "/v1/nope")
        resp = conn.getresponse()
        assert resp.status == 404
        resp.read()
        conn.close()


class TestBodyLimits:
    def test_oversized_body_is_413_before_buffering(self, live):
        conn = http.client.HTTPConnection(
            live.server.host, live.server.port, timeout=10
        )
        # Announce an absurd body and send none: the daemon must answer
        # from the header alone instead of buffering (or waiting for) it.
        conn.putrequest("POST", "/v1/jobs")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
        conn.endheaders()
        resp = conn.getresponse()
        assert resp.status == 413
        assert b"exceeds" in resp.read()
        conn.close()
        assert ServiceClient(live.url).health()["ok"] is True

    def test_invalid_content_length_is_400(self, live):
        sock = socket.create_connection(
            (live.server.host, live.server.port), timeout=10
        )
        sock.sendall(
            b"POST /v1/jobs HTTP/1.1\r\n"
            b"Content-Length: banana\r\n\r\n"
        )
        response = b""
        while b"\r\n\r\n" not in response:
            chunk = sock.recv(65536)
            if not chunk:
                break
            response += chunk
        sock.close()
        assert response.startswith(b"HTTP/1.1 400 ")

    def test_negative_content_length_is_400(self, live):
        sock = socket.create_connection(
            (live.server.host, live.server.port), timeout=10
        )
        sock.sendall(
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
        )
        response = b""
        while b"\r\n\r\n" not in response:
            chunk = sock.recv(65536)
            if not chunk:
                break
            response += chunk
        sock.close()
        assert response.startswith(b"HTTP/1.1 400 ")


class TestOverloadOverHTTP:
    @pytest.fixture
    def tight(self, tmp_path):
        server = _LiveServer(
            str(tmp_path / "state"),
            overload=OverloadPolicy(
                max_queue_depth=1, hard_queue_depth=50,
                max_inflight_per_client=1000, shed_seed=0,
            ),
        )
        # Park the worker tier: queued cells only accumulate, which is the
        # synthetic overload the shed path needs.
        server.service.stop()
        yield server
        server.close()

    def test_low_criticality_shed_with_429_and_retry_after(self, tight):
        client = ServiceClient(tight.url, retry=ClientRetryPolicy.none())
        _submit(client, seeds=[1])  # depth passes the soft limit
        shed = None
        for seed in range(2, 40):
            try:
                _submit(client, seeds=[seed], policies=["fifo"])
            except ServiceOverloadedError as exc:
                shed = exc
                break
        assert shed is not None, "low-criticality submission never shed"
        assert shed.status == 429
        # Retry-After arrived (header or body hint) and is sane.
        assert shed.retry_after_s is not None and shed.retry_after_s >= 1.0
        # An explicitly high-criticality submission is still admitted.
        receipt = _submit(
            client, seeds=[99], policies=["fifo"], criticality="high"
        )
        assert receipt["job"]
        health = client.health()
        assert health["overload"]["shed_low"] >= 1
        assert health["overload"]["shed_high"] == 0


class TestDrainOverHTTP:
    def test_drain_endpoint_stops_admissions_with_503(self, live):
        client = ServiceClient(live.url, retry=ClientRetryPolicy.none())
        summary = client.drain()
        assert summary["draining"] is True
        with pytest.raises(ServiceOverloadedError) as err:
            _submit(client)
        assert err.value.status == 503
        assert err.value.retry_after_s is not None
        # Reads keep working while draining.
        assert client.health()["draining"] is True

    def test_drain_fires_the_on_drain_callback(self, live):
        fired = threading.Event()
        live.server.on_drain = fired.set
        ServiceClient(live.url).drain()
        assert fired.wait(timeout=10)


    def test_stopping_front_refuses_connections_while_workers_finish(
        self, tmp_path, cell_dir
    ):
        live = _LiveServer(str(tmp_path / "state"))
        live.service.executor.cell_fn = cells.wedged_cell
        _submit(ServiceClient(live.url), policies=["fifo"])
        assert cells.wait_for("entered", timeout_s=30.0)
        # The worker forked for the cell holds a copy of the listening
        # socket; while stop() waits for its batch, the port must refuse.
        stopping = asyncio.run_coroutine_threadsafe(live.server.stop(), live.loop)
        try:
            deadline = time.monotonic() + 10.0
            refused = False
            while not refused and time.monotonic() < deadline:
                try:
                    socket.create_connection(
                        ("127.0.0.1", live.server.port), timeout=1.0
                    ).close()
                except ConnectionRefusedError:
                    refused = True
                except OSError:  # queued on a backlog nobody accepts
                    pass
                time.sleep(0.05)
            assert refused
            assert not stopping.done()  # the batch is still in flight
        finally:
            cells.touch("release")
            stopping.result(timeout=60)
            live.loop.call_soon_threadsafe(live.loop.stop)
            live.thread.join(timeout=10)
            live.loop.close()


class TestEndpointFile:
    def test_endpoint_file_advertises_bound_port(self, live):
        path = os.path.join(live.service.state_dir, "endpoint.json")
        with open(path, encoding="utf-8") as fh:
            endpoint = json.load(fh)
        assert endpoint["port"] == live.server.port
        assert endpoint["url"] == live.url
        assert endpoint["pid"] == os.getpid()
