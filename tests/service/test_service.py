"""Service-core tests: dedup, warm serving, fairness accounting, failure
containment, worker processes and journal-backed restart/resume — all
in-process (the HTTP front has its own tests in ``test_http.py``; true
SIGKILL of a daemon subprocess is exercised by
``scripts/service_smoke.py`` in CI).  Injected cells run in the daemon's
worker processes, so they come from ``tests.cells``."""

import json
import multiprocessing
import os

import pytest

from repro.harness.executor import SweepExecutor, simulate_cell
from repro.service.protocol import (
    ProtocolError,
    expand_submit,
    result_fingerprint,
)
from repro.service.server import SweepService
from tests import cells

SCALE = 0.05


def _grid(client="anon", policies=("fifo", "cata"), seeds=(1,), scale=SCALE):
    return {
        "client": client,
        "workloads": ["swaptions"],
        "policies": list(policies),
        "budgets": [8],
        "seeds": list(seeds),
        "scale": scale,
    }


@pytest.fixture
def service(tmp_path):
    svc = SweepService(str(tmp_path / "state"), jobs=1)
    svc.start()
    yield svc
    svc.stop()


def _wait_done(svc, job_id, timeout_s=60.0):
    status = svc.wait_settled(job_id, timeout_s)
    assert status["state"] == "done", status
    return status


class TestSubmitAndServe:
    def test_cold_submit_simulates_then_warm_submit_serves_cache(self, service):
        receipt = service.submit(_grid(client="alice"))
        assert receipt["cells"] == 2
        assert receipt["pending"] == 2
        status = _wait_done(service, receipt["job"])
        assert status["simulated"] == 2
        assert status["cached"] == 0

        warm = service.submit(_grid(client="bob"))
        assert warm["cached"] == 2
        assert warm["pending"] == 0
        warm_status = _wait_done(service, warm["job"])
        # The acceptance bar: a second identical submit is served entirely
        # from the warm cache, zero simulation.
        assert warm_status["simulated"] == 0
        assert warm_status["cached"] == 2

    def test_results_byte_identical_to_cli_path(self, service):
        receipt = service.submit(_grid())
        _wait_done(service, receipt["job"])
        served = service.fetch(receipt["job"])
        # The single-process CLI path: a fresh executor, no service.
        cli_results, _ = SweepExecutor(jobs=1).run_cells(
            [simulate_spec for simulate_spec in _specs_of(served)]
        )
        by_label = {
            s.label(): result_fingerprint(r) for s, r in cli_results.items()
        }
        for item in served["results"]:
            assert item["fingerprint"] == by_label[item["label"]]

    def test_duplicate_cells_within_submission_counted(self, service):
        body = {
            "client": "dup",
            "cells": [
                _cell("fifo", 1), _cell("cata", 1), _cell("fifo", 1),
                _cell("fifo", 1),
            ],
        }
        receipt = service.submit(body)
        assert receipt["cells"] == 4
        assert receipt["unique"] == 2
        assert receipt["deduped"] == 2
        status = _wait_done(service, receipt["job"])
        assert status["simulated"] == 2

    def test_receipt_counts_add_up(self, service):
        receipt = service.submit(_grid())
        assert receipt["unique"] == (
            receipt["cached"] + receipt["attached"] + receipt["pending"]
        )
        assert receipt["cells"] == receipt["unique"] + receipt["deduped"]

    def test_malformed_submissions_rejected(self, service):
        with pytest.raises(ProtocolError, match="workload"):
            service.submit(_grid() | {"workloads": ["nope"]})
        with pytest.raises(ProtocolError, match="policy"):
            service.submit(_grid() | {"policies": ["nope"]})
        with pytest.raises(ProtocolError):
            service.submit({"client": "x"})
        with pytest.raises(ProtocolError):
            service.submit([1, 2, 3])

    @pytest.mark.parametrize(
        "scale, seeds, budgets",
        [
            ("NaN", "[1]", "[8]"),
            ("Infinity", "[1]", "[8]"),
            ("-Infinity", "[1]", "[8]"),
            ("0.05", "[-1]", "[8]"),
            ("0.05", "[1]", "[Infinity]"),
        ],
    )
    def test_non_finite_and_negative_numbers_rejected(self, scale, seeds, budgets):
        # The daemon parses bodies with json.loads, which accepts NaN and
        # Infinity; such a cell must be refused at the door, not admitted
        # and then failed (or retried) by the worker.
        grid = json.loads(
            '{"workloads": ["swaptions"], "policies": ["fifo"], '
            f'"budgets": {budgets}, "seeds": {seeds}, "scale": {scale}}}'
        )
        with pytest.raises(ProtocolError):
            expand_submit(grid)
        cell = json.loads(
            '{"workload": "swaptions", "policy": "fifo", '
            f'"fast": {budgets[1:-1]}, "seed": {seeds[1:-1]}, "scale": {scale}}}'
        )
        with pytest.raises(ProtocolError):
            expand_submit({"cells": [cell]})

    def test_unknown_job_raises_keyerror(self, service):
        with pytest.raises(KeyError):
            service.status("j999999")
        with pytest.raises(KeyError):
            service.fetch("j999999")


class TestInFlightDedup:
    def test_concurrent_identical_submissions_simulate_each_cell_once(
        self, tmp_path, cell_dir
    ):
        svc = SweepService(str(tmp_path / "state"), jobs=1)
        svc.executor.cell_fn = cells.counting_slow_cell
        try:
            first = svc.submit(_grid(client="alice"))
            svc.start()
            # Submitted while alice's cells are pending/running: bob's
            # identical cells attach to the same in-flight tasks.
            second = svc.submit(_grid(client="bob"))
            assert second["attached"] + second["cached"] == second["unique"]
            assert second["pending"] == 0
            s1 = _wait_done(svc, first["job"])
            s2 = _wait_done(svc, second["job"])
            calls = [key for _, _, key in cells.calls()]
            # Each unique cell simulated exactly once, across both clients.
            assert sorted(calls) == sorted(set(calls))
            assert len(calls) == first["unique"]
            assert s1["done"] == s2["done"] == first["unique"]
            # And both clients fetch identical bytes.
            f1 = svc.fetch(first["job"])
            f2 = svc.fetch(second["job"])
            assert [r["fingerprint"] for r in f1["results"]] == [
                r["fingerprint"] for r in f2["results"]
            ]
        finally:
            svc.stop()


class TestFailureContainment:
    def test_broken_cell_fails_job_but_daemon_survives(self, service, cell_dir):
        service.executor.cell_fn = cells.broken_cell
        receipt = service.submit(_grid())
        status = service.wait_settled(receipt["job"], 60.0)
        assert status["state"] == "failed"
        detail = service.status(receipt["job"], detail=True)["detail"]
        errors = [row["error"] for row in detail if row["state"] == "failed"]
        assert any("deterministically broken" in e for e in errors)
        with pytest.raises(Exception, match="not fetchable|failed"):
            service.fetch(receipt["job"])
        # The daemon keeps serving: a healthy follow-up job completes.
        service.executor.cell_fn = simulate_cell
        ok = service.submit(_grid(policies=("fifo",), seeds=(2,)))
        assert _wait_done(service, ok["job"])["simulated"] == 1

    def test_failed_cell_is_retried_by_a_later_submission(
        self, service, cell_dir
    ):
        service.executor.cell_fn = cells.broken_until_fixed_cell
        bad = service.submit(_grid(policies=("fifo",)))
        assert service.wait_settled(bad["job"], 60.0)["state"] == "failed"
        cells.touch("fixed")
        retry = service.submit(_grid(policies=("fifo",)))
        assert _wait_done(service, retry["job"])["simulated"] == 1

    def test_cells_finished_before_a_broken_one_report_done(
        self, service, cell_dir
    ):
        # One batch, one worker: fifo and cats_sa finish before cata
        # breaks it.  Each was checkpointed as it completed, so only the
        # broken cell fails.
        service.executor.cell_fn = cells.broken_cell
        receipt = service.submit(_grid(policies=("fifo", "cats_sa", "cata")))
        assert service.wait_settled(receipt["job"], 60.0)["state"] == "failed"
        detail = service.status(receipt["job"], detail=True)["detail"]
        fifo, cats_sa, cata = _specs_of_grid(("fifo", "cats_sa", "cata"))
        assert {row["key"]: row["state"] for row in detail} == {
            fifo.key(): "done", cats_sa.key(): "done", cata.key(): "failed",
        }
        assert all(service.cache.get(s.key()) is not None for s in (fifo, cats_sa))
        assert service.journal.completed == {fifo.key(), cats_sa.key()}


class TestWorkerProcesses:
    def test_cold_jobs_run_on_one_worker_outside_the_daemon(
        self, service, cell_dir
    ):
        service.executor.cell_fn = cells.counting_cell
        for policy in ("fifo", "cata"):
            receipt = service.submit(_grid(policies=(policy,)))
            _wait_done(service, receipt["job"])
        pids = [pid for pid, _, _ in cells.calls()]
        assert len(pids) == 2
        # The daemon's interpreter runs no cell, and consecutive cold jobs
        # share one persistent worker, the one healthz names.
        assert pids[0] == pids[1] != os.getpid()
        assert service.health()["worker"]["pids"] == [pids[0]]

    def test_stop_joins_every_worker_process(self, tmp_path):
        # Children still exiting from earlier tests are not this service's.
        before = {p.pid for p in multiprocessing.active_children()}
        svc = SweepService(str(tmp_path / "state"), jobs=2)
        svc.start()
        try:
            receipt = svc.submit(_grid())
            _wait_done(svc, receipt["job"])
            workers = svc.health()["worker"]["pids"]
            assert len(workers) == 2
        finally:
            svc.stop()
        assert {p.pid for p in multiprocessing.active_children()} - before == set()
        assert svc.health()["worker"]["pids"] == []


class TestRestartResume:
    def test_killed_daemon_resumes_jobs_and_skips_finished_cells(
        self, tmp_path, cell_dir
    ):
        state = str(tmp_path / "state")
        # Life 1: accept a 3-cell job, finish exactly one cell, then die
        # without any shutdown (the worker tier never starts; we drive one
        # cell through the executor by hand — cache, journal and jobs.jsonl
        # now hold exactly what a SIGKILLed daemon would have persisted).
        life1 = SweepService(state, jobs=1)
        receipt = life1.submit(_grid(policies=("fifo", "cats_sa", "cata")))
        specs = _specs_of_grid(("fifo", "cats_sa", "cata"))
        life1.executor.run_cells(specs[:1])
        # No stop(): a SIGKILL never says goodbye.  Its worker process
        # dies with the daemon, as the parent watch makes it.
        life1.executor.close(kill=True)
        del life1

        life2 = SweepService(state, jobs=1)
        assert life2.recovered_jobs == 1
        life2.executor.cell_fn = cells.counting_cell
        life2.start()
        try:
            status = _wait_done(life2, receipt["job"])
            # The journal vouches for the finished cell: resumed, not
            # re-simulated; only the unfinished two run.
            assert status["resumed"] == 1
            assert status["cached"] == 1
            assert status["simulated"] == 2
            calls = [policy for _, policy, _ in cells.calls()]
            assert sorted(calls) == ["cata", "cats_sa"]
            served = life2.fetch(receipt["job"])
            fresh, _ = SweepExecutor(jobs=1).run_cells(specs)
            by_label = {
                s.label(): result_fingerprint(r) for s, r in fresh.items()
            }
            for item in served["results"]:
                assert item["fingerprint"] == by_label[item["label"]]
        finally:
            life2.stop()

    def test_torn_jobs_log_tail_is_tolerated(self, tmp_path):
        state = str(tmp_path / "state")
        life1 = SweepService(state, jobs=1)
        life1.start()
        receipt = life1.submit(_grid(policies=("fifo",)))
        _wait_done(life1, receipt["job"])
        life1.stop()
        with open(os.path.join(state, "jobs.jsonl"), "a",
                  encoding="utf-8") as fh:
            fh.write('{"job": "j000002", "client": "torn')  # killed mid-append
        life2 = SweepService(state, jobs=1)
        try:
            assert life2.recovered_jobs == 1
            assert life2.status(receipt["job"])["state"] == "done"
            # And new submissions continue cleanly on a fresh line.
            life2.start()
            fresh = life2.submit(_grid(policies=("cata",)))
            assert fresh["job"] != receipt["job"]
            _wait_done(life2, fresh["job"])
        finally:
            life2.stop()

    def test_restarted_daemon_serves_resumed_job_warm(self, tmp_path):
        state = str(tmp_path / "state")
        life1 = SweepService(state, jobs=1)
        life1.start()
        receipt = life1.submit(_grid())
        _wait_done(life1, receipt["job"])
        life1.stop()

        life2 = SweepService(state, jobs=1)
        try:
            status = life2.status(receipt["job"])
            assert status["state"] == "done"
            assert status["resumed"] == 2
            # Fetch works without the worker tier even running: O(1) from
            # the content-addressed cache.
            served = life2.fetch(receipt["job"])
            assert len(served["results"]) == 2
            assert all(r["from_cache"] for r in served["results"])
            # Zero simulation in this daemon's whole life.
            assert life2.executor.stats.simulated == 0
        finally:
            life2.stop()

    def test_jobs_log_written_before_acknowledge(self, tmp_path):
        state = str(tmp_path / "state")
        svc = SweepService(state, jobs=1)  # worker never started
        receipt = svc.submit(_grid())
        with open(os.path.join(state, "jobs.jsonl"), encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh if line.strip()]
        assert [e["job"] for e in entries] == [receipt["job"]]
        assert len(entries[0]["cells"]) == 2


def _cell(policy, seed):
    return {
        "workload": "swaptions", "policy": policy, "fast": 8,
        "seed": seed, "scale": SCALE,
    }


def _specs_of_grid(policies):
    from repro.harness.executor import CellSpec

    return [
        CellSpec(workload="swaptions", policy=p, fast=8, seed=1, scale=SCALE)
        for p in policies
    ]


def _specs_of(served):
    from repro.service.protocol import spec_from_dict

    return [spec_from_dict(item["cell"]) for item in served["results"]]
