"""Graceful-drain and worker-failure tests: no accepted job is ever lost
to a drain (the journal resumes the remainder), a worker that misses the
drain deadline surfaces a hard error, a cell that overruns the cell
timeout has its worker killed and fails its job, and a batch that raises
anything fails its own cells while the worker thread keeps serving.

Injected cells run in the daemon's worker processes, so they come from
``tests.cells`` and talk to the test through sentinel files.
"""

import time

import pytest

from repro.harness.executor import RetryPolicy, simulate_cell
from repro.service.overload import DrainingError
from repro.service.server import ServiceShutdownError, SweepService
from tests import cells

SCALE = 0.05


def _grid(client="anon", policies=("fifo", "cata"), seeds=(1,)):
    return {
        "client": client,
        "workloads": ["swaptions"],
        "policies": list(policies),
        "budgets": [8],
        "seeds": list(seeds),
        "scale": SCALE,
    }


class TestDrainUnderLoad:
    def test_drain_finishes_batch_and_journal_resumes_remainder(
        self, tmp_path, cell_dir
    ):
        state = str(tmp_path / "state")
        life1 = SweepService(state, jobs=1)
        life1.executor.cell_fn = cells.slow_cell
        receipt = life1.submit(
            _grid(policies=("fifo", "cata", "cats_sa"), seeds=(1, 2))
        )
        assert receipt["pending"] == 6
        life1.start()
        assert cells.wait_for("started", timeout_s=30.0)
        # Drain mid-burst: admissions stop instantly, the in-flight batch
        # finishes and checkpoints, queued cells stay durable.
        summary = life1.begin_drain()
        assert summary["draining"] is True
        with pytest.raises(DrainingError):
            life1.submit(_grid(seeds=(9,)))
        life1.stop()
        done_in_life1 = life1.status(receipt["job"])["done"]

        # Life 2 on the same state dir: the job is recovered and the
        # remainder (and only the remainder) is simulated.
        life2 = SweepService(state, jobs=1)
        assert life2.recovered_jobs == 1
        life2.executor.cell_fn = cells.counting_cell
        life2.start()
        try:
            status = life2.wait_settled(receipt["job"], 120.0)
            assert status["state"] == "done"
            assert status["done"] == 6
            # Nothing finished before the drain is re-simulated.
            assert len(cells.calls()) == 6 - done_in_life1
            assert status["resumed"] == done_in_life1
        finally:
            life2.stop()

    def test_stop_deadline_miss_logs_and_raises(
        self, tmp_path, capsys, cell_dir
    ):
        svc = SweepService(str(tmp_path / "state"), jobs=1)
        svc.executor.cell_fn = cells.wedged_cell
        svc.submit(_grid(policies=("fifo",)))
        svc.start()
        assert cells.wait_for("entered", timeout_s=30.0)
        journal = svc.journal
        journal.record("k" * 64, "earlier cell", 0.5)
        assert journal._log._fh is not None
        assert svc._jobs_log._fh is not None
        with pytest.raises(ServiceShutdownError, match="failed to stop"):
            svc.stop(timeout_s=0.2)
        assert "failed to stop" in capsys.readouterr().err
        # Both logs are closed on the stuck path too.
        assert journal._log._fh is None
        assert svc._jobs_log._fh is None
        # The missed deadline killed the worker wedged in the cell.
        assert cells.wait_gone([int(cells.read("entered"))])
        cells.touch("release")


class TestWorkerFailures:
    def test_batch_take_error_keeps_the_worker(self, tmp_path):
        svc = SweepService(str(tmp_path / "state"), jobs=1)
        original = svc._take_batch_locked

        def bomb():
            # One-shot: the first dispatch raises an unexpected error.
            svc._take_batch_locked = original
            raise RuntimeError("synthetic dispatch error")

        svc._take_batch_locked = bomb
        svc.start()
        receipt = svc.submit(_grid(policies=("fifo",)))
        try:
            assert svc.wait_settled(receipt["job"], 120.0)["state"] == "done"
            assert svc.health()["worker"]["alive"] is True
        finally:
            svc.stop()

    def test_exiting_cell_fails_only_its_job(self, tmp_path, cell_dir):
        svc = SweepService(str(tmp_path / "state"), jobs=1)
        svc.executor.cell_fn = cells.exiting_cell
        svc.start()
        try:
            # The pool hands the worker process's SystemExit back through
            # the cell's future; it fails the job, not the worker thread.
            bad = svc.submit(_grid(policies=("cata",)))
            assert svc.wait_settled(bad["job"], 60.0)["state"] == "failed"
            [row] = svc.status(bad["job"], detail=True)["detail"]
            assert row["error"].startswith("SystemExit")
            ok = svc.submit(_grid(policies=("fifo",)))
            assert svc.wait_settled(ok["job"], 60.0)["state"] == "done"
            assert svc.health()["worker"]["alive"] is True
        finally:
            svc.stop()

    def test_wedged_cell_fails_by_the_cell_timeout(self, tmp_path, cell_dir):
        svc = SweepService(
            str(tmp_path / "state"),
            jobs=1,
            retry=RetryPolicy(max_attempts=2, cell_timeout_s=0.5),
        )
        svc.executor.cell_fn = cells.wedged_cell
        svc.start()
        try:
            begun = time.monotonic()
            receipt = svc.submit(_grid(policies=("fifo",)))
            status = svc.wait_settled(receipt["job"], 15.0)
            assert status["state"] == "failed"
            assert time.monotonic() - begun < 15.0
            assert svc.health()["stats"]["timeouts"] == 2
            # Each timeout killed the worker wedged in the cell.
            assert cells.wait_gone([int(cells.read("entered"))])
            svc.executor.cell_fn = simulate_cell
            ok = svc.submit(_grid(policies=("cata",)))
            assert svc.wait_settled(ok["job"], 60.0)["state"] == "done"
            assert svc.health()["worker"]["alive"] is True
        finally:
            cells.touch("release")
            svc.stop()
