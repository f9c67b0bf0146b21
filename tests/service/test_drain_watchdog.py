"""Graceful-drain and watchdog tests: no accepted job is ever lost to a
drain (the journal resumes the remainder), a worker that misses the drain
deadline surfaces a hard error, and dead/hung worker threads are rebuilt
by the watchdog.

Injected cells run in the daemon's worker processes, so they come from
``tests.cells`` and talk to the test through sentinel files.
"""

import time

import pytest

from repro.harness.executor import CellSpec
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
        with pytest.raises(ServiceShutdownError, match="failed to stop"):
            svc.stop(timeout_s=0.2)
        assert "failed to stop" in capsys.readouterr().err
        # The missed deadline killed the worker wedged in the cell.
        assert cells.wait_gone([int(cells.read("entered"))])
        cells.touch("release")


class TestWatchdog:
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_dead_worker_thread_is_rebuilt(self, tmp_path):
        svc = SweepService(
            str(tmp_path / "state"), jobs=1, watchdog_interval_s=0.05
        )
        original = svc._take_batch_locked

        def bomb():
            # One-shot: the first dispatch kills the worker thread with an
            # unexpected error; later generations behave normally.
            svc._take_batch_locked = original
            raise RuntimeError("synthetic worker death")

        svc._take_batch_locked = bomb
        svc.start()
        receipt = svc.submit(_grid(policies=("fifo",)))
        try:
            status = svc.wait_settled(receipt["job"], 120.0)
            assert status["state"] == "done"
            health = svc.health()
            assert health["worker"]["rebuilds"] >= 1
            assert health["worker"]["alive"] is True
            assert "died" in health["worker"]["last_rebuild_reason"]
        finally:
            svc.stop()

    def test_hung_worker_is_abandoned_and_cell_requeued(
        self, tmp_path, cell_dir
    ):
        svc = SweepService(
            str(tmp_path / "state"),
            jobs=1,
            watchdog_interval_s=0.05,
            worker_hang_timeout_s=0.4,
        )
        # Only the first worker generation hangs; the rebuilt worker gets
        # a fresh executor with the default (working) cell_fn.
        retired = svc.executor
        retired.cell_fn = cells.wedged_cell
        svc.start()
        receipt = svc.submit(_grid(policies=("fifo",)))
        try:
            begun = time.monotonic()
            status = svc.wait_settled(receipt["job"], 120.0)
            elapsed = time.monotonic() - begun
            assert status["state"] == "done"
            # Completed by the rebuilt worker, not by waiting out the hang.
            assert elapsed < 15.0
            health = svc.health()
            assert health["worker"]["rebuilds"] >= 1
            assert "stale" in health["worker"]["last_rebuild_reason"]

            # The rebuild killed the retired pool: its only worker is the
            # one wedged in the cell.
            assert svc.executor is not retired
            assert cells.wait_gone([int(cells.read("entered"))])
            assert retired.worker_pids() == []
            # The abandoned thread's pool recovery must not fork a new one.
            uncached = CellSpec(
                workload="swaptions", policy="fifo", fast=8, seed=2, scale=SCALE
            )
            with pytest.raises(RuntimeError, match="closed"):
                retired.run_cells([uncached])
        finally:
            cells.touch("release")
            svc.stop()

    def test_idle_worker_is_never_flagged_as_hung(self, tmp_path):
        svc = SweepService(
            str(tmp_path / "state"),
            jobs=1,
            watchdog_interval_s=0.05,
            worker_hang_timeout_s=0.1,
        )
        svc.start()
        # Idle for well past the hang timeout: a waiting worker heartbeats
        # and has no unresolved work, so no rebuild may trigger.
        time.sleep(0.5)
        try:
            assert svc.health()["worker"]["rebuilds"] == 0
            receipt = svc.submit(_grid(policies=("fifo",)))
            assert svc.wait_settled(receipt["job"], 120.0)["state"] == "done"
        finally:
            svc.stop()
