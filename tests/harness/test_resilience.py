"""Crash-path tests for the resilient sweep harness.

Covers the failure modes the executor/cache/journal stack is hardened
against: corrupt and truncated cache entries, read-only cache
filesystems, interrupted atomic writes, SIGKILLed pool workers, hung
cells hitting the wall-clock timeout, and checkpoint/resume of an
interrupted sweep.

The chaos cell functions are module-level and coordinate across process
boundaries through the sentinel files of ``tests.cells`` — a
monkeypatched ``cell_fn`` cannot help once the cell runs in a pool
worker.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import warnings

import pytest

import repro
from repro.harness.cache import QUARANTINE_DIR, ResultCache
from repro.harness.executor import (
    CellFailedError,
    CellSpec,
    RetryPolicy,
    SweepExecutor,
    simulate_cell,
)
from repro.harness.journal import SweepJournal
from tests import cells

SCALE = 0.05


def _spec(workload="swaptions", policy="fifo", seed=1, faults="off"):
    return CellSpec(
        workload=workload, policy=policy, fast=8, seed=seed, scale=SCALE,
        faults=faults,
    )


def kill_once_cell(spec, machine_dict=None):
    """SIGKILL the hosting worker on the first attempt per cell."""
    if cells.once(f"kill-{spec.policy}-{spec.seed}"):
        os.kill(os.getpid(), signal.SIGKILL)
    return simulate_cell(spec, machine_dict)


def kill_in_worker_cell(spec, machine_dict=None):
    """SIGKILL whenever running in a pool worker."""
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return simulate_cell(spec, machine_dict)


def hang_once_cell(spec, machine_dict=None):
    """Hang (far beyond any test timeout) on the first attempt per cell."""
    if cells.once(f"hang-{spec.policy}-{spec.seed}"):
        time.sleep(600)
    return simulate_cell(spec, machine_dict)


def slow_cell(spec, machine_dict=None):
    """Take ~1s of wall clock regardless of simulation cost."""
    time.sleep(1.0)
    return simulate_cell(spec, machine_dict)


def hang_forever_cell(spec, machine_dict=None):
    """Hang on every attempt (never returns within any test timeout)."""
    time.sleep(600)
    return simulate_cell(spec, machine_dict)


def flaky_cell(spec, machine_dict=None):
    """Raise a retryable error on the first attempt per cell."""
    if cells.once(f"flaky-{spec.policy}-{spec.seed}"):
        raise RuntimeError("transient chaos")
    return simulate_cell(spec, machine_dict)


def bad_cell(spec, machine_dict=None):
    """Deterministic failure; also counts its invocations via sentinels."""
    cells.touch(f"bad-calls-{time.monotonic_ns()}")
    raise ValueError("deterministically broken cell")


def fail_after_checkpoints_cell(spec, machine_dict=None):
    """Fail ``cata`` deterministically, but only once the journal (sentinel
    ``journal.jsonl``) holds two lines: the cells before it must be
    checkpointed while the batch is still running (at most 10 s of
    waiting)."""
    if spec.policy == "cata":
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                if len(cells.read("journal.jsonl").splitlines()) >= 2:
                    break
            except FileNotFoundError:
                pass
            time.sleep(0.01)
        raise ValueError("deterministically broken cell")
    return simulate_cell(spec, machine_dict)


def _fast_retry(**kw):
    kw.setdefault("backoff_base_s", 0.01)
    kw.setdefault("backoff_cap_s", 0.02)
    return RetryPolicy(**kw)


class TestCacheCrashPaths:
    def _fill(self, cache):
        spec = _spec()
        result, _ = simulate_cell(spec)
        key = spec.key()
        cache.put(key, result)
        return spec, key, result

    def test_garbage_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        _, key, _ = self._fill(cache)
        path = cache._path(key)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{ this is not json")
        assert cache.get(key) is None
        assert cache.corrupt_evictions == 1
        qfile = tmp_path / QUARANTINE_DIR / os.path.basename(path)
        assert qfile.exists()
        assert not os.path.exists(path)

    def test_truncated_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        _, key, _ = self._fill(cache)
        path = cache._path(key)
        with open(path, encoding="utf-8") as fh:
            blob = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(blob[: len(blob) // 2])
        assert cache.get(key) is None
        assert cache.corrupt_evictions == 1

    def test_quarantined_entries_leave_len(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        _, key, _ = self._fill(cache)
        assert len(cache) == 1
        path = cache._path(key)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("garbage")
        cache.get(key)
        assert len(cache) == 0

    def test_interrupted_atomic_write_is_invisible(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        _, key, _ = self._fill(cache)
        # A writer killed between mkstemp and os.replace leaves a .tmp-
        # file behind; it must never count as an entry nor satisfy a get.
        shard = os.path.dirname(cache._path(key))
        with open(os.path.join(shard, ".tmp-dead.json"), "w",
                  encoding="utf-8") as fh:
            fh.write('{"half": ')
        assert len(cache) == 1
        assert cache.get(key) is not None

    def test_failed_write_degrades_to_read_only(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec, key, result = self._fill(cache)
        # Make the next entry's shard directory impossible to create by
        # occupying its path with a regular file.
        other = CellSpec(
            workload="swaptions", policy="cats_sa", fast=8, seed=1, scale=SCALE
        )
        other_key = other.key()
        shard = os.path.join(str(tmp_path), other_key[:2])
        with open(shard, "w", encoding="utf-8") as fh:
            fh.write("not a directory")
        other_result, _ = simulate_cell(other)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache.put(other_key, other_result)
        assert cache.disabled
        assert cache.write_failures == 1
        assert any("not writable" in str(w.message) for w in caught)
        # Further puts are silent no-ops; reads still work.
        cache.put(other_key, other_result)
        assert cache.write_failures == 1
        assert cache.get(key) is not None

    def test_reads_survive_after_degradation(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec, key, result = self._fill(cache)
        cache.disabled = True
        assert cache.get(key).exec_time_ns == result.exec_time_ns


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with SweepJournal(path) as j:
            j.record("k1", "cell one", 1.25)
            j.record("k2", "cell two", 0.5)
            j.record("k1", "cell one", 1.25)  # dedup
            assert j.recorded == 2
        reloaded = SweepJournal(path)
        assert reloaded.completed == {"k1", "k2"}
        assert reloaded.skipped_lines == 0

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with SweepJournal(path) as j:
            j.record("k1", "cell one", 1.0)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "k2", "label": "torn')  # no newline, cut JSON
        with SweepJournal(path) as reloaded:
            assert reloaded.completed == {"k1"}
            assert reloaded.skipped_lines == 1
            # And recording continues cleanly after the torn line.
            reloaded.record("k3", "cell three", 2.0)
        final = SweepJournal(path)
        assert final.completed == {"k1", "k3"}

    def test_missing_file_is_empty(self, tmp_path):
        j = SweepJournal(str(tmp_path / "nope" / "journal.jsonl"))
        assert j.completed == set()

    def test_concurrent_records_append_each_key_once(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = SweepJournal(path)
        keys = [f"k{i:03d}" for i in range(40)]

        def record_all():
            for key in keys:
                journal.record(key, key, 0.1)

        threads = [threading.Thread(target=record_all) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        journal.close()
        with open(path, encoding="utf-8") as fh:
            written = [json.loads(line)["key"] for line in fh]
        assert sorted(written) == keys
        assert journal.recorded == len(keys)

    def test_closed_journal_drops_late_records(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = SweepJournal(path)
        journal.record("k1", "cell one", 1.0)
        journal.close()
        journal.record("k2", "late cell", 1.0)
        assert journal.recorded == 1
        assert SweepJournal(path).completed == {"k1"}


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(cell_timeout_s=0)
        with pytest.raises(ValueError):
            RetryPolicy(pool_failure_limit=0)

    def test_backoff_grows_and_caps(self):
        import random

        policy = RetryPolicy(backoff_base_s=1.0, backoff_cap_s=3.0)
        rng = random.Random(0)
        delays = [policy.backoff_s(a, rng) for a in (1, 2, 3, 4)]
        assert all(0.5 <= d <= 3.0 for d in delays)


class TestInlineResilience:
    def test_flaky_cell_retries_to_success(self, cell_dir):
        ex = SweepExecutor(jobs=1, retry=_fast_retry(), cell_fn=flaky_cell)
        results, batch = ex.run_cells([_spec()])
        assert batch.simulated == 1
        assert batch.retries == 1
        assert results[_spec()].tasks_executed > 0

    def test_exhausted_retries_raise(self, cell_dir):
        def always_fails(spec, machine_dict=None):
            raise RuntimeError("permanent chaos")

        ex = SweepExecutor(
            jobs=1, retry=_fast_retry(max_attempts=2), cell_fn=always_fails
        )
        with pytest.raises(RuntimeError, match="permanent chaos"):
            ex.run_cells([_spec()])
        # A failed batch's stats merge into the lifetime totals too: its
        # finished cells are checkpointed, so they must be counted.
        assert ex.stats.retries == 1
        assert ex.stats.simulated == 0

    def test_deterministic_errors_never_retry(self, cell_dir):
        ex = SweepExecutor(jobs=1, retry=_fast_retry(), cell_fn=bad_cell)
        with pytest.raises(ValueError, match="deterministically broken"):
            ex.run_cells([_spec()])
        calls = [f for f in os.listdir(cell_dir) if f.startswith("bad-calls-")]
        assert len(calls) == 1


class TestPoolResilience:
    def test_sigkilled_worker_recovers(self, cell_dir):
        specs = [_spec(policy=p) for p in ("fifo", "cats_sa", "cata")]
        ex = SweepExecutor(jobs=2, retry=_fast_retry(), cell_fn=kill_once_cell)
        results, batch = ex.run_cells(specs)
        assert batch.simulated == 3
        assert batch.pool_crashes >= 1
        expected = {s: simulate_cell(s)[0] for s in specs}
        for s in specs:
            assert results[s].exec_time_ns == expected[s].exec_time_ns

    def test_hung_cell_times_out_then_succeeds(self, cell_dir):
        specs = [_spec(policy=p) for p in ("fifo", "cats_sa")]
        ex = SweepExecutor(
            jobs=2,
            retry=_fast_retry(cell_timeout_s=8.0),
            cell_fn=hang_once_cell,
        )
        results, batch = ex.run_cells(specs)
        assert batch.simulated == 2
        assert batch.timeouts >= 1
        assert batch.pool_crashes >= 1
        for s in specs:
            assert results[s].tasks_executed > 0

    def test_relentless_crashes_degrade_to_inline(self, cell_dir):
        specs = [_spec(policy=p) for p in ("fifo", "cats_sa")]
        ex = SweepExecutor(
            jobs=2,
            retry=_fast_retry(max_attempts=10, pool_failure_limit=2),
            cell_fn=kill_in_worker_cell,
        )
        results, batch = ex.run_cells(specs)
        assert batch.simulated == 2
        assert batch.pool_crashes == 2
        assert batch.inline_cells >= 1
        assert ex._degraded
        for s in specs:
            assert results[s].tasks_executed > 0

    def test_queued_cells_do_not_burn_timeout_budget_before_dispatch(self):
        # Regression: deadlines used to be armed at *submit* time while up
        # to 2*workers futures were submitted, so with jobs=2 and 4 slow
        # cells the last two burned their wall-clock budget waiting for a
        # worker and were declared overdue without ever starting —
        # tearing down a healthy pool and requeueing innocent cells.
        # 1.5s is a limit only a never-started cell could trip: every
        # cell needs ~1s once running, but the second wave doesn't start
        # until ~1s in.
        specs = [_spec(seed=s) for s in (1, 2, 3, 4)]
        ex = SweepExecutor(
            jobs=2,
            retry=_fast_retry(cell_timeout_s=1.5),
            cell_fn=slow_cell,
        )
        results, batch = ex.run_cells(specs)
        assert batch.simulated == 4
        assert batch.timeouts == 0
        assert batch.pool_crashes == 0
        for s in specs:
            assert results[s].tasks_executed > 0

    def test_crash_exhaustion_raises_cell_failed_not_timeout(self, cell_dir):
        # Regression: exhausting attempts through repeated pool *crashes*
        # used to raise TimeoutError("... exceeded Nones wall-clock ...")
        # even with timeouts disabled, because the timeout message was
        # reused for the BrokenProcessPool path.
        specs = [_spec(policy=p) for p in ("fifo", "cats_sa")]
        ex = SweepExecutor(
            jobs=2,
            retry=_fast_retry(max_attempts=1, pool_failure_limit=100),
            cell_fn=kill_in_worker_cell,
        )
        with pytest.raises(CellFailedError, match="pool crash"):
            ex.run_cells(specs)

    def test_timeout_exhaustion_still_raises_timeout_error(self, cell_dir):
        specs = [_spec(policy=p) for p in ("fifo", "cats_sa")]
        ex = SweepExecutor(
            jobs=2,
            retry=_fast_retry(max_attempts=1, cell_timeout_s=0.5),
            cell_fn=hang_forever_cell,
        )
        with pytest.raises(TimeoutError, match="0.5s wall-clock"):
            ex.run_cells(specs)

    def test_pool_results_bitwise_match_inline_under_faults(self, tmp_path):
        faults = "chaos:intensity=0.8,horizon=1ms"
        specs = [
            _spec(policy=p, faults=faults)
            for p in ("fifo", "cats_sa", "cata", "cata_rsu")
        ]
        inline, _ = SweepExecutor(jobs=1).run_cells(specs)
        pooled, _ = SweepExecutor(jobs=2).run_cells(specs)
        for s in specs:
            assert inline[s].exec_time_ns == pooled[s].exec_time_ns
            assert inline[s].energy_j == pooled[s].energy_j
            assert inline[s].extra.get("faults") == pooled[s].extra.get("faults")


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_only_incomplete_cells(
        self, tmp_path, cell_dir
    ):
        cache_dir = str(tmp_path / "cache")
        journal_path = os.path.join(cache_dir, "journal.jsonl")
        specs = [_spec(policy=p) for p in ("fifo", "cats_sa", "cata")]

        # First run completes only one cell, then "dies" (we stop early by
        # running a sub-batch — the journal and cache see exactly what a
        # SIGKILLed run would have persisted).
        first = SweepExecutor(
            jobs=1,
            cache=ResultCache(cache_dir),
            journal=SweepJournal(journal_path),
        )
        first.run_cells(specs[:1])
        first.journal.close()

        calls = []

        def counting_cell(spec, machine_dict=None):
            calls.append(spec)
            return simulate_cell(spec, machine_dict)

        resumed = SweepExecutor(
            jobs=1,
            cache=ResultCache(cache_dir),
            journal=SweepJournal(journal_path),
            cell_fn=counting_cell,
        )
        results, batch = resumed.run_cells(specs)
        resumed.journal.close()
        assert batch.resumed == 1            # journaled by the "dead" run
        assert batch.cache_hits == 1
        assert batch.simulated == 2          # only the incomplete cells
        assert [s.policy for s in calls] == ["cats_sa", "cata"]
        # Bitwise identity with a fresh, uninterrupted run.
        fresh, _ = SweepExecutor(jobs=1).run_cells(specs)
        for s in specs:
            assert results[s].exec_time_ns == fresh[s].exec_time_ns

    def test_resumed_results_match_after_worker_kill(self, tmp_path, cell_dir):
        cache_dir = str(tmp_path / "cache")
        journal_path = os.path.join(cache_dir, "journal.jsonl")
        specs = [_spec(policy=p) for p in ("fifo", "cats_sa")]
        crashy = SweepExecutor(
            jobs=2,
            cache=ResultCache(cache_dir),
            journal=SweepJournal(journal_path),
            retry=_fast_retry(),
            cell_fn=kill_once_cell,
        )
        results, batch = crashy.run_cells(specs)
        crashy.journal.close()
        assert batch.pool_crashes >= 1
        journal = SweepJournal(journal_path)
        assert journal.completed == {s.key() for s in specs}
        clean, _ = SweepExecutor(jobs=1).run_cells(specs)
        for s in specs:
            assert results[s].exec_time_ns == clean[s].exec_time_ns

    def test_torn_journal_tail_still_resumes_unfinished_cells_only(
        self, tmp_path
    ):
        # A daemon (or sweep) SIGKILLed mid-append leaves a torn journal
        # line; the repaired journal must still credit the intact entries
        # as resumed and re-simulate only the genuinely unfinished cells.
        cache_dir = str(tmp_path / "cache")
        journal_path = os.path.join(cache_dir, "journal.jsonl")
        specs = [_spec(policy=p) for p in ("fifo", "cats_sa", "cata")]
        first = SweepExecutor(
            jobs=1,
            cache=ResultCache(cache_dir),
            journal=SweepJournal(journal_path),
        )
        first.run_cells(specs[:1])
        first.journal.close()
        with open(journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "torn-mid-append')  # no newline, cut JSON

        calls = []

        def counting_cell(spec, machine_dict=None):
            calls.append(spec)
            return simulate_cell(spec, machine_dict)

        journal = SweepJournal(journal_path)
        assert journal.skipped_lines == 1
        assert journal.seconds.keys() == {specs[0].key()}
        resumed = SweepExecutor(
            jobs=1,
            cache=ResultCache(cache_dir),
            journal=journal,
            cell_fn=counting_cell,
        )
        results, batch = resumed.run_cells(specs)
        resumed.journal.close()
        assert batch.resumed == 1
        assert batch.simulated == 2
        assert [s.policy for s in calls] == ["cats_sa", "cata"]
        fresh, _ = SweepExecutor(jobs=1).run_cells(specs)
        for s in specs:
            assert results[s].exec_time_ns == fresh[s].exec_time_ns

    def test_quarantine_counted_in_batch_stats(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        spec = _spec()
        cache = ResultCache(cache_dir)
        ex = SweepExecutor(jobs=1, cache=cache)
        ex.run_cells([spec])
        path = cache._path(spec.key())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("garbage")
        _, batch = ex.run_cells([spec])
        assert batch.quarantined == 1
        assert batch.simulated == 1


class TestPerCellCheckpoint:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_batch_keeps_finished_cells_and_resumes_the_rest(
        self, tmp_path, cell_dir, jobs
    ):
        cache_dir = str(tmp_path / "cache")
        # The failing cell watches this journal.
        journal_path = cells.sentinel("journal.jsonl")
        specs = [_spec(policy=p) for p in ("fifo", "cats_sa", "cata")]
        first = SweepExecutor(
            jobs=jobs,
            cache=ResultCache(cache_dir),
            journal=SweepJournal(journal_path),
            retry=_fast_retry(),
            cell_fn=fail_after_checkpoints_cell,
        )
        with pytest.raises(ValueError, match="deterministically broken"):
            first.run_cells(specs)
        first.journal.close()
        # The failed batch's finished cells count in the lifetime stats.
        assert first.stats.simulated == 2
        assert len(first.stats.timings) == 2
        finished = {s.key() for s in specs[:2]}
        assert SweepJournal(journal_path).completed == finished
        cache = ResultCache(cache_dir)
        assert len(cache) == 2
        assert all(cache.get(key) is not None for key in finished)

        resumed = SweepExecutor(
            jobs=jobs,
            cache=ResultCache(cache_dir),
            journal=SweepJournal(journal_path),
        )
        results, batch = resumed.run_cells(specs)
        resumed.journal.close()
        assert batch.resumed == 2
        assert batch.cache_hits == 2
        assert batch.simulated == 1
        fresh, _ = SweepExecutor(jobs=1).run_cells(specs)
        for s in specs:
            assert results[s].exec_time_ns == fresh[s].exec_time_ns


def _cell_pids():
    return [pid for pid, _, _ in cells.calls()]


class TestIsolatedExecutor:
    def test_inline_executor_runs_cells_in_process(self, cell_dir):
        SweepExecutor(jobs=1, cell_fn=cells.counting_cell).run_cells([_spec()])
        assert _cell_pids() == [os.getpid()]

    def test_cells_run_on_one_persistent_worker_until_close(self, cell_dir):
        ex = SweepExecutor(jobs=1, isolate=True, cell_fn=cells.counting_cell)
        try:
            # A one-cell batch at jobs=1 still leaves the interpreter.
            ex.run_cells([_spec(seed=1)])
            ex.run_cells([_spec(seed=2), _spec(seed=3)])
            pids = _cell_pids()
            assert len(pids) == 3
            assert set(pids) == set(ex.worker_pids())
            assert os.getpid() not in pids
        finally:
            ex.close()
        assert ex.worker_pids() == []
        assert cells.wait_gone(pids, timeout_s=0.0)
        with pytest.raises(RuntimeError, match="closed"):
            ex.run_cells([_spec(seed=4)])

    def test_worker_killed_between_batches_is_replaced(self, cell_dir):
        ex = SweepExecutor(jobs=1, isolate=True, cell_fn=cells.counting_cell)
        try:
            ex.run_cells([_spec(seed=1)])
            (victim,) = ex.worker_pids()
            os.kill(victim, signal.SIGKILL)
            # Wait until the idle pool has noticed: from then on its
            # submit() raises instead of returning a doomed future.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not ex._pool._broken:
                time.sleep(0.01)
            assert ex._pool._broken
            results, _ = ex.run_cells([_spec(seed=2)])
            assert results[_spec(seed=2)].tasks_executed > 0
            assert _cell_pids()[-1] != victim
        finally:
            ex.close()

    def test_isolated_worker_leaves_ctrl_c_to_its_parent(self, cell_dir):
        # A terminal's Ctrl-C reaches the whole process group; the
        # service drains on it, so its workers must not die of it.
        ex = SweepExecutor(jobs=1, isolate=True, cell_fn=cells.counting_cell)
        try:
            ex.run_cells([_spec(seed=1)])
            (worker,) = ex.worker_pids()
            os.kill(worker, signal.SIGINT)
            ex.run_cells([_spec(seed=2)])
            assert _cell_pids() == [worker, worker]
        finally:
            ex.close()

    def test_workers_exit_when_their_parent_is_killed(self):
        script = (
            "import sys\n"
            "from repro.harness.executor import CellSpec, SweepExecutor\n"
            "ex = SweepExecutor(jobs=2, isolate=True)\n"
            "ex.run_cells([CellSpec('swaptions', 'fifo', 8, s, 0.05)"
            " for s in (1, 2)])\n"
            "print(*ex.worker_pids(), flush=True)\n"
            "sys.stdin.read()\n"
        )
        with subprocess.Popen(
            [sys.executable, "-c", script], env=_subprocess_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        ) as proc:
            try:
                pids = [int(pid) for pid in proc.stdout.readline().split()]
                assert len(pids) == 2
            finally:
                proc.kill()
                proc.wait(timeout=30)
        assert cells.wait_gone(pids)

    def test_workers_stay_off_an_asyncio_parents_signal_handlers(
        self, cell_dir
    ):
        # `repro serve` installs asyncio SIGINT/SIGTERM handlers before its
        # dispatch thread forks the pool.  Its workers must still die of a
        # pool kill and of SIGTERM, and neither may reach the daemon's
        # handlers (which would drain it).
        script = textwrap.dedent("""\
            import asyncio, json, os, signal, threading
            from repro.harness.executor import CellSpec, SweepExecutor
            from tests import cells

            handled = []
            loop = asyncio.new_event_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(sig, handled.append, sig.name)

            def run_in_thread(ex, seed):
                def run():
                    try:
                        ex.run_cells([CellSpec("swaptions", "fifo", 8, seed, 0.05)])
                    except Exception:
                        pass
                thread = threading.Thread(target=run, daemon=True)
                thread.start()
                return thread

            def settle():
                loop.run_until_complete(asyncio.sleep(0.5))

            wedged = SweepExecutor(jobs=1, isolate=True, cell_fn=cells.wedged_cell)
            run_in_thread(wedged, 1)
            assert cells.wait_for("entered", 30.0)
            worker = int(cells.read("entered"))
            wedged.close(kill=True)
            killed = cells.wait_gone([worker])
            settle()

            idle = SweepExecutor(jobs=1, isolate=True)
            run_in_thread(idle, 2).join()
            (worker,) = idle.worker_pids()
            os.kill(worker, signal.SIGTERM)
            terminated = cells.wait_gone([worker])
            settle()
            idle.close(kill=True)
            print(json.dumps([killed, terminated, handled]), flush=True)
        """)
        out = subprocess.run(
            [sys.executable, "-c", script], env=_subprocess_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        killed, terminated, handled = json.loads(out.stdout)
        assert killed, "close(kill=True) left the wedged worker running"
        assert terminated, "SIGTERM did not end an idle worker"
        assert handled == []


def _subprocess_env():
    """Environment of a child interpreter that imports ``repro`` and
    ``tests``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    root = os.path.dirname(os.path.dirname(os.path.abspath(cells.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, root]))


class TestDuplicateSpecAccounting:
    def test_duplicate_specs_counted_so_cells_add_up(self, tmp_path):
        # Regression: run_cells set cells=len(specs) but resolved only the
        # uniques, so with duplicates memo/cache/simulated never summed to
        # cells and summary() misreported coverage.
        a, b = _spec(seed=1), _spec(seed=2)
        cache = ResultCache(str(tmp_path / "cache"))
        ex = SweepExecutor(jobs=1, cache=cache)
        results, batch = ex.run_cells([a, b, a, a])
        assert batch.cells == 4
        assert batch.deduped == 2
        assert batch.simulated == 2
        assert batch.cache_hits == 0
        assert batch.cells == batch.cache_hits + batch.simulated + batch.deduped
        assert set(results) == {a, b}
        assert "deduped: 2" in batch.summary()
        # Warm rerun: same identity, now entirely from cache.
        _, warm = ex.run_cells([a, b, a, a])
        assert (warm.cache_hits, warm.simulated, warm.deduped) == (2, 0, 2)
        assert warm.cells == warm.cache_hits + warm.simulated + warm.deduped
        # Lifetime merge accumulates the new counter too.
        assert ex.stats.deduped == 4

    def test_no_duplicates_keeps_summary_clean(self):
        ex = SweepExecutor(jobs=1)
        _, batch = ex.run_cells([_spec()])
        assert batch.deduped == 0
        assert "deduped" not in batch.summary()


class TestStatsPlumbing:
    def test_summary_hides_healthy_counters(self):
        from repro.harness.executor import SweepStats

        s = SweepStats(cells=3, simulated=3)
        text = s.summary()
        assert "retries" not in text and "pool crashes" not in text

    def test_summary_shows_recovery_counters(self):
        from repro.harness.executor import SweepStats

        s = SweepStats(cells=3, simulated=3, retries=2, pool_crashes=1,
                       resumed=1, timeouts=1, inline_cells=2, quarantined=1,
                       cache_write_failures=1)
        text = s.summary()
        for token in ("retries: 2", "pool crashes: 1", "resumed: 1",
                      "timeouts: 1", "inline cells: 2", "quarantined: 1",
                      "cache write failures: 1"):
            assert token in text

    def test_merge_accumulates_new_counters(self):
        from repro.harness.executor import SweepStats

        a = SweepStats(retries=1, timeouts=1, pool_crashes=1, resumed=1,
                       inline_cells=1, quarantined=1, cache_write_failures=1)
        b = SweepStats(retries=2, timeouts=0, pool_crashes=1, resumed=0,
                       inline_cells=3, quarantined=0, cache_write_failures=2)
        a.merge(b)
        assert (a.retries, a.timeouts, a.pool_crashes, a.resumed,
                a.inline_cells, a.quarantined, a.cache_write_failures) == (
            3, 1, 2, 1, 4, 1, 3)
