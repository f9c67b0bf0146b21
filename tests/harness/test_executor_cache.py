"""Tests for the parallel sweep executor and the on-disk result cache."""

import dataclasses
import json
import os

import pytest

from repro.harness import GridRunner
from repro.harness.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    cell_key,
    machine_fingerprint,
)
from repro.harness.executor import CellSpec, SweepExecutor, SweepStats
from repro.sim.config import default_machine
from repro.sim.serialize import result_from_dict, result_to_dict

SMALL = dict(scale=0.08, seeds=(1,))


def run_small_grid(runner):
    return runner.run_grid(["cata"], workloads=["swaptions"], fast_counts=[8])


class TestDeterminism:
    def test_jobs_1_and_4_produce_identical_csv(self):
        csv1 = run_small_grid(GridRunner(**SMALL, jobs=1)).to_csv()
        csv4 = run_small_grid(GridRunner(**SMALL, jobs=4)).to_csv()
        assert csv1 == csv4

    def test_parallel_results_match_serial_bitwise(self):
        serial = GridRunner(**SMALL, jobs=1).run_one("swaptions", "cata", 8)
        parallel = GridRunner(**SMALL, jobs=2).run_one("swaptions", "cata", 8)
        assert result_to_dict(serial) == result_to_dict(parallel)

    def test_parallel_results_serialize_byte_identical(self):
        """Same seed, jobs=1 vs jobs=N: the canonical JSON byte streams
        (not just the parsed values) must be identical."""
        serial = GridRunner(**SMALL, jobs=1).run_one("swaptions", "cata", 8)
        parallel = GridRunner(**SMALL, jobs=3).run_one("swaptions", "cata", 8)
        blob1 = json.dumps(result_to_dict(serial), sort_keys=True)
        blob2 = json.dumps(result_to_dict(parallel), sort_keys=True)
        assert blob1 == blob2


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        with GridRunner(**SMALL, cache_dir=str(tmp_path)) as runner:
            runner.run_one("swaptions", "fifo", 8)
        cache = runner.executor.cache
        assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)
        # A fresh runner (cold memo) must resolve from disk, not simulate.
        with GridRunner(**SMALL, cache_dir=str(tmp_path)) as runner2:
            runner2.run_one("swaptions", "fifo", 8)
        cache2 = runner2.executor.cache
        assert (cache2.hits, cache2.misses) == (1, 0)
        assert runner2.executor.stats.simulated == 0

    def test_cached_result_round_trips(self, tmp_path):
        with GridRunner(**SMALL, cache_dir=str(tmp_path)) as runner:
            first = runner.run_one("swaptions", "cata", 8)
        with GridRunner(**SMALL, cache_dir=str(tmp_path)) as runner:
            second = runner.run_one("swaptions", "cata", 8)
        assert result_to_dict(first) == result_to_dict(second)
        assert second.edp == pytest.approx(first.edp)

    def test_traced_results_round_trip_spans(self, tmp_path):
        kw = dict(scale=0.1, seeds=(1,), trace_enabled=True, cache_dir=str(tmp_path))
        with GridRunner(**kw) as runner:
            first = runner.run_one("swaptions", "cata", 8)
        assert first.trace.task_spans  # tracing actually recorded spans
        with GridRunner(**kw) as runner:
            second = runner.run_one("swaptions", "cata", 8)
        assert second.trace.task_spans == first.trace.task_spans
        assert second.trace.reconfigs == first.trace.reconfigs

    def _single_cache_file(self, root):
        files = []
        for dirpath, _, names in os.walk(root):
            files += [os.path.join(dirpath, n) for n in names if n.endswith(".json")]
        assert len(files) == 1
        return files[0]

    def test_truncated_entry_recomputes_instead_of_crashing(self, tmp_path):
        with GridRunner(**SMALL, cache_dir=str(tmp_path)) as runner:
            runner.run_one("swaptions", "fifo", 8)
        path = self._single_cache_file(tmp_path)
        with open(path) as fh:
            blob = fh.read()
        with open(path, "w") as fh:
            fh.write(blob[: len(blob) // 2])
        with GridRunner(**SMALL, cache_dir=str(tmp_path)) as runner:
            result = runner.run_one("swaptions", "fifo", 8)
        assert result.tasks_executed > 0
        cache = runner.executor.cache
        assert cache.corrupt_evictions == 1
        assert runner.executor.stats.simulated == 1
        # The recomputed entry replaced the corrupt one and now hits.
        with GridRunner(**SMALL, cache_dir=str(tmp_path)) as runner3:
            runner3.run_one("swaptions", "fifo", 8)
        assert runner3.executor.cache.hits == 1

    def test_garbage_json_recomputes(self, tmp_path):
        with GridRunner(**SMALL, cache_dir=str(tmp_path)) as runner:
            runner.run_one("swaptions", "fifo", 8)
        path = self._single_cache_file(tmp_path)
        with open(path, "w") as fh:
            fh.write('{"policy": "fifo"}')  # valid JSON, wrong schema
        with GridRunner(**SMALL, cache_dir=str(tmp_path)) as runner:
            runner.run_one("swaptions", "fifo", 8)
        assert runner.executor.cache.corrupt_evictions == 1
        assert runner.executor.stats.simulated == 1


class TestCacheKey:
    def test_key_depends_on_every_sweep_axis(self):
        base = cell_key("swaptions", "cata", 8, 1, 0.5)
        assert cell_key("dedup", "cata", 8, 1, 0.5) != base
        assert cell_key("swaptions", "fifo", 8, 1, 0.5) != base
        assert cell_key("swaptions", "cata", 16, 1, 0.5) != base
        assert cell_key("swaptions", "cata", 8, 2, 0.5) != base

    def test_key_sensitive_to_scale(self):
        a = cell_key("swaptions", "cata", 8, 1, 0.5)
        b = cell_key("swaptions", "cata", 8, 1, 0.25)
        assert a != b

    def test_key_sensitive_to_machine(self):
        machine = dataclasses.replace(default_machine(), mem_contention_alpha=0.9)
        a = cell_key("swaptions", "cata", 8, 1, 0.5)
        b = cell_key("swaptions", "cata", 8, 1, 0.5, machine=machine)
        assert a != b

    def test_key_sensitive_to_tracing(self):
        a = cell_key("swaptions", "cata", 8, 1, 0.5, trace_enabled=False)
        b = cell_key("swaptions", "cata", 8, 1, 0.5, trace_enabled=True)
        assert a != b

    def test_default_machine_fingerprint_is_explicit_default(self):
        assert machine_fingerprint(None) == machine_fingerprint(default_machine())

    def test_machine_fingerprint_matches_hand_derivation(self):
        # The memoized digest must stay the one every existing cache entry
        # was addressed with: SHA-256 of the sorted-key JSON of asdict.
        import hashlib

        modified = dataclasses.replace(default_machine(), mem_contention_alpha=0.9)
        for machine in (default_machine(), modified):
            blob = json.dumps(dataclasses.asdict(machine), sort_keys=True)
            expected = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            assert machine_fingerprint(machine) == expected
            assert machine_fingerprint(machine) == expected  # memo hit

    def test_key_embeds_schema_version(self):
        # Re-derive the digest by hand so a schema bump can't silently alias.
        import hashlib

        blob = json.dumps(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "workload": "swaptions",
                "policy": "cata",
                "fast": 8,
                "seed": 1,
                "scale": 0.5,
                "machine": machine_fingerprint(None),
                "trace": False,
                "faults": "off",
                "scenario": "off",
            },
            sort_keys=True,
        )
        assert cell_key("swaptions", "cata", 8, 1, 0.5) == hashlib.sha256(
            blob.encode()
        ).hexdigest()

    def test_runners_at_different_scales_never_alias(self):
        # The original memo keyed only (workload, policy, fast, seed); two
        # scales would have collided in a shared/persisted cache.
        r1 = GridRunner(scale=0.08, seeds=(1,))
        r2 = GridRunner(scale=0.16, seeds=(1,))
        a = r1.run_one("swaptions", "fifo", 8)
        b = r2.run_one("swaptions", "fifo", 8)
        assert set(r1._cache).isdisjoint(r2._cache)
        assert a.tasks_executed != b.tasks_executed

    def test_scales_never_alias_on_disk(self, tmp_path):
        with GridRunner(scale=0.08, seeds=(1,), cache_dir=str(tmp_path)) as runner:
            runner.run_one("swaptions", "fifo", 8)
        with GridRunner(scale=0.16, seeds=(1,), cache_dir=str(tmp_path)) as runner:
            runner.run_one("swaptions", "fifo", 8)
        assert runner.executor.cache.hits == 0
        assert runner.executor.stats.simulated == 1
        assert len(runner.executor.cache) == 2


class TestSeedHandling:
    def test_duplicate_seeds_deduplicated_with_warning(self):
        with pytest.warns(UserWarning, match="duplicate seeds"):
            runner = GridRunner(scale=0.08, seeds=(1, 1, 2))
        assert runner.seeds == (1, 2)

    def test_dedup_preserves_order(self):
        with pytest.warns(UserWarning):
            runner = GridRunner(scale=0.08, seeds=(3, 1, 3, 2, 1))
        assert runner.seeds == (3, 1, 2)

    def test_empty_seeds_raise_value_error(self):
        with pytest.raises(ValueError, match="at least one seed"):
            GridRunner(seeds=())

    def test_mean_point_rejects_empty_list(self):
        with pytest.raises(ValueError, match="empty per-seed"):
            GridRunner(scale=0.08)._mean_point([])


class TestGridResultDedup:
    def test_run_grid_twice_does_not_duplicate_points(self):
        runner = GridRunner(**SMALL)
        g1 = run_small_grid(runner)
        n = len(g1.points)
        g2 = run_small_grid(runner)
        assert len(g2.points) == n
        # Merging two grids' points (the Figure 4 + Figure 5 sharing
        # pattern) dedups shared FIFO/CATA cells instead of appending.
        for p in g1.points + g2.points:
            g2.add_point(p)
        assert len(g2.points) == n

    def test_point_lookup_is_keyed(self):
        grid = run_small_grid(GridRunner(**SMALL))
        p = grid.point("swaptions", "cata", 8)
        assert (p.workload, p.policy, p.fast_cores) == ("swaptions", "cata", 8)
        with pytest.raises(KeyError):
            grid.point("swaptions", "nonesuch", 8)


class TestStats:
    def test_grid_stats_account_for_every_cell(self):
        runner = GridRunner(**SMALL)
        grid = run_small_grid(runner)
        s = grid.stats
        assert s.cells == 2  # fifo + cata, one seed, one workload, one fast
        assert s.simulated == 2
        assert s.memo_hits == 0 and s.cache_hits == 0
        assert len(s.timings) == 2
        assert all(sec >= 0 for _, sec in s.timings)
        grid2 = run_small_grid(runner)
        assert grid2.stats.memo_hits == 2
        assert grid2.stats.simulated == 0

    def test_summary_mentions_counters(self):
        s = SweepStats(cells=3, memo_hits=1, cache_hits=1, simulated=1)
        out = s.summary()
        assert "cache hits: 1" in out and "cache misses: 1" in out

    def test_executor_lifetime_stats_accumulate(self):
        runner = GridRunner(**SMALL)
        runner.run_one("swaptions", "fifo", 8)
        runner.run_one("swaptions", "fifo", 8)  # memo hit, no executor call
        runner.run_one("swaptions", "cata", 8)
        assert runner.executor.stats.simulated == 2


class TestExecutorDirect:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            SweepExecutor(jobs=0)

    def test_cache_dir_colliding_with_file_rejected(self, tmp_path):
        path = tmp_path / "occupied"
        path.write_text("not a directory")
        with pytest.raises(ValueError, match="not a directory"):
            ResultCache(str(path))

    def test_duplicate_specs_computed_once(self):
        spec = CellSpec("swaptions", "fifo", 8, 1, 0.08)
        ex = SweepExecutor(jobs=1)
        results, batch = ex.run_cells([spec, spec, spec])
        assert len(results) == 1
        assert batch.simulated == 1

    def test_result_serialization_round_trip(self):
        ex = SweepExecutor(jobs=1)
        results, _ = ex.run_cells([CellSpec("swaptions", "cata", 8, 1, 0.08)])
        (result,) = results.values()
        rebuilt = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert result_to_dict(rebuilt) == result_to_dict(result)
        assert rebuilt.edp == pytest.approx(result.edp)


class TestWarmKeying:
    """A warm sweep addresses each cell once and fingerprints its machine
    at most once: the per-cell bookkeeping must not re-hash."""

    GRID = dict(policies=["cata", "turbomode"], workloads=["swaptions"],
                fast_counts=[4, 8])

    def test_warm_run_grid_keys_each_cell_once(self, tmp_path, monkeypatch):
        from repro.harness import cache as cache_mod
        from repro.harness import executor as executor_mod

        kw = dict(scale=0.05, seeds=(1, 2), cache_dir=str(tmp_path),
                  machine=default_machine().with_cores(16))
        with GridRunner(**kw) as runner:
            runner.run_grid(**self.GRID)
        calls = {"cell_key": 0, "machine_to_dict": 0}
        for module, name in ((executor_mod, "cell_key"),
                             (cache_mod, "machine_to_dict")):
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        with GridRunner(**kw) as runner:
            grid = runner.run_grid(**self.GRID)
            unique = 3 * 2 * 2  # policies (fifo added) x budgets x seeds
            assert grid.stats.cells == unique
            assert grid.stats.simulated == 0
            assert calls["cell_key"] <= unique
            assert calls["machine_to_dict"] <= 1
            # A second pass resolves from the memo alone: no key at all.
            calls["cell_key"] = 0
            runner.run_grid(**self.GRID)
            assert calls["cell_key"] == 0


class TestRunnerClose:
    def test_close_releases_journal_and_pool(self, tmp_path):
        with GridRunner(scale=0.05, cache_dir=str(tmp_path), jobs=2) as runner:
            first = runner.run_one("swaptions", "fifo", 8)
            journal = runner.executor.journal
            assert journal is not None and journal._log._fh is not None
        assert journal._log._fh is None
        assert runner.executor._closed
        # The memo still answers, and a second close is harmless.
        assert runner.run_one("swaptions", "fifo", 8) is first
        runner.close()

    def test_closed_runner_simulates_nothing(self, tmp_path):
        with GridRunner(scale=0.05, cache_dir=str(tmp_path), jobs=2) as runner:
            first = runner.run_one("swaptions", "fifo", 8)
        # A cold cell is refused inline too (a one-cell batch never uses
        # the pool), and nothing reaches the cache.
        with pytest.raises(RuntimeError, match="closed"):
            runner.run_one("swaptions", "cats_sa", 16)
        assert len(runner.executor.cache) == 1
        # The memo and the disk cache still answer.
        assert runner.run_one("swaptions", "fifo", 8) is first
        with GridRunner(scale=0.05, cache_dir=str(tmp_path)) as other:
            other.run_one("swaptions", "cata", 8)
        assert runner.run_one("swaptions", "cata", 8).tasks_executed > 0
