"""Reference checks for the result encoder and the cache's write path.

``trace_to_dict`` builds record dicts from per-type field-name tuples and
``ResultCache.put`` encodes with one ``json.dumps`` call.  Both must
produce exactly the bytes of the original encoder — ``dataclasses.asdict``
per record, the same ``sort_keys`` JSON — because cell fingerprints, the
golden traces and every on-disk cache entry are hashes of those bytes.
The reference encoder lives here, in the test, so it cannot drift with
the code it checks.

A cached result's trace records stay parsed dicts until a list is read,
and an unread list re-encodes from those dicts: the same reference bytes
must come back whether no list, one list or every list was read.
"""

import dataclasses
import hashlib
import json
import pathlib
import pickle
import sys

import pytest

from repro.harness.cache import QUARANTINE_DIR, ResultCache
from repro.harness.executor import CellSpec, simulate_cell
from repro.harness.runner import GridRunner
from repro.sim.serialize import (
    _TRACE_RECORD_TYPES,
    dump_result,
    load_result,
    result_to_dict,
    trace_to_dict,
)
from repro.sim.trace import TaskSpan, Trace

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "golden"))
from regenerate import GOLDEN_PATH, fingerprint, run_cell  # noqa: E402

#: Record fields omitted while None (added after the original schema).
_OMIT_WHEN_NONE = {"task_spans": ("tenant",)}
#: RunResult fields omitted while None (added with scenarios, schema v3).
_RESULT_OMIT_WHEN_NONE = (
    "latency_p50_ns",
    "latency_p95_ns",
    "latency_p99_ns",
    "qos_violation_rate",
)


def reference_trace_dict(trace: Trace) -> dict:
    out = {
        "enabled": trace.enabled,
        "tasks_executed": trace.tasks_executed,
        "reconfig_count": trace.reconfig_count,
        "freq_transition_count": trace.freq_transition_count,
        "total_reconfig_latency_ns": trace.total_reconfig_latency_ns,
        "total_lock_wait_ns": trace.total_lock_wait_ns,
        "max_lock_wait_ns": trace.max_lock_wait_ns,
    }
    for name in _TRACE_RECORD_TYPES:
        records = [dataclasses.asdict(rec) for rec in getattr(trace, name)]
        for rec_d in records:
            for key in _OMIT_WHEN_NONE.get(name, ()):
                if rec_d[key] is None:
                    del rec_d[key]
        out[name] = records
    return out


def reference_result_json(result) -> str:
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "trace"
    }
    for name in _RESULT_OMIT_WHEN_NONE:
        if fields[name] is None:
            del fields[name]
    fields["trace"] = reference_trace_dict(result.trace)
    return json.dumps(fields, sort_keys=True)


#: A traced faulted cell (every record list non-empty, optional result
#: fields absent) and a traced two-tenant scenario cell (tenant set on
#: spans, every optional result field present).
CELLS = {
    "faulted": CellSpec(
        "bodytrack", "cata", 8, 1, 0.1,
        trace_enabled=True, faults="chaos:intensity=0.5,horizon=4ms",
    ),
    "scenario": CellSpec(
        "web", "cata", 8, 1, 0.1,
        trace_enabled=True,
        scenario="a:blackscholes@poisson(jobs=2,rate=1)@qos=4ms"
        "+b:swaptions@closed(jobs=1)",
    ),
}


@pytest.fixture(scope="module")
def results():
    return {name: simulate_cell(spec)[0] for name, spec in CELLS.items()}


@pytest.fixture(params=sorted(CELLS))
def result(request, results):
    return results[request.param]


class TestRecordEncoder:
    def test_every_record_list_matches_asdict(self, result):
        encoded = trace_to_dict(result.trace)
        reference = reference_trace_dict(result.trace)
        for name in _TRACE_RECORD_TYPES:
            assert getattr(result.trace, name), f"{name} is empty"
            assert json.dumps(encoded[name], sort_keys=True) == json.dumps(
                reference[name], sort_keys=True
            ), name

    def test_result_bytes_match_reference(self, result):
        assert json.dumps(result_to_dict(result), sort_keys=True) == (
            reference_result_json(result)
        )

    def test_optional_fields_exercised(self, results):
        faulted, scenario = results["faulted"], results["scenario"]
        assert all(getattr(faulted, f) is None for f in _RESULT_OMIT_WHEN_NONE)
        assert all(
            getattr(scenario, f) is not None for f in _RESULT_OMIT_WHEN_NONE
        )
        assert {s.tenant for s in faulted.trace.task_spans} == {None}
        assert None not in {s.tenant for s in scenario.trace.task_spans}

    @pytest.mark.parametrize("tenant", [None, 0, 7])
    def test_task_span_tenant_none_omitted_set_kept(self, tenant):
        trace = Trace(enabled=True)
        trace.task_spans.append(
            TaskSpan(
                task_id=1, task_type="t", core_id=2, start_ns=0.5, end_ns=3.0,
                critical=True, accelerated_at_start=False, tenant=tenant,
            )
        )
        encoded = trace_to_dict(trace)
        assert encoded == reference_trace_dict(trace)
        assert ("tenant" in encoded["task_spans"][0]) == (tenant is not None)


class TestWritePath:
    def test_cache_entry_is_reference_bytes(self, result, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "ab" + "0" * 62
        cache.put(key, result)
        written = (tmp_path / "ab" / f"{key}.json").read_bytes()
        assert written == reference_result_json(result).encode("utf-8")
        assert cache.get(key) is not None

    def test_dump_result_is_reference_bytes(self, result, tmp_path):
        path = tmp_path / "result.json"
        dump_result(result, str(path))
        assert path.read_bytes() == reference_result_json(result).encode("utf-8")

    def test_cache_entry_hashes_to_golden_fingerprint(self, tmp_path):
        cell = "swaptions/cata"
        golden = json.loads(GOLDEN_PATH.read_text())["cells"][cell]
        result = run_cell(*cell.split("/"))
        cache = ResultCache(str(tmp_path))
        key = "cd" + "0" * 62
        cache.put(key, result)
        written = (tmp_path / "cd" / f"{key}.json").read_bytes()
        assert hashlib.sha256(written).hexdigest() == golden["sha256"]
        assert fingerprint(result) == golden["sha256"]


#: Which record lists a test reads before re-encoding a decoded result.
READS = {
    "unread": (),
    "one_list": ("task_spans",),
    "all_lists": tuple(_TRACE_RECORD_TYPES),
}


def _cached_copy(result, tmp_path):
    """``result`` written to a fresh cache and read back, as a warm sweep
    reads it."""
    key = "ef" + "0" * 62
    ResultCache(str(tmp_path)).put(key, result)
    return ResultCache(str(tmp_path)).get(key)


def _encode(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


@pytest.fixture
def record_inits(monkeypatch):
    """Calls to each record type's ``__init__``, by record list name."""
    counts = dict.fromkeys(_TRACE_RECORD_TYPES, 0)

    def counting(name, init):
        def wrapper(self, *args, **kwargs):
            counts[name] += 1
            init(self, *args, **kwargs)

        return wrapper

    for name, rec_type in _TRACE_RECORD_TYPES.items():
        monkeypatch.setattr(rec_type, "__init__", counting(name, rec_type.__init__))
    return counts


@pytest.fixture(scope="module")
def golden_cells():
    """Golden cell -> (its eager result, its committed SHA-256)."""
    golden = json.loads(GOLDEN_PATH.read_text())["cells"]
    return {
        cell: (run_cell(*cell.split("/")), entry["sha256"])
        for cell, entry in golden.items()
    }


class TestDeferredDecode:
    def test_warm_get_builds_records_only_when_a_list_is_read(
        self, golden_cells, record_inits, tmp_path
    ):
        eager, _ = golden_cells["bodytrack/cata"]
        key = "aa" + "0" * 62
        ResultCache(str(tmp_path)).put(key, eager)
        cached = ResultCache(str(tmp_path)).get(key)
        assert record_inits == dict.fromkeys(_TRACE_RECORD_TYPES, 0)
        spans = cached.trace.task_spans
        assert record_inits == dict(
            dict.fromkeys(_TRACE_RECORD_TYPES, 0), task_spans=len(spans)
        )
        assert spans == eager.trace.task_spans

    @pytest.mark.parametrize("read", sorted(READS))
    def test_golden_cells_reencode_to_golden_fingerprint(
        self, golden_cells, read, tmp_path
    ):
        for cell, (eager, sha256) in golden_cells.items():
            cached = _cached_copy(eager, tmp_path / cell.replace("/", "-"))
            for name in READS[read]:
                getattr(cached.trace, name)
            digest = hashlib.sha256(_encode(cached).encode("utf-8")).hexdigest()
            assert digest == sha256, cell

    @pytest.mark.parametrize("read", sorted(READS))
    def test_decoded_cell_reencodes_to_reference_bytes(self, result, read, tmp_path):
        cached = _cached_copy(result, tmp_path)
        for name in READS[read]:
            getattr(cached.trace, name)
        assert _encode(cached) == reference_result_json(result)

    @pytest.mark.parametrize("read", sorted(READS))
    def test_decoded_result_survives_pickle(self, result, read, tmp_path):
        cached = _cached_copy(result, tmp_path)
        for name in READS[read]:
            getattr(cached.trace, name)
        again = pickle.loads(pickle.dumps(cached))
        assert again == result
        assert _encode(again) == reference_result_json(result)

    def test_load_result_defers_records_too(self, result, tmp_path):
        path = tmp_path / "result.json"
        dump_result(result, str(path))
        loaded = load_result(str(path))
        assert all(
            loaded.trace.unread_records(name) is not None
            for name in _TRACE_RECORD_TYPES
        )
        assert loaded == result


#: Ways a cache entry's trace records can be malformed; each one made
#: building the records raise, so each must still fail the decode.
MALFORMED = {
    "missing_field": lambda t: t["task_spans"][0].pop("core_id"),
    "unknown_field": lambda t: t["task_spans"][-1].update(colour="red"),
    "record_not_object": lambda t: t["task_spans"].__setitem__(0, "oops"),
    "list_of_strings": lambda t: t.update(task_spans=["a", "b"]),
    "not_a_list": lambda t: t.update(task_spans={}),
}


class TestMalformedRecords:
    @pytest.mark.parametrize("how", sorted(MALFORMED))
    def test_entry_is_quarantined_and_resimulated(self, how, tmp_path):
        kw = dict(scale=0.05, seeds=[1], trace_enabled=True, cache_dir=str(tmp_path))
        with GridRunner(**kw) as runner:
            first = runner.run_one("swaptions", "cata", 8, 1)
        [entry] = tmp_path.glob("??/*.json")
        data = json.loads(entry.read_text())
        MALFORMED[how](data["trace"])
        entry.write_text(json.dumps(data, sort_keys=True))

        with GridRunner(**kw) as runner:
            again = runner.run_one("swaptions", "cata", 8, 1)
        assert runner.executor.cache.corrupt_evictions == 1
        assert runner.executor.stats.simulated == 1
        assert (tmp_path / QUARANTINE_DIR / entry.name).exists()
        assert _encode(again) == _encode(first)
        # The re-simulated cell was written back intact.
        assert entry.read_text() == _encode(first)
