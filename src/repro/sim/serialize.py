"""Machine-configuration and run-result serialization.

gem5 experiments live or die by knowing exactly what configuration produced
a result; this module gives the reproduction the same property: a
round-trippable JSON form of :class:`~repro.sim.config.MachineConfig`, used
to stamp experiment outputs and to load swept configurations back, plus a
round-trippable JSON form of :class:`~repro.runtime.system.RunResult`
(including its :class:`~repro.sim.trace.Trace`), which the on-disk sweep
result cache (:mod:`repro.harness.cache`) persists between invocations.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from .config import (
    CacheConfig,
    CoreUArchConfig,
    DVFSLevel,
    MachineConfig,
    NoCConfig,
    OverheadConfig,
    PowerModelConfig,
)
from .trace import RECORD_TYPES as _TRACE_RECORD_TYPES
from .trace import Trace

__all__ = [
    "machine_to_dict",
    "machine_from_dict",
    "dump_machine",
    "load_machine",
    "trace_to_dict",
    "trace_from_dict",
    "result_to_dict",
    "result_from_dict",
    "dump_result",
    "load_result",
]


def machine_to_dict(machine: MachineConfig) -> dict[str, Any]:
    """Plain-dict form of a machine configuration (JSON-safe)."""
    return dataclasses.asdict(machine)


def _level(d: dict[str, Any]) -> DVFSLevel:
    return DVFSLevel(**d)


def _cache(d: dict[str, Any]) -> CacheConfig:
    return CacheConfig(**d)


def machine_from_dict(data: dict[str, Any]) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from :func:`machine_to_dict` output."""
    uarch_d = dict(data["uarch"])
    uarch_d["l1i"] = _cache(uarch_d["l1i"])
    uarch_d["l1d"] = _cache(uarch_d["l1d"])
    return MachineConfig(
        core_count=data["core_count"],
        fast=_level(data["fast"]),
        slow=_level(data["slow"]),
        uarch=CoreUArchConfig(**uarch_d),
        noc=NoCConfig(**data["noc"]),
        l2_per_core_mb=data["l2_per_core_mb"],
        l2_assoc=data["l2_assoc"],
        l2_hit_cycles=data["l2_hit_cycles"],
        l2_miss_cycles=data["l2_miss_cycles"],
        directory_entries=data["directory_entries"],
        power=PowerModelConfig(**data["power"]),
        overheads=OverheadConfig(**data["overheads"]),
        mem_contention_alpha=data.get("mem_contention_alpha", 0.0),
        mem_contention_threshold=data.get("mem_contention_threshold", 0.5),
    )


#: Field names of each record type, in declaration order.  Records hold
#: only scalars, so reading these attributes gives exactly what
#: ``dataclasses.asdict`` would, without its recursive deep copy.
_TRACE_RECORD_FIELDS: dict[str, tuple[str, ...]] = {
    name: tuple(f.name for f in dataclasses.fields(rec_type))
    for name, rec_type in _TRACE_RECORD_TYPES.items()
}

#: Record fields added *after* the original schema, dropped from the
#: serialized form while None so pre-existing traces — and the golden
#: SHA-256 fingerprints — stay byte-identical.  Only lists new fields:
#: ReconfigRecord's original nullable fields still serialize as null.
_OMIT_WHEN_NONE: dict[str, tuple[str, ...]] = {
    "task_spans": ("tenant",),
}

#: RunResult fields added with the scenario layer (schema v3); omitted
#: while None for the same byte-stability reason.
_RESULT_OMIT_WHEN_NONE: tuple[str, ...] = (
    "latency_p50_ns",
    "latency_p95_ns",
    "latency_p99_ns",
    "qos_violation_rate",
)

#: The two key sets the record encoder emits per list: every field, and
#: every field but the ones omitted while None (equal where none are).
_TRACE_RECORD_KEYS: dict[str, tuple[frozenset[str], frozenset[str]]] = {
    name: (
        frozenset(fields),
        frozenset(fields) - frozenset(_OMIT_WHEN_NONE.get(name, ())),
    )
    for name, fields in _TRACE_RECORD_FIELDS.items()
}


def _encode_records(name: str, records: list[Any]) -> list[dict[str, Any]]:
    fields = _TRACE_RECORD_FIELDS[name]
    out = [{field: getattr(rec, field) for field in fields} for rec in records]
    omit = _OMIT_WHEN_NONE.get(name)
    if omit:
        for rec_d in out:
            for key in omit:
                if rec_d[key] is None:
                    del rec_d[key]
    return out


def _checked_records(name: str, records: Any) -> list[dict[str, Any]]:
    """``records`` checked to be a list of ``name`` records in encoder form.

    Raises ``TypeError``, which the cache treats as corruption, for
    anything but a list of objects, for a record missing a required
    field and for a record with a field its type lacks.  A valid record
    off the encoder's form (a defaulted field absent, or ``tenant``
    present as null) is replaced, in a copy of the list, by its
    encoding, so an unread list re-encodes to the eager records' bytes.
    """
    if type(records) is not list:
        raise TypeError(f"trace {name!r} is not a list")
    full, bare = _TRACE_RECORD_KEYS[name]
    omit = _OMIT_WHEN_NONE.get(name, ())
    out = records
    for i, d in enumerate(records):
        if type(d) is not dict:
            raise TypeError(f"trace {name!r} record {i} is not an object")
        keys = d.keys()
        if keys == bare or (keys == full and all(d[k] is not None for k in omit)):
            continue
        rec = _TRACE_RECORD_TYPES[name](**d)  # TypeError on a bad key set
        if out is records:
            out = list(records)
        out[i] = _encode_records(name, [rec])[0]
    return out


def trace_to_dict(trace: Trace) -> dict[str, Any]:
    """Plain-dict form of a :class:`Trace` (records and counters).

    A record list nobody has read since :func:`trace_from_dict` is
    emitted as its parsed dicts, shared with the trace: callers encode
    the output and must not mutate it.
    """
    out: dict[str, Any] = {
        "enabled": trace.enabled,
        "tasks_executed": trace.tasks_executed,
        "reconfig_count": trace.reconfig_count,
        "freq_transition_count": trace.freq_transition_count,
        "total_reconfig_latency_ns": trace.total_reconfig_latency_ns,
        "total_lock_wait_ns": trace.total_lock_wait_ns,
        "max_lock_wait_ns": trace.max_lock_wait_ns,
    }
    for name in _TRACE_RECORD_FIELDS:
        records = trace.unread_records(name)
        if records is None:
            records = _encode_records(name, getattr(trace, name))
        out[name] = records
    return out


def trace_from_dict(data: dict[str, Any]) -> Trace:
    """Rebuild a :class:`Trace` from :func:`trace_to_dict` output.

    Every record list is checked here, so a malformed one fails the
    decode, but a list's record objects are built the first time it is
    read (see :meth:`Trace.defer_records`).
    """
    trace = Trace(enabled=data["enabled"])
    trace.tasks_executed = data["tasks_executed"]
    trace.reconfig_count = data["reconfig_count"]
    trace.freq_transition_count = data["freq_transition_count"]
    trace.total_reconfig_latency_ns = data["total_reconfig_latency_ns"]
    trace.total_lock_wait_ns = data["total_lock_wait_ns"]
    trace.max_lock_wait_ns = data["max_lock_wait_ns"]
    parsed: dict[str, list[dict[str, Any]]] = {}
    for name in _TRACE_RECORD_TYPES:
        records = _checked_records(name, data[name])
        if records:
            parsed[name] = records
    if parsed:
        trace.defer_records(parsed)
    return trace


def result_to_dict(result: "Any") -> dict[str, Any]:
    """Plain-dict form of a :class:`~repro.runtime.system.RunResult`.

    Typed loosely to avoid a circular import (``runtime.system`` imports
    from ``sim``); any object with ``RunResult``'s fields serializes.
    """
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "trace"
    }
    for name in _RESULT_OMIT_WHEN_NONE:
        if fields.get(name) is None:
            fields.pop(name, None)
    fields["trace"] = trace_to_dict(result.trace)
    return fields


def result_from_dict(data: dict[str, Any]) -> "Any":
    """Rebuild a :class:`~repro.runtime.system.RunResult`."""
    from ..runtime.system import RunResult

    d = dict(data)
    d["trace"] = trace_from_dict(d["trace"])
    return RunResult(**d)


def dump_result(result: "Any", path: str) -> None:
    """Write a :class:`RunResult` to a JSON file.

    Encoded with ``json.dumps`` and written in one call: ``json.dump`` on a
    file handle runs CPython's pure-Python encoder, ~3x slower for the
    same bytes.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result_to_dict(result), sort_keys=True))


def load_result(path: str) -> "Any":
    """Load a :class:`RunResult` from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        return result_from_dict(json.load(fh))


def dump_machine(machine: MachineConfig, path: str) -> None:
    """Write the configuration to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(machine_to_dict(machine), fh, indent=2, sort_keys=True)


def load_machine(path: str) -> MachineConfig:
    """Load a configuration from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        return machine_from_dict(json.load(fh))
