"""Execution trace records.

The trace is the simulator's observable output besides aggregate metrics:
task execution spans, DVFS reconfigurations, lock acquisitions, C-state
transitions.  The Section V-C reproduction (reconfiguration latency and lock
contention statistics) is computed entirely from these records.

Where trace records are built: only inside :class:`Trace`'s ``record_*``
methods, which take a record's fields and build the record object only
when the trace is enabled.  An untraced run (``Trace(enabled=False)``, the
large benchmark sweeps) therefore builds no record objects at all; its
counters stay live either way, because the harness always needs them, and
add the same floats in the same order as a traced run's.

A trace decoded from JSON (:func:`repro.sim.serialize.trace_from_dict`)
keeps its record lists as the parsed dicts and builds a list's record
objects the first time that list is read: a cached result whose records
nobody reads never pays for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "TaskSpan",
    "ReconfigRecord",
    "LockWaitRecord",
    "CStateRecord",
    "FreqChangeRecord",
    "RECORD_TYPES",
    "Trace",
]


@dataclass(frozen=True)
class TaskSpan:
    """One task execution on one core, [start_ns, end_ns)."""

    task_id: int
    task_type: str
    core_id: int
    start_ns: float
    end_ns: float
    critical: bool
    accelerated_at_start: bool
    #: Owning tenant in open-loop scenarios; None in closed-loop runs (and
    #: omitted from the serialized form, keeping legacy traces byte-stable).
    tenant: Optional[int] = None

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class ReconfigRecord:
    """One complete reconfiguration operation (may cover 1–2 transitions).

    ``latency_ns`` is end-to-end as observed by the initiator — for the
    software path it includes lock wait, kernel crossings and hardware
    transitions; for the RSU it is the ISA-op plus decision latency only
    (the voltage ramp is asynchronous).
    """

    initiator_core: int
    start_ns: float
    end_ns: float
    accelerated_core: Optional[int]
    decelerated_core: Optional[int]
    mechanism: str  # "software" | "rsu" | "turbomode"
    lock_wait_ns: float = 0.0

    @property
    def latency_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class LockWaitRecord:
    """One acquisition of a simulated lock."""

    lock_name: str
    core_id: int
    request_ns: float
    grant_ns: float
    release_ns: float

    @property
    def wait_ns(self) -> float:
        return self.grant_ns - self.request_ns

    @property
    def hold_ns(self) -> float:
        return self.release_ns - self.grant_ns


@dataclass(frozen=True)
class CStateRecord:
    """A core changing ACPI power state."""

    core_id: int
    time_ns: float
    old_state: str
    new_state: str


@dataclass(frozen=True)
class FreqChangeRecord:
    """A completed DVFS transition on one core."""

    core_id: int
    time_ns: float
    old_level: str
    new_level: str


#: Trace record lists and the dataclass each element is.
RECORD_TYPES: dict[str, type] = {
    "task_spans": TaskSpan,
    "reconfigs": ReconfigRecord,
    "lock_waits": LockWaitRecord,
    "cstate_changes": CStateRecord,
    "freq_changes": FreqChangeRecord,
}


@dataclass
class Trace:
    """Collects execution records and running counters."""

    enabled: bool = True
    task_spans: list[TaskSpan] = field(default_factory=list)
    reconfigs: list[ReconfigRecord] = field(default_factory=list)
    lock_waits: list[LockWaitRecord] = field(default_factory=list)
    cstate_changes: list[CStateRecord] = field(default_factory=list)
    freq_changes: list[FreqChangeRecord] = field(default_factory=list)
    # Counters are always maintained, even with enabled=False.
    tasks_executed: int = 0
    reconfig_count: int = 0
    freq_transition_count: int = 0
    total_reconfig_latency_ns: float = 0.0
    total_lock_wait_ns: float = 0.0
    max_lock_wait_ns: float = 0.0

    # ------------------------------------------------------ decoded traces
    def defer_records(self, parsed: dict[str, list[dict[str, Any]]]) -> None:
        """Hold the named record lists as parsed dicts until first read.

        Each dict must carry exactly the keys its record type's encoder
        emits (the decoder checks this).  The lists and dicts are shared
        with ``parsed``, not copied, and are never mutated.
        """
        for name in parsed:
            del self.__dict__[name]
        self.__dict__["_parsed"] = parsed

    def unread_records(self, name: str) -> Optional[list[dict[str, Any]]]:
        """The parsed dicts of record list ``name`` while nobody has read
        it; ``None`` once it is built (or was never deferred)."""
        if name in self.__dict__:
            return None
        return self.__dict__.get("_parsed", {}).get(name)

    def __getattr__(self, name: str) -> Any:
        # Runs only for attributes missing from the instance: the record
        # lists held back by defer_records.  It reads self.__dict__, never
        # self._parsed, so a half-built instance (as unpickling makes one)
        # raises AttributeError instead of recursing.
        parsed = self.__dict__.get("_parsed")
        if parsed is None or name not in parsed:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        records = [RECORD_TYPES[name](**d) for d in parsed[name]]
        # setdefault: readers racing on the first read share one list.
        records = self.__dict__.setdefault(name, records)
        # Replaced, not mutated: a shallow copy may share the old mapping.
        self.__dict__["_parsed"] = {k: v for k, v in parsed.items() if k != name}
        return records

    # ----------------------------------------------------------- recording
    def record_task(
        self,
        task_id: int,
        task_type: str,
        core_id: int,
        start_ns: float,
        end_ns: float,
        critical: bool,
        accelerated_at_start: bool,
        tenant: Optional[int] = None,
    ) -> None:
        self.tasks_executed += 1
        if self.enabled:
            self.task_spans.append(
                TaskSpan(
                    task_id, task_type, core_id, start_ns, end_ns, critical,
                    accelerated_at_start, tenant,
                )
            )

    def record_reconfig(
        self,
        initiator_core: int,
        start_ns: float,
        end_ns: float,
        accelerated_core: Optional[int],
        decelerated_core: Optional[int],
        mechanism: str,
        lock_wait_ns: float = 0.0,
    ) -> None:
        self.reconfig_count += 1
        # ReconfigRecord.latency_ns, without building the record.
        self.total_reconfig_latency_ns += end_ns - start_ns
        if self.enabled:
            self.reconfigs.append(
                ReconfigRecord(
                    initiator_core, start_ns, end_ns, accelerated_core,
                    decelerated_core, mechanism, lock_wait_ns,
                )
            )

    def record_lock_wait(
        self,
        lock_name: str,
        core_id: int,
        request_ns: float,
        grant_ns: float,
        release_ns: float,
    ) -> None:
        # LockWaitRecord.wait_ns, without building the record.
        wait_ns = grant_ns - request_ns
        self.total_lock_wait_ns += wait_ns
        if wait_ns > self.max_lock_wait_ns:
            self.max_lock_wait_ns = wait_ns
        if self.enabled:
            self.lock_waits.append(
                LockWaitRecord(lock_name, core_id, request_ns, grant_ns, release_ns)
            )

    def record_cstate(
        self, core_id: int, time_ns: float, old_state: str, new_state: str
    ) -> None:
        if self.enabled:
            self.cstate_changes.append(
                CStateRecord(core_id, time_ns, old_state, new_state)
            )

    def record_freq_change(
        self, core_id: int, time_ns: float, old_level: str, new_level: str
    ) -> None:
        self.freq_transition_count += 1
        if self.enabled:
            self.freq_changes.append(
                FreqChangeRecord(core_id, time_ns, old_level, new_level)
            )

    # ---------------------------------------------------------- statistics
    @property
    def avg_reconfig_latency_ns(self) -> float:
        """Average end-to-end reconfiguration latency (Section V-C)."""
        if self.reconfig_count == 0:
            return 0.0
        return self.total_reconfig_latency_ns / self.reconfig_count

    def reconfig_overhead_fraction(self, total_core_time_ns: float) -> float:
        """Reconfiguration time as a fraction of aggregate core time.

        The paper reports 0.03 %–3.49 % average overhead across the six
        applications (Section V-C).
        """
        if total_core_time_ns <= 0:
            return 0.0
        return self.total_reconfig_latency_ns / total_core_time_ns
