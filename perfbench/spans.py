"""Span recorder for the benchmark's per-layer runs.

Spans are recorded from the benchmark's own files, around calls into the
program's layers: :func:`instrument` wraps the public entry points of
``workloads``, ``core``, ``runtime``/``sim``, ``sim.serialize`` and
``harness`` for the length of a span run and restores them afterwards.
Each span has a name, start, end, parent and the id of the cell or job it
belongs to; spans stay in memory and are written once, at exit.

A layer's self time is its span minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "children_s")

    def __init__(self, name: str, start: float, parent: Optional["Span"], op: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        #: Time covered by direct children (children never overlap: one
        #: thread runs them one after another).
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return max(0.0, self.duration - self.children_s)


class Recorder:
    """In-memory span store; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = parent.op if parent is not None else ""
        sp = Span(name, time.perf_counter(), parent, op)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.children_s += sp.duration
            with self._lock:
                self.spans.append(sp)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def phase(self) -> str:
        """Phase tag of the innermost open span's op (``cold``/``warm``)."""
        stack = self._stack()
        return stack[-1].op.partition(":")[0] if stack else ""

    # ---------------------------------------------------------- reporting
    def self_times(self, phase: str = "") -> dict[str, tuple[float, int]]:
        """Per span name: (total self seconds, span count), over the spans
        whose op starts with ``phase``."""
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        for sp in self.spans:
            if not sp.op.startswith(phase):
                continue
            row = out[sp.name]
            row[0] += sp.self_s
            row[1] += 1
        return {k: (v[0], int(v[1])) for k, v in out.items()}

    def total(self, name: str) -> float:
        return sum(sp.duration for sp in self.spans if sp.name == name)

    def dump(self, path: str) -> None:
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        rows = [
            {
                "name": sp.name,
                "start": round(sp.start, 9),
                "end": round(sp.end, 9),
                "parent": index.get(id(sp.parent)) if sp.parent else None,
                "op": sp.op,
            }
            for sp in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)


def maybe_span(rec: Optional[Recorder], name: str, op: Optional[str] = None):
    """``rec.span(name, op)``, or a no-op when the run records no spans."""
    return rec.span(name, op) if rec is not None else contextlib.nullcontext()


def layer_table(rec: Recorder, wall_s: float,
                phase: str = "") -> list[tuple[str, float, int, float]]:
    """``(layer, self seconds, count, share of wall)`` rows plus an
    ``unaccounted`` row, so the rows sum to ``wall_s``."""
    rows = []
    accounted = 0.0
    for name, (self_s, n) in sorted(rec.self_times(phase).items()):
        accounted += self_s
        rows.append((name, self_s, n, self_s / wall_s if wall_s else 0.0))
    rest = wall_s - accounted
    rows.append(("unaccounted", rest, 0, rest / wall_s if wall_s else 0.0))
    return rows


# -------------------------------------------------------- instrumentation
class _JsonShim:
    """Stands in for the ``json`` module inside ``repro.harness.cache`` so
    that encode/decode (``sim.serialize``) and file IO (cache self time)
    get separate spans.  Byte-for-byte the same output as ``json.dump``."""

    JSONDecodeError = json.JSONDecodeError

    def __init__(self, rec: Recorder) -> None:
        self._rec = rec

    def dump(self, obj: Any, fh: Any, **kw: Any) -> None:
        with self._rec.span("sim.serialize"):
            text = json.dumps(obj, **kw)
        self._rec.count("sim.result_bytes", len(text))
        fh.write(text)

    def load(self, fh: Any, **kw: Any) -> Any:
        text = fh.read()
        with self._rec.span("sim.deserialize"):
            return json.loads(text, **kw)

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)


def _wrap(rec: Recorder, name: str, fn: Callable, after: Optional[Callable] = None):
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with rec.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(args, out)
        return out

    return wrapper


@contextlib.contextmanager
def instrument(rec: Recorder) -> Iterator[Recorder]:
    """Wrap the layer entry points for the duration of a span run."""
    from repro.core import policies
    from repro.harness import cache, executor, journal, runner
    from repro.runtime.system import RuntimeSystem

    def after_build(args: tuple, program: Any) -> None:
        rec.count("workloads.tasks", len(program.specs))

    def after_run(args: tuple, result: Any) -> None:
        system = args[0]
        rec.count(f"{rec.phase()}.sim.runs")
        rec.count("sim.events", system.sim.events_fired)
        rec.count("runtime.bl_edges", system.tdg.bl_edges_visited_total)
        rec.count("runtime.tasks_executed", result.tasks_executed)
        rec.count("sim.reconfigs", result.reconfig_count)
        rec.count("sim.freq_transitions", result.freq_transitions)
        rec.count("sim.cpufreq_writes", result.cpufreq_writes)

    def after_get(args: tuple, result: Any) -> None:
        outcome = "cache_hits" if result is not None else "cache_misses"
        rec.count(f"harness.{outcome}")
        rec.count(f"{rec.phase()}.{outcome}")

    patches = [
        (executor, "build_program", _wrap(rec, "workloads.build", executor.build_program, after_build)),
        (policies, "build_system", _wrap(rec, "core.build_system", policies.build_system)),
        (RuntimeSystem, "run", _wrap(rec, "sim.run", RuntimeSystem.run, after_run)),
        (cache, "result_to_dict", _wrap(rec, "sim.serialize", cache.result_to_dict)),
        (cache, "result_from_dict", _wrap(rec, "sim.deserialize", cache.result_from_dict)),
        (cache, "json", _JsonShim(rec)),
        (cache.ResultCache, "get", _wrap(rec, "harness.cache_get", cache.ResultCache.get, after_get)),
        (cache.ResultCache, "put", _wrap(rec, "harness.cache_put", cache.ResultCache.put)),
        (journal.SweepJournal, "__init__", _wrap(rec, "harness.journal", journal.SweepJournal.__init__)),
        (journal.SweepJournal, "record", _wrap(rec, "harness.journal", journal.SweepJournal.record)),
        (executor.SweepExecutor, "run_cells", _wrap(rec, "harness.executor", executor.SweepExecutor.run_cells)),
        (runner.GridRunner, "__init__", _wrap(rec, "harness.runner", runner.GridRunner.__init__)),
        (runner.GridRunner, "run_grid", _wrap(rec, "harness.runner", runner.GridRunner.run_grid)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield rec
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)
