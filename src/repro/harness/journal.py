"""Durable JSONL logs: the sweep journal and the service's job log.

:class:`DurableLog` is the one writer and reader of an append-only JSONL
file that must survive a SIGKILL: each entry is one ``json.dumps(...,
sort_keys=True)`` line, flushed and fsynced before :meth:`DurableLog.append`
returns.  The reader is deliberately tolerant: a torn final line (the
process died mid-append), an undecodable line or a line that is not a JSON
object is skipped and counted, and the next writer starts on a fresh line
so its first entry is never glued onto the garbage.  Two logs use it: the
sweep journal below (``<cache>/journal.jsonl``) and the sweep service's
``<state>/jobs.jsonl``.

The persistent :class:`~repro.harness.cache.ResultCache` already makes an
interrupted sweep resumable — every finished cell's result survives on
disk.  The :class:`SweepJournal` adds the *ledger*: one line per completed
cell, written at completion time, so a resumed invocation can tell exactly
which cells the previous (possibly SIGKILLed) run finished, report
"resuming N of M", and distinguish a cache hit that is a genuine resume
from one that predates the sweep.  Its format is one JSON object per
line, ``{"key": ..., "label": ..., "seconds": ...}``; it is an
optimization over the cache, never an authority.

A closed log stays closed: ``append`` and ``close`` share one lock, and
an ``append`` that arrives after ``close`` (a sweep-service worker thread
abandoned at a missed stop deadline finishing its cell late) is dropped,
not written through a reopened handle.  The cell it names is already in
the cache.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Optional, TextIO

__all__ = ["DurableLog", "SweepJournal"]


class DurableLog:
    """Append-only, fsynced JSONL file with a torn-tail-tolerant reader.

    @guarded_by("_lock"): _fh, _closed
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: Optional[TextIO] = None
        self._lock = threading.Lock()
        self._closed = False
        #: Torn, undecodable or non-object lines skipped by :meth:`read`.
        self.skipped_lines = 0

    def read(self) -> list[dict[str, Any]]:
        """Every JSON-object line on disk, oldest first (none if the file
        is missing or unreadable)."""
        entries: list[dict[str, Any]] = []
        try:
            with open(self.path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except json.JSONDecodeError:
                        entry = None
                    if isinstance(entry, dict):
                        entries.append(entry)
                    else:
                        self.skipped_lines += 1
        except OSError:
            pass
        return entries

    def append(self, entry: dict[str, Any]) -> bool:
        """Append ``entry`` as one line; crash-safe (flush + fsync).

        Thread-safe.  False, with nothing written, once the log is closed
        or when the write fails: an unwritable log degrades recovery,
        nothing else.
        """
        with self._lock:
            if self._closed:
                return False
            try:
                if self._fh is None:
                    os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
                    self._fh = open(self.path, "a", encoding="utf-8")
                    # A writer killed mid-append leaves a torn line with
                    # no newline; the next entry must not be glued onto it.
                    if self._fh.tell() > 0 and not self._ends_with_newline():
                        self._fh.write("\n")
                self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except OSError:
                return False
            return True

    def _ends_with_newline(self) -> bool:
        with open(self.path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) == b"\n"

    def close(self) -> None:
        """Close the append handle; later ``append`` calls are dropped."""
        with self._lock:
            self._closed = True
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None


class SweepJournal:
    """Append-only completion ledger for one sweep directory."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._log = DurableLog(path)
        #: Serializes ``record``, so each key is appended at most once.
        self._lock = threading.Lock()
        self.recorded = 0
        #: Per-key simulation seconds, for entries that carried one; lets
        #: a resumed run (or the sweep service) report how long a cell
        #: took even when it was finished by an earlier process.
        self.seconds: dict[str, float] = {}
        #: Keys found on disk when the journal was opened (prior runs).
        self.completed: set[str] = set()
        entries = self._log.read()
        #: Torn/garbage lines skipped by the loader.
        self.skipped_lines = self._log.skipped_lines
        for entry in entries:
            key = entry.get("key")
            if not isinstance(key, str):
                self.skipped_lines += 1
                continue
            self.completed.add(key)
            if isinstance(entry.get("seconds"), (int, float)):
                self.seconds[key] = float(entry["seconds"])

    def record(self, key: str, label: str, seconds: float) -> None:
        """Append one completed cell; crash-safe (flush + fsync).

        Thread-safe; a no-op once the journal is closed.
        """
        seconds = round(seconds, 6)
        with self._lock:
            if key in self.completed or not self._log.append(
                {"key": key, "label": label, "seconds": seconds}
            ):
                return
            self.completed.add(key)
            self.seconds[key] = seconds
            self.recorded += 1

    def close(self) -> None:
        """Close the append handle; later ``record`` calls are dropped."""
        self._log.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
