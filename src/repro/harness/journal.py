"""Sweep journal: append-only JSONL checkpoint of completed cells.

The persistent :class:`~repro.harness.cache.ResultCache` already makes an
interrupted sweep resumable — every finished cell's result survives on
disk.  The journal adds the *ledger*: one line per completed cell,
flushed and fsynced at completion time, so a resumed invocation can tell
exactly which cells the previous (possibly SIGKILLed) run finished, report
"resuming N of M", and distinguish a cache hit that is a genuine resume
from one that predates the sweep.

Format: one JSON object per line — ``{"key": ..., "label": ...,
"seconds": ...}``.  The loader is deliberately tolerant: a torn final line
(the process died mid-append) or any undecodable line is skipped, because
the journal is an optimization over the cache, never an authority.

A closed journal stays closed: ``record`` and ``close`` share one lock,
and a ``record`` that arrives after ``close`` (a thread abandoned by the
sweep service's watchdog finishing its cell late) is dropped, not
appended through a reopened handle.  The cell it names is already in the
cache.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Optional, TextIO

__all__ = ["SweepJournal"]


class SweepJournal:
    """Append-only completion ledger for one sweep directory.

    @guarded_by("_lock"): _fh, _closed
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: Optional[TextIO] = None
        self._lock = threading.Lock()
        self._closed = False
        self.recorded = 0
        #: Torn/garbage lines skipped by the loader.
        self.skipped_lines = 0
        #: Per-key simulation seconds, for entries that carried one; lets
        #: a resumed run (or the sweep service) report how long a cell
        #: took even when it was finished by an earlier process.
        self.seconds: dict[str, float] = {}
        #: Keys found on disk when the journal was opened (prior runs).
        self.completed: set[str] = self._load()

    def _load(self) -> set[str]:
        done: set[str] = set()
        try:
            with open(self.path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                        key = entry["key"]
                    except (json.JSONDecodeError, KeyError, TypeError):
                        # Torn tail from a killed writer; skip, don't crash.
                        self.skipped_lines += 1
                        continue
                    if isinstance(key, str):
                        done.add(key)
                        if isinstance(entry.get("seconds"), (int, float)):
                            self.seconds[key] = float(entry["seconds"])
        except FileNotFoundError:
            pass
        except OSError:
            pass
        return done

    def record(self, key: str, label: str, seconds: float) -> None:
        """Append one completed cell; crash-safe (flush + fsync).

        Thread-safe; a no-op once the journal is closed.
        """
        with self._lock:
            if not self._closed and key not in self.completed:
                self._append_locked(key, label, seconds)

    def _append_locked(self, key: str, label: str, seconds: float) -> None:
        try:
            if self._fh is None:
                os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
                self._fh = open(self.path, "a", encoding="utf-8")
                # A writer killed mid-append leaves a torn line with no
                # newline; start on a fresh line so the next record isn't
                # glued onto the garbage and lost with it.
                if self._fh.tell() > 0 and not self._ends_with_newline():
                    self._fh.write("\n")
            self._fh.write(
                json.dumps(
                    {"key": key, "label": label, "seconds": round(seconds, 6)},
                    sort_keys=True,
                )
                + "\n"
            )
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError:
            # An unwritable journal degrades resume reporting, nothing else.
            return
        self.completed.add(key)
        self.seconds[key] = round(seconds, 6)
        self.recorded += 1

    def _ends_with_newline(self) -> bool:
        with open(self.path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) == b"\n"

    def close(self) -> None:
        """Close the append handle; later ``record`` calls are dropped."""
        with self._lock:
            self._closed = True
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
