"""Content-addressed on-disk cache for sweep results.

Every grid cell is a pure, deterministic function of its key — workload,
policy, fast-core budget, seed, scale, the machine configuration and the
code/schema version.  The cache therefore addresses results by a SHA-256
hash of exactly those fields: two runners (or two invocations days apart)
can never alias results across scales or machine configurations, and
bumping :data:`CACHE_SCHEMA_VERSION` after a behavioral simulator change
invalidates every stale entry at once without touching the disk.

Layout: ``<root>/<key[:2]>/<key>.json``, one JSON document per result
(serialized via :mod:`repro.sim.serialize`).  Writes are atomic
(temp file + :func:`os.replace`) so a concurrent or killed run can never
leave a half-written entry; reads treat any undecodable or truncated file
as a miss and move it into ``<root>/quarantine/`` for post-mortem, so
corruption costs one re-simulation, not a crash and not the evidence.
A cache whose filesystem rejects writes (read-only mount, quota, ENOSPC)
degrades to read-only for the rest of the session instead of failing the
sweep.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import warnings
from typing import Any, Optional

from ..runtime.system import RunResult
from ..sim.config import MachineConfig, default_machine
from ..sim.serialize import machine_to_dict, result_from_dict, result_to_dict

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "QUARANTINE_DIR",
    "machine_fingerprint",
    "cell_key",
    "ResultCache",
]

#: Bump whenever the simulator's observable behavior or the serialized
#: schema changes; every previously cached result then misses.
#: v2: cell keys gained the fault-injection spec field.
#: v3: cell keys gained the scenario/arrival spec field and RunResult
#: gained optional tail-latency/QoS fields.
CACHE_SCHEMA_VERSION: int = 3

#: Subdirectory (under the cache root) holding corrupt entries moved aside
#: by :meth:`ResultCache.get` instead of being deleted.
QUARANTINE_DIR = "quarantine"


@functools.lru_cache(maxsize=16)
def machine_fingerprint(machine: Optional[MachineConfig] = None) -> str:
    """Stable hex digest of a machine configuration.

    ``None`` fingerprints the default machine — the configuration that a
    runner constructed without an explicit machine will actually simulate.
    Memoized on the frozen (hashable) config: a sweep keys every cell
    against the same machine, and the digest dominates a key's cost.
    """
    if machine is None:
        machine = default_machine()
    blob = json.dumps(machine_to_dict(machine), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cell_key(
    workload: str,
    policy: str,
    fast: int,
    seed: int,
    scale: float,
    machine: Optional[MachineConfig] = None,
    trace_enabled: bool = False,
    faults: str = "off",
    scenario: str = "off",
) -> str:
    """Content address of one grid cell's result.

    ``scenario`` is the canonical open-loop scenario spec, or ``"off"``
    for legacy closed-loop cells; it joins the key so a scenario cell can
    never alias the closed-loop cell for the same workload name.
    """
    blob = json.dumps(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "workload": workload,
            "policy": policy,
            "fast": fast,
            "seed": seed,
            "scale": scale,
            "machine": machine_fingerprint(machine),
            "trace": bool(trace_enabled),
            "faults": faults,
            "scenario": scenario,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Persistent result store with hit/miss accounting."""

    def __init__(self, root: str) -> None:
        self.root = root
        try:
            os.makedirs(root, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ValueError(
                f"cache dir {root!r} exists and is not a directory"
            ) from exc
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt_evictions = 0
        self.write_failures = 0
        #: Set after the first failed write: the sweep continues with the
        #: cache in read-only mode instead of failing on every cell.
        self.disabled = False

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry under ``<root>/quarantine/`` for post-mortem.

        Falls back to deletion (and then to leaving the file in place) if
        the move itself fails — eviction must never raise.
        """
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        try:
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(qdir, os.path.basename(path)))
        except OSError:
            try:
                os.remove(path)
            except OSError:
                pass

    def get(self, key: str) -> Optional[RunResult]:
        """Cached result for ``key``, or ``None`` (miss or corrupt entry)."""
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                data: Any = json.load(fh)
            result = result_from_dict(data)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError):
            # Truncated/corrupt entry: quarantine and recompute rather than
            # crash; the moved-aside file keeps the evidence.
            self.corrupt_evictions += 1
            self.misses += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> None:
        """Atomically persist ``result`` under ``key``.

        A failed write (read-only filesystem, quota, ENOSPC) warns once and
        flips the cache to read-only for the rest of the session — a broken
        cache must degrade the sweep, not abort it.
        """
        if self.disabled:
            return
        path = self._path(key)
        tmp: Optional[str] = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # One json.dumps call: json.dump on a file handle runs the
                # pure-Python encoder for the same bytes.
                fh.write(json.dumps(result_to_dict(result), sort_keys=True))
            os.replace(tmp, path)
            tmp = None
        except OSError as exc:
            self.write_failures += 1
            self.disabled = True
            warnings.warn(
                f"result cache at {self.root!r} is not writable ({exc}); "
                "continuing without persisting results",
                stacklevel=2,
            )
            return
        finally:
            if tmp is not None:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
        self.stores += 1

    def __len__(self) -> int:
        """Number of intact entries (quarantined and temp files excluded)."""
        n = 0
        for dirpath, dirnames, files in os.walk(self.root):
            if QUARANTINE_DIR in dirnames:
                dirnames.remove(QUARANTINE_DIR)
            n += sum(
                1
                for f in files
                if f.endswith(".json") and not f.startswith(".tmp-")
            )
        return n
