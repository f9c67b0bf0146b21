"""Shared plumbing of the benchmark: paths, environment, checks, statistics.

Everything here runs in the benchmark's own process.  The program under
test is imported from ``<checkout>/src`` and is only ever called through
its public functions; nothing under ``src/`` is modified.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Iterable, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space for caches, state dirs, the kernel ``.so`` and span dumps.
#: Listed in the root ``.gitignore``.
WORK = os.path.join(ROOT, ".perfbench-run")
REFS_DIR = os.path.join(BENCH_DIR, "refs")
GOLDEN_PATH = os.path.join(ROOT, "tests", "golden", "golden_traces.json")

#: The workload seed the committed reference fingerprints were made for.
DEFAULT_SEED = 1


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program sources)."""


def prepare_environment() -> dict[str, str]:
    """Point imports at the checkout and keep every write inside it.

    The kernel layer compiles its ``.so`` under ``tempfile.gettempdir()``;
    ``TMPDIR`` moves that (and every other temp file) under ``WORK``.
    Returns the environment child processes are started with.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no program sources under {SRC!r}")
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def fresh_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ------------------------------------------------------------ fingerprints
def fingerprint_dict(result_dict: dict[str, Any]) -> str:
    """SHA-256 of a serialized result, as the golden tests compute it."""
    blob = json.dumps(result_dict, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fingerprint(result: Any) -> str:
    from repro.sim.serialize import result_to_dict

    return fingerprint_dict(result_to_dict(result))


def cell_label(workload: str, policy: str, fast: int, seed: int,
               scale: float, trace: bool, scenario: str = "off") -> str:
    """Human-readable, unique name of one cell (reference-file key)."""
    tail = "/trace" if trace else ""
    if scenario != "off":
        tail += f"/{scenario}"
    return f"{workload}/{policy}/{fast}/s{seed}/x{scale:g}{tail}"


def load_refs(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["cells"]


class Checker:
    """Output checks shared by every job of one run.

    A cell's fingerprint must equal the committed reference (when the
    reference file has that cell) and the first fingerprint this run saw
    for it — so every warm read and every service fetch is compared with
    the cold result of the same cell.  Thread-safe.
    """

    def __init__(self, refs: dict[str, str], golden: Optional[dict[str, str]] = None):
        import threading

        self.refs = refs
        self.golden = golden or {}
        self.seen: dict[str, str] = {}
        self.mismatches: list[str] = []
        self.checked = 0
        self.ref_checked = 0
        self.golden_checked = 0
        self._lock = threading.Lock()

    def check(self, label: str, digest: str) -> bool:
        with self._lock:
            self.checked += 1
            ok = True
            first = self.seen.setdefault(label, digest)
            if first != digest:
                ok = False
                self.mismatches.append(f"{label}: {digest[:12]} != first {first[:12]}")
            ref = self.refs.get(label)
            if ref is not None:
                self.ref_checked += 1
                if ref != digest:
                    ok = False
                    self.mismatches.append(f"{label}: {digest[:12]} != reference {ref[:12]}")
            gold = self.golden.get(label)
            if gold is not None:
                self.golden_checked += 1
                if gold != digest:
                    ok = False
                    self.mismatches.append(f"{label}: {digest[:12]} != golden {gold[:12]}")
            return ok

    def fail(self, message: str) -> None:
        with self._lock:
            self.mismatches.append(message)


# -------------------------------------------------------------- statistics
def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100); NaN without samples."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p`` percentile of ``n``."""
    return n - max(1, math.ceil(p / 100.0 * n))


def warm_rate(rates: list[float]) -> float:
    """Cells per second that nine in ten warm jobs reach: the 10th
    percentile of per-job rates.

    Warm jobs are short and run on one core.  The host runs such a job at
    one of two speeds about 1.6x apart (a pure-Python spin shows the same
    two speeds, in CPU time as in wall time), in bursts of a fraction of a
    second to a few seconds.  The share of a run spent at the fast speed
    drifts between runs, and for minutes at a time the host does not reach
    it at all, so the median, the mean and the fastest tenth of warm jobs
    move with the host.  The slowest tenth (this rate, and the p90 and p95
    of warm latency) stays at the slow speed.
    """
    return percentile(rates, 10)


def median(values: Iterable[float]) -> float:
    vals = list(values)
    return statistics.median(vals) if vals else 0.0


# ------------------------------------------------------------------ memory
def reap_children(timeout_s: float = 30.0) -> None:
    """Wait until every pool worker this process started has exited."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


def peak_rss_mb() -> tuple[float, float]:
    """Largest resident set, in MB, of this process and of any reaped
    child (pool workers, daemons, set-up probes)."""
    reap_children()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, kids / 1024.0


# ------------------------------------------------------------------- setup
#: What a sweep needs before its first cell: the package imported and the
#: kernel backend loaded.
_SWEEP_PROBE = (
    "import repro.harness.runner, repro.analysis.validate\n"
    "from repro.sim.arrays import native_enabled\n"
    "native_enabled()\n"
    "print('ready', flush=True)\n"
)


def sweep_setup_seconds(env: dict[str, str]) -> float:
    """One launch: fresh interpreter until the package is imported and the
    kernel backend loaded.  The first launch of a checkout also rewrites
    stale ``.pyc`` files, so callers throw one launch away."""
    reap_children()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _SWEEP_PROBE], env=env, stdout=subprocess.PIPE, cwd=ROOT,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
        raise RuntimeError("set-up probe failed")
    return elapsed


# ---------------------------------------------------------------- manifest
def kernel_backend() -> str:
    """The BL/energy kernel backend this process actually loaded."""
    from repro.sim import _ckernels
    from repro.sim.arrays import kernels_enabled, native_enabled

    if not kernels_enabled():
        return "object-walk"
    if not native_enabled():
        return "python-fallback"
    path = _ckernels._cache_path()
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return f"native-so:{digest[:16]}"


def source_digest() -> str:
    """Content hash of the program sources (the checkout has no git)."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "repro")
    for dirpath, dirnames, files in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode("utf-8"))
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha() -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # never report an enclosing repository's commit
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def manifest(workload: str, seed: int) -> dict[str, Any]:
    backend = kernel_backend()
    nproc = len(os.sched_getaffinity(0))
    py = platform.python_version()
    return {
        "workload": workload,
        "seed": seed,
        "kernel_backend": backend,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": py,
        "nproc": nproc,
        # Runs are only ever pooled with runs of the same key.
        "pool_key": f"{backend}|py{py}|nproc{nproc}",
    }
