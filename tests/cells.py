"""Injected cells that reach pool worker processes.

A cell injected as ``executor.cell_fn`` runs in a worker process (always
for the sweep service, for every pooled batch of a sweep), so it must
pickle by reference (module level) and can coordinate with the test only
through the file system: each cell here reads and writes sentinel files
in the directory named by ``REPRO_TEST_CELL_DIR`` (see the ``cell_dir``
fixture), which a worker inherits when its pool forks.
"""

import os
import time

from repro.harness.executor import process_alive, simulate_cell

CELL_DIR_ENV = "REPRO_TEST_CELL_DIR"


def sentinel(name):
    return os.path.join(os.environ[CELL_DIR_ENV], name)


def touch(name, text=""):
    with open(sentinel(name), "w", encoding="utf-8") as fh:
        fh.write(text)


def read(name):
    with open(sentinel(name), encoding="utf-8") as fh:
        return fh.read()


def once(name):
    """True exactly once per sentinel name, across processes."""
    if os.path.exists(sentinel(name)):
        return False
    touch(name)
    return True


def wait_for(name, timeout_s):
    """Block until sentinel ``name`` exists; False on timeout."""
    deadline = time.monotonic() + timeout_s
    while not os.path.exists(sentinel(name)):
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
    return True


def wait_gone(pids, timeout_s=10.0):
    """Block until none of ``pids`` runs; False on timeout."""
    deadline = time.monotonic() + timeout_s
    while any(map(process_alive, pids)):
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.05)
    return True


def calls():
    """``(pid, policy, key)`` of every recorded cell call, oldest first."""
    rows = []
    for name in sorted(os.listdir(os.environ[CELL_DIR_ENV])):
        if name.startswith("call-"):
            pid, policy, key = read(name).split()
            rows.append((int(pid), policy, key))
    return rows


def _record(spec):
    touch(
        f"call-{time.monotonic_ns():020d}-{os.getpid()}",
        f"{os.getpid()} {spec.policy} {spec.key()}",
    )


def counting_cell(spec, machine_dict=None):
    """Record the call (and the pid that runs it), then simulate."""
    _record(spec)
    return simulate_cell(spec, machine_dict)


def counting_slow_cell(spec, machine_dict=None):
    """Record the call, then take 0.2 s longer than the simulation."""
    _record(spec)
    time.sleep(0.2)
    return simulate_cell(spec, machine_dict)


def slow_cell(spec, machine_dict=None):
    """Announce the start (sentinel ``started``), then take 0.15 s longer
    than the simulation."""
    touch("started")
    time.sleep(0.15)
    return simulate_cell(spec, machine_dict)


def wedged_cell(spec, machine_dict=None):
    """Announce entry (sentinel ``entered``, holding the worker pid), then
    block until sentinel ``release`` appears (at most 30 s)."""
    touch("entered", str(os.getpid()))
    wait_for("release", 30.0)
    return simulate_cell(spec, machine_dict)


def exiting_cell(spec, machine_dict=None):
    """``SystemExit`` on ``cata``; every other policy simulates."""
    if spec.policy == "cata":
        raise SystemExit("cell called exit")
    return simulate_cell(spec, machine_dict)


def broken_cell(spec, machine_dict=None):
    """Deterministic failure on ``cata``; every other policy simulates."""
    if spec.policy == "cata":
        raise ValueError("deterministically broken")
    return simulate_cell(spec, machine_dict)


def broken_until_fixed_cell(spec, machine_dict=None):
    """Deterministic failure until sentinel ``fixed`` exists."""
    if not os.path.exists(sentinel("fixed")):
        raise ValueError("config error, fixed later")
    return simulate_cell(spec, machine_dict)
