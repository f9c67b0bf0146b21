"""Golden-trace regression tests: the optimized stack must be bitwise-exact.

The committed fixture ``golden_traces.json`` was generated from the
pre-optimization engine (see ``regenerate.py``).  Each test re-runs one
(workload, policy) cell through the current code and compares the SHA-256
of the canonical serialized ``RunResult`` — trace records, energy floats,
event ordering, everything.  A mismatch means an "optimization" changed
observable behaviour.
"""

import json
import pathlib
import sys

import pytest

from repro.runtime.tdg import TaskGraph
from repro.sim import _ckernels
from repro.sim.arrays import kernels_enabled, native_enabled

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from regenerate import (  # noqa: E402
    GOLDEN_FAST,
    GOLDEN_PATH,
    GOLDEN_POLICIES,
    GOLDEN_SCALE,
    GOLDEN_SEED,
    fingerprint,
    run_cell,
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _cells():
    doc = json.loads(GOLDEN_PATH.read_text())
    return sorted(doc["cells"])


def test_fixture_covers_all_six_workloads_and_both_policies(golden):
    workloads = {c.split("/")[0] for c in golden["cells"]}
    policies = {c.split("/")[1] for c in golden["cells"]}
    assert len(workloads) == 6
    assert policies == set(GOLDEN_POLICIES)


@pytest.mark.parametrize("cell", _cells())
def test_trace_is_bitwise_identical_to_golden(golden, cell):
    workload, policy = cell.split("/")
    result = run_cell(workload, policy)
    expected = golden["cells"][cell]
    assert result.tasks_executed == expected["tasks_executed"]
    assert result.exec_time_ns == expected["exec_time_ns"]
    assert fingerprint(result) == expected["sha256"], (
        f"{cell}: serialized RunResult diverged from the pre-optimization "
        "golden trace — the change is not output-preserving"
    )


# ------------------------------------------------- array-kernel toggling
#: Representative cells re-fingerprinted under each kernel backend: one
#: software-reconfiguration policy and one BL-estimator policy, including
#: the pipeline benchmark whose chains stress the relaxation walk.
TOGGLE_CELLS = ("fluidanimate/cata", "dedup/cats_bl")


@pytest.mark.parametrize("toggle", ["1", "0", "no-compiler"])
@pytest.mark.parametrize("cell", TOGGLE_CELLS)
def test_golden_identical_under_kernel_toggle(golden, cell, toggle, monkeypatch):
    """Kernels forced on, forced off, and a host whose C library does not
    load (the reference is then its only path) all hit the golden hash."""
    if toggle == "no-compiler":
        monkeypatch.setattr(_ckernels, "load", lambda: None)
        assert not kernels_enabled() and not native_enabled()
        assert TaskGraph()._k is None
    else:
        monkeypatch.setenv("REPRO_ARRAY_KERNELS", toggle)
    workload, policy = cell.split("/")
    result = run_cell(workload, policy)
    assert fingerprint(result) == golden["cells"][cell]["sha256"], (
        f"{cell} diverged from golden under kernel leg {toggle!r} — "
        "the kernel backend changed observable output"
    )


@pytest.mark.parametrize("toggle", ["1", "0"])
def test_faulted_cell_identical_under_kernel_toggle(toggle, monkeypatch):
    """A chaos-spec cell is backend-invariant too (no golden hash is
    committed for faulted runs; the kernels-off run is the reference)."""
    from repro.core.policies import run_policy
    from repro.workloads import build_program

    def faulted_fingerprint():
        program = build_program("bodytrack", scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
        result = run_policy(
            program, "cata_rsu", fast_cores=GOLDEN_FAST, seed=GOLDEN_SEED,
            trace_enabled=True, faults="chaos:intensity=0.5,horizon=4ms",
        )
        return fingerprint(result)

    monkeypatch.setenv("REPRO_ARRAY_KERNELS", "0")
    reference = faulted_fingerprint()
    monkeypatch.setenv("REPRO_ARRAY_KERNELS", toggle)
    assert faulted_fingerprint() == reference
