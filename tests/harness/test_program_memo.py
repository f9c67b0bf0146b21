"""The per-process program memo on the cell path (``executor._cell_program``).

Its safety condition is that a run never mutates its program: every
registered policy, with and without faults, at both ends of the budget
range and on both kernel backends, must produce the same result from one
shared ``Program`` as from a fresh build, and leave that program equal to
a deep copy taken before the runs.
"""

import copy
import json

import pytest

from repro.core.policies import EXTRA_POLICIES, POLICIES, run_policy
from repro.harness import executor
from repro.harness.executor import (
    PROGRAM_MEMO_SIZE,
    CellSpec,
    SweepExecutor,
    simulate_cell,
)
from repro.sim.serialize import result_to_dict
from repro.workloads import build_program

SCALE = 0.05
SEED = 3
FAULTS = ("off", "chaos:intensity=1.0")
BUDGETS = (8, 24)


def _encoded(program, policy, fast, faults):
    result = run_policy(
        program, policy, fast_cores=fast, seed=SEED, trace_enabled=True, faults=faults
    )
    return json.dumps(result_to_dict(result), sort_keys=True)


@pytest.mark.parametrize("kernels", ["1", "0"])
@pytest.mark.parametrize("workload", ["blackscholes", "fluidanimate", "ferret"])
def test_shared_program_matches_fresh_build(workload, kernels, monkeypatch):
    monkeypatch.setenv("REPRO_ARRAY_KERNELS", kernels)
    shared = build_program(workload, scale=SCALE, seed=SEED)
    before = copy.deepcopy(shared)
    for policy in POLICIES + EXTRA_POLICIES:
        for faults in FAULTS:
            for fast in BUDGETS:
                fresh = build_program(workload, scale=SCALE, seed=SEED)
                assert _encoded(shared, policy, fast, faults) == _encoded(
                    fresh, policy, fast, faults
                ), f"{workload}/{policy}@{fast} faults={faults}"
    assert shared == before


@pytest.fixture
def builds(monkeypatch):
    """Count the real program builds behind ``simulate_cell``."""
    calls = []
    real = executor.build_program

    def counting(name, **kw):
        calls.append(name)
        return real(name, **kw)

    executor._cell_program.cache_clear()
    monkeypatch.setattr(executor, "build_program", counting)
    yield calls
    executor._cell_program.cache_clear()


def test_cells_sharing_a_program_build_it_once(builds):
    for policy in ("fifo", "cata", "cats_bl"):
        for fast in (8, 24):
            simulate_cell(CellSpec("dedup", policy, fast, SEED, SCALE))
    assert builds == ["dedup"]
    simulate_cell(CellSpec("dedup", "fifo", 8, SEED + 1, SCALE))
    simulate_cell(CellSpec("ferret", "fifo", 8, SEED, SCALE))
    assert builds == ["dedup", "dedup", "ferret"]


def test_memo_is_bounded(builds):
    for seed in range(PROGRAM_MEMO_SIZE + 1):
        simulate_cell(CellSpec("swaptions", "fifo", 8, seed, SCALE))
    assert executor._cell_program.cache_info().currsize == PROGRAM_MEMO_SIZE
    # Seed 0 was the least recently used, so it was evicted.
    simulate_cell(CellSpec("swaptions", "fifo", 8, 0, SCALE))
    assert len(builds) == PROGRAM_MEMO_SIZE + 2


def test_each_executor_starts_the_memo_empty(builds):
    specs = [CellSpec("dedup", policy, 8, SEED, SCALE) for policy in ("fifo", "cata")]
    for _ in range(2):
        sweep = SweepExecutor()
        sweep.run_cells(specs)
        sweep.close()
    assert builds == ["dedup", "dedup"]


def test_memoized_cell_equals_a_fresh_run(builds):
    spec = CellSpec("bodytrack", "cata", 8, SEED, SCALE)
    simulate_cell(CellSpec("bodytrack", "fifo", 8, SEED, SCALE))
    memoized, _ = simulate_cell(spec)
    assert builds == ["bodytrack"]
    fresh = run_policy(
        build_program("bodytrack", scale=SCALE, seed=SEED), "cata", fast_cores=8,
        seed=SEED, trace_enabled=False,
    )
    assert result_to_dict(memoized) == result_to_dict(fresh)


def test_scenario_cells_bypass_the_memo(builds):
    spec = CellSpec(
        "web", "cata", 8, SEED, SCALE, scenario="t0:dedup@poisson(jobs=2,rate=1)"
    )
    simulate_cell(spec)
    assert builds == []
    assert executor._cell_program.cache_info().currsize == 0
