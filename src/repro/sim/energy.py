"""Exact energy integration over per-core state intervals.

Every time a core changes any power-relevant attribute (DVFS level, C-state,
activity, busy flag) the accountant closes the open interval at the old power
draw and opens a new one.  Total energy is therefore an exact integral of the
piecewise-constant power signal — no sampling error, fully deterministic.

Where power and buckets are built: a core state is priced
(:meth:`PowerModel.core_w <repro.sim.power.PowerModel.core_w>`) and
classified into a breakdown bucket once per *process*, the first time any
accountant meets it, by :meth:`EnergyAccountant.resolve`; that is also
where its :class:`~repro.sim.power.CoreState` is validated.  The result,
a ``(watts, bucket index)`` pair, lives in a module-level table keyed by
value — power config, DVFS level, then ``(C-state, busy, activity)`` —
so later cells on the same machine never resolve it again.  A
:class:`~repro.sim.core_model.Core` holds the table of its current level
and hands each transition's pair to :meth:`EnergyAccountant.transition`,
the one per-transition entry point.

Two integration modes produce bit-identical results (pinned by
tests/golden and ``tests/sim/test_arrays.py``):

* **interval-batched** (default when the compiled kernels load; see
  :func:`repro.sim.arrays.kernels_enabled`): ``transition`` only appends
  ``(t, core, power, bucket)`` to the flat
  :class:`~repro.sim.arrays.TransitionLog`; the integration runs as one
  C replay sweep at :meth:`finalize` — and at any earlier sync point (a
  mid-run property read, or the periodic flush bounding log memory).
  Replaying transitions in append order reproduces the exact float
  summation order of the eager path: per-core partial sums accrue in
  that core's chronological order and the bucket sums in the global
  chronological interleaving, because that *is* append order.  A prefix
  flush performs the same additions at the same points in the sequence,
  so syncing early is bitwise-neutral.  The sweep is compiled with FP
  contraction off, so every multiply/divide rounds exactly as CPython
  does.
* **eager** (``REPRO_ARRAY_KERNELS=0``, or no C compiler): the
  historical per-edge accrual in ``transition`` itself.

All accumulators live in ``array('d')`` buffers shared by both modes —
a C double round-trips Python floats exactly, so the representation is
bitwise-neutral too.

EDP (energy-delay product), the paper's energy metric, is provided at the
end of a run as ``energy_j * exec_time_s``.
"""

from __future__ import annotations

from array import array
from typing import Optional

from . import _ckernels, arrays
from .config import DVFSLevel, PowerModelConfig
from .engine import SEC, Simulator
from .power import CoreState, PowerModel

__all__ = ["EnergyAccountant"]

#: Replay the transition log whenever it grows past this many entries —
#: bounds memory on long cells without changing any float (prefix sums).
_FLUSH_THRESHOLD = 65536

#: ``(C-state, busy, activity)`` -> ``(watts, bucket index)`` at one level.
PowerStates = dict[tuple[str, bool, float], tuple[float, int]]

#: Every core state this process has resolved, keyed by value: power
#: config, then DVFS level, then ``(C-state, busy, activity)``.  A run
#: visits a handful of states (levels x C-states x task activities), so
#: the table stays small and is never pruned.
_POWER_STATES: dict[PowerModelConfig, dict[DVFSLevel, PowerStates]] = {}


class EnergyAccountant:
    """Integrates chip energy (cores + uncore) over simulation time."""

    #: Breakdown bucket names, in reporting order (bucket index order).
    BUCKETS = ("busy_fast", "busy_slow", "idle_c0", "halt_c1", "sleep_c3")

    def __init__(
        self,
        sim: Simulator,
        model: PowerModel,
        core_count: int,
        batched: Optional[bool] = None,
    ) -> None:
        """``batched`` selects interval-batched integration (default: the
        ``REPRO_ARRAY_KERNELS`` environment toggle); it needs the compiled
        replay kernel, and without it the accountant integrates eagerly."""
        self._sim = sim
        self._model = model
        self._core_count = core_count
        self._core_energy_j = array("d", bytes(8 * core_count))
        self._core_last_change_ns = array("d", bytes(8 * core_count))
        #: Power/bucket of each core's current state, installed whenever a
        #: transition is applied (eagerly, or by the replay sweep).
        self._core_power = array("d", bytes(8 * core_count))
        self._core_bidx = array("q", bytes(8 * core_count))
        self._has_state = array("b", bytes(core_count))
        self._start_ns = sim.now
        self._finalized_at_ns: float | None = None
        self._bucket_energy = array("d", bytes(8 * len(self.BUCKETS)))
        self._bucket_time = array("d", bytes(8 * len(self.BUCKETS)))
        #: This power config's resolved states, per level (process-wide).
        self._levels = _POWER_STATES.setdefault(model.config, {})
        self._batched = arrays.kernels_enabled(batched)
        self._log = arrays.TransitionLog()

    @staticmethod
    def _bucket_of(state: CoreState) -> str:
        """Which breakdown bucket a core state accrues into."""
        if state.cstate == "C3":
            return "sleep_c3"
        if state.cstate == "C1":
            return "halt_c1"
        if not state.busy:
            return "idle_c0"
        return "busy_fast" if state.level.name == "fast" else "busy_slow"

    def power_states(self, level: DVFSLevel) -> PowerStates:
        """The resolved states at ``level``, keyed ``(cstate, busy,
        activity)``: shared by every accountant of this process on the same
        power config.  A key missing from it goes through :meth:`resolve`."""
        table = self._levels.get(level)
        if table is None:
            table = self._levels[level] = {}
        return table

    def resolve(self, state: CoreState) -> tuple[float, int]:
        """``(watts, bucket index)`` of ``state``, priced the first time
        this process meets it and looked up afterwards."""
        table = self.power_states(state.level)
        key = (state.cstate, state.busy, state.activity)
        power = table.get(key)
        if power is None:
            power = table[key] = (
                self._model.core_w(state),
                self.BUCKETS.index(self._bucket_of(state)),
            )
        return power

    # ------------------------------------------------------------- updates
    def transition(self, core_id: int, power: tuple[float, int]) -> None:
        """Record that ``core_id`` draws ``power`` — a ``(watts, bucket
        index)`` pair from :meth:`resolve` — from now on."""
        if self._batched:
            log = self._log
            log.t.append(self._sim._now)
            log.core.append(core_id)
            log.power.append(power[0])
            log.bidx.append(power[1])
            if len(log.t) >= _FLUSH_THRESHOLD:
                self._sync()
            return
        self._accrue(core_id)
        self._has_state[core_id] = 1
        self._core_power[core_id] = power[0]
        self._core_bidx[core_id] = power[1]

    def _accrue(self, core_id: int) -> None:
        # Reads the simulator clock directly (not through the `now`
        # property): this runs on every power-relevant state edge.
        now = self._sim._now
        if self._has_state[core_id]:
            dt_ns = now - self._core_last_change_ns[core_id]
            if dt_ns < 0:
                raise RuntimeError("time went backwards in energy accounting")
            # Power/bucket were installed when this state was applied.
            joules = self._core_power[core_id] * dt_ns / SEC
            bucket = self._core_bidx[core_id]
            self._core_energy_j[core_id] += joules
            self._bucket_energy[bucket] += joules
            self._bucket_time[bucket] += dt_ns
        self._core_last_change_ns[core_id] = now

    def _sync(self) -> None:
        """Replay the pending transition log (batched mode) through the C
        kernel.

        One sweep over the flat buffers, performing exactly the additions
        the eager path would have performed at each ``transition``, in
        the same order.  No-op when the log is empty (eager mode, or
        nothing pending).
        """
        log = self._log
        n = len(log.t)
        if not n:
            return
        addr = lambda a: a.buffer_info()[0]  # noqa: E731
        bad = _ckernels.load().energy_replay(
            addr(log.t),
            addr(log.core),
            addr(log.power),
            addr(log.bidx),
            n,
            addr(self._core_energy_j),
            addr(self._core_last_change_ns),
            addr(self._core_power),
            addr(self._core_bidx),
            addr(self._has_state),
            addr(self._bucket_energy),
            addr(self._bucket_time),
        )
        if bad >= 0:
            raise RuntimeError("time went backwards in energy accounting")
        log.clear()

    # ------------------------------------------------------------- results
    def finalize(self) -> None:
        """Close all open intervals at the current simulation time."""
        self._sync()
        for core_id in range(self._core_count):
            self._accrue(core_id)
        self._finalized_at_ns = self._sim.now

    @property
    def elapsed_s(self) -> float:
        end = self._finalized_at_ns if self._finalized_at_ns is not None else self._sim.now
        return (end - self._start_ns) / SEC

    def core_energy_j(self, core_id: int) -> float:
        """Accrued energy of one core (call :meth:`finalize` first)."""
        self._sync()
        return self._core_energy_j[core_id]

    @property
    def cores_energy_j(self) -> float:
        self._sync()
        return sum(self._core_energy_j)

    @property
    def uncore_energy_j(self) -> float:
        return self._model.uncore_w() * self.elapsed_s

    @property
    def total_energy_j(self) -> float:
        return self.cores_energy_j + self.uncore_energy_j

    @property
    def edp(self) -> float:
        """Energy-Delay Product in joule-seconds."""
        return self.total_energy_j * self.elapsed_s

    # ----------------------------------------------------------- breakdown
    def energy_breakdown_j(self) -> dict[str, float]:
        """Core energy split by state bucket, plus the uncore term.

        The buckets explain *where the energy went* — the paper's EDP
        argument is precisely that CATA removes ``idle_c0``/``busy_fast``
        waste by decelerating cores that finished their tasks.
        """
        self._sync()
        out = {name: self._bucket_energy[i] for i, name in enumerate(self.BUCKETS)}
        out["uncore"] = self.uncore_energy_j
        return out

    def time_breakdown_ns(self) -> dict[str, float]:
        """Aggregate core-time spent in each state bucket."""
        self._sync()
        return {name: self._bucket_time[i] for i, name in enumerate(self.BUCKETS)}
