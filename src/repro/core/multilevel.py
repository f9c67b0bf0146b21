"""Multi-level DVFS extension (the paper's stated future work).

Section III of the paper restricts CATA to two operating points ("Extending
the proposed ideas to more levels of acceleration is left as future work").
This module provides that extension: an RSU-style hardware manager that
arbitrates an arbitrary ladder of operating points under a power budget
expressed in *boost units* — level *i* of the ladder costs *i* units, so a
two-level ladder with budget ``fast_cores`` is exactly the paper's scheme.

Decision policy (a direct generalization of Section III-A):

* a starting **critical** task claims the highest level affordable,
  downgrading non-critical (or idle-but-boosted) holders one step at a time
  if the budget is exhausted;
* a starting **non-critical** task claims the highest level affordable
  without downgrading anyone;
* a finishing task releases its units, which immediately fund upgrades for
  running critical tasks (most-starved first).

The invariant generalizes to ``sum(level_index) <= budget_units`` and is
checked on every commit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..sim.config import DVFSLevel, MachineConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.system import RuntimeSystem
    from ..runtime.task import Task
    from ..runtime.worker import Worker

__all__ = ["MultiLevelStateTable", "MultiLevelRsuManager", "default_ladder"]

Proceed = Callable[[], None]


def default_ladder(machine: MachineConfig) -> list[DVFSLevel]:
    """Slow → mid → fast: the paper's two rails plus an interpolated point."""
    mid = DVFSLevel(
        name="mid",
        freq_ghz=(machine.slow.freq_ghz + machine.fast.freq_ghz) / 2,
        voltage_v=(machine.slow.voltage_v + machine.fast.voltage_v) / 2,
    )
    return [machine.slow, mid, machine.fast]


class MultiLevelStateTable:
    """Boost-unit bookkeeping across an operating-point ladder."""

    def __init__(self, core_count: int, level_count: int, budget_units: int) -> None:
        if level_count < 2:
            raise ValueError("need at least two levels")
        max_units = (level_count - 1) * core_count
        if not (0 < budget_units <= max_units):
            raise ValueError(f"budget_units must be in [1, {max_units}]")
        self.core_count = core_count
        self.level_count = level_count
        self.budget_units = budget_units
        self.level = [0] * core_count  # ladder index per core
        self.critical: list[Optional[bool]] = [None] * core_count  # None = no task
        self.failed = [False] * core_count  # fault injection: removed cores

    # ------------------------------------------------------------- queries
    @property
    def units_used(self) -> int:
        return sum(self.level)

    @property
    def units_free(self) -> int:
        return self.budget_units - self.units_used

    def check_invariant(self) -> None:
        if self.units_used > self.budget_units:
            raise RuntimeError(
                f"{self.units_used} boost units exceed budget {self.budget_units}"
            )
        if any(not (0 <= lv < self.level_count) for lv in self.level):
            raise RuntimeError("core level outside the ladder")

    # ----------------------------------------------------------- decisions
    def _downgrade_victim(self) -> Optional[int]:
        """A boosted core to take one unit from: idle first, then non-critical."""
        best: Optional[int] = None
        for i in range(self.core_count):
            if self.level[i] == 0 or self.failed[i]:
                continue
            if self.critical[i] is None:
                return i
            if best is None and self.critical[i] is False:
                best = i
        return best

    def on_assign(self, core: int, critical: bool) -> list[tuple[int, int]]:
        """Returns the list of ``(core, new_level)`` changes to apply."""
        if self.failed[core]:
            return []
        self.critical[core] = critical
        changes: dict[int, int] = {}
        target = self.level_count - 1
        need = target - self.level[core]
        if need <= 0:
            return []
        if critical:
            while need > self.units_free:
                victim = self._downgrade_victim()
                if victim is None or victim == core:
                    break
                self.level[victim] -= 1
                changes[victim] = self.level[victim]
        granted = min(need, self.units_free)
        if granted > 0:
            self.level[core] += granted
            changes[core] = self.level[core]
        self.check_invariant()
        return sorted(changes.items())

    def on_release(self, core: int) -> list[tuple[int, int]]:
        """Free the core's units and fund upgrades for running criticals."""
        self.critical[core] = None
        changes: dict[int, int] = {}
        if self.level[core] > 0:
            self.level[core] = 0
            changes[core] = 0
        # Most-starved running critical tasks first.
        while self.units_free > 0:
            candidates = [
                i
                for i in range(self.core_count)
                if self.critical[i] is True
                and self.level[i] < self.level_count - 1
                and not self.failed[i]
            ]
            if not candidates:
                break
            i = min(candidates, key=lambda c: (self.level[c], c))
            self.level[i] += 1
            changes[i] = self.level[i]
        self.check_invariant()
        return sorted(changes.items())

    def retire_core(self, core: int) -> None:
        """Fault injection: free the core's units, exclude it from decisions.

        Bookkeeping only — the dead core is powered off, so no DVFS request
        accompanies the level drop.  Idempotent.
        """
        if self.failed[core]:
            return
        self.failed[core] = True
        self.critical[core] = None
        self.level[core] = 0
        self.check_invariant()


class MultiLevelRsuManager:
    """RSU-style hardware manager over an operating-point ladder."""

    name = "cata_rsu_multilevel"

    def __init__(
        self, budget_units: int, ladder: Optional[Sequence[DVFSLevel]] = None
    ) -> None:
        self._budget_units = budget_units
        self._ladder_arg = list(ladder) if ladder is not None else None
        self._system: "RuntimeSystem | None" = None
        self.table: MultiLevelStateTable | None = None
        self.ladder: list[DVFSLevel] = []

    def attach(self, system: "RuntimeSystem") -> None:
        self._system = system
        self.ladder = (
            self._ladder_arg
            if self._ladder_arg is not None
            else default_ladder(system.machine)
        )
        self.table = MultiLevelStateTable(
            core_count=system.machine.core_count,
            level_count=len(self.ladder),
            budget_units=self._budget_units,
        )

    def on_run_start(self) -> None:
        pass

    @property
    def system(self) -> "RuntimeSystem":
        assert self._system is not None, "manager not attached"
        return self._system

    def _apply(self, initiator: int, changes: list[tuple[int, int]]) -> None:
        if not changes:
            return
        system = self.system
        now = system.sim.now
        # Downgrades are issued before upgrades (same safety argument as the
        # two-level RSU: equal ramp lengths mean released units land first).
        for core, lv in sorted(changes, key=lambda c: c[1]):
            system.dvfs.request(core, self.ladder[lv])
        ups = [c for c, lv in changes if lv > 0]
        downs = [c for c, lv in changes if lv == 0]
        system.trace.record_reconfig(
            initiator_core=initiator,
            start_ns=now,
            end_ns=now,
            accelerated_core=ups[0] if ups else None,
            decelerated_core=downs[0] if downs else None,
            mechanism="rsu",
        )

    def _notify(self, worker: "Worker", op: Callable[[], None], proceed: Proceed) -> None:
        cost = self.system.machine.overheads.rsu_op_ns

        def _done() -> None:
            op()
            proceed()

        worker.core.run_overhead(cost, _done, activity=0.8)

    def on_task_assigned(self, worker: "Worker", task: "Task", proceed: Proceed) -> None:
        assert self.table is not None

        def op() -> None:
            changes = self.table.on_assign(worker.core_id, task.critical)
            self._apply(worker.core_id, changes)

        self._notify(worker, op, proceed)

    def on_task_finished(self, worker: "Worker", task: "Task", proceed: Proceed) -> None:
        assert self.table is not None

        def op() -> None:
            changes = self.table.on_release(worker.core_id)
            self._apply(worker.core_id, changes)

        self._notify(worker, op, proceed)

    def on_worker_idle(self, worker: "Worker", proceed: Proceed) -> None:
        proceed()

    # ------------------------------------------------------ fault injection
    def on_core_failed(self, core_id: int) -> None:
        assert self.table is not None
        self.table.retire_core(core_id)

    def on_task_aborted(self, core_id: int) -> None:
        assert self.table is not None
        self.table.critical[core_id] = None
