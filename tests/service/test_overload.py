"""Admission-control tests: criticality derivation, deterministic seeded
shedding, per-client caps, the hard ceiling, and the service-level
surfaces (OverloadedError / DrainingError, idempotent re-submits)."""

import pytest

from repro.harness.executor import CellSpec
from repro.service.overload import (
    CRITICALITY_HIGH,
    CRITICALITY_LOW,
    AdmissionController,
    DrainingError,
    OverloadedError,
    OverloadPolicy,
    criticality_of,
)
from repro.service.protocol import ProtocolError
from repro.service.server import SweepService

SCALE = 0.05
#: A two-tenant scenario with one qos-bounded (latency-critical) tenant —
#: the acceptance scenario: its submissions must stay admitted under load.
QOS_SCENARIO = (
    "web:swaptions@poisson(jobs=2,rate=1)@qos=1000000ns"
    "+batch:blackscholes@closed(jobs=2)"
)
#: Same shape, no qos bound anywhere: batch work, low criticality.
BATCH_SCENARIO = "a:swaptions@closed(jobs=2)+b:blackscholes@closed(jobs=2)"


def _spec(scenario="off", seed=1, policy="fifo"):
    return CellSpec(
        workload="swaptions" if scenario == "off" else "mix",
        policy=policy,
        fast=8,
        seed=seed,
        scale=SCALE,
        scenario=scenario,
    )


def _grid(client="anon", seeds=(1,), policies=("fifo",), criticality=None,
          scenario=None):
    body = {
        "client": client,
        "workloads": ["swaptions" if scenario is None else "mix"],
        "policies": list(policies),
        "budgets": [8],
        "seeds": list(seeds),
        "scale": SCALE,
    }
    if scenario is not None:
        body["scenario"] = scenario
    if criticality is not None:
        body["criticality"] = criticality
    return body


class TestCriticalityDerivation:
    def test_explicit_field_wins(self):
        specs = [_spec(QOS_SCENARIO)]
        assert criticality_of({"criticality": "low"}, specs) == CRITICALITY_LOW
        assert criticality_of({"criticality": "high"}, []) == CRITICALITY_HIGH

    def test_invalid_explicit_field_rejected(self):
        with pytest.raises(ProtocolError, match="criticality"):
            criticality_of({"criticality": "urgent"}, [])

    def test_qos_bounded_scenario_is_high(self):
        assert criticality_of({}, [_spec(QOS_SCENARIO)]) == CRITICALITY_HIGH

    def test_unbounded_scenario_and_plain_cells_are_low(self):
        assert criticality_of({}, [_spec(BATCH_SCENARIO)]) == CRITICALITY_LOW
        assert criticality_of({}, [_spec()]) == CRITICALITY_LOW

    def test_mixed_submission_takes_the_highest(self):
        specs = [_spec(), _spec(QOS_SCENARIO)]
        assert criticality_of({}, specs) == CRITICALITY_HIGH


class TestOverloadPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            OverloadPolicy(max_queue_depth=0)
        with pytest.raises(ValueError):
            OverloadPolicy(max_queue_depth=10, hard_queue_depth=10)
        with pytest.raises(ValueError):
            OverloadPolicy(max_inflight_per_client=0)


def _policy(**kw):
    defaults = dict(
        max_queue_depth=4, hard_queue_depth=8,
        max_inflight_per_client=100, shed_seed=7,
    )
    defaults.update(kw)
    return OverloadPolicy(**defaults)


class TestAdmissionController:
    def test_below_soft_limit_everything_admitted(self):
        ctl = AdmissionController(_policy())
        for i in range(10):
            d = ctl.decide("c", CRITICALITY_LOW, 1, queue_depth=0,
                           client_inflight=0)
            assert d.admitted
        assert ctl.stats.admitted == 10

    def test_high_criticality_admitted_until_hard_ceiling(self):
        ctl = AdmissionController(_policy())
        # Anywhere in the ramp region, high passes unconditionally.
        for depth in range(4, 8):
            assert ctl.decide("c", CRITICALITY_HIGH, 1, queue_depth=depth,
                              client_inflight=0).admitted
        # At the hard ceiling, even high is shed.
        d = ctl.decide("c", CRITICALITY_HIGH, 1, queue_depth=8,
                       client_inflight=0)
        assert not d.admitted
        assert "hard ceiling" in d.reason
        assert ctl.stats.shed_high == 1

    def test_seeded_shed_decisions_are_deterministic(self):
        def run(seed):
            ctl = AdmissionController(_policy(shed_seed=seed))
            return [
                ctl.decide("c", CRITICALITY_LOW, 1, queue_depth=5,
                           client_inflight=0).admitted
                for _ in range(64)
            ]

        assert run(7) == run(7)
        # In the ramp region shed_p = 0.5: with 64 draws both outcomes
        # occur, and a different seed sheds a different subset.
        outcomes = run(7)
        assert True in outcomes and False in outcomes
        assert run(8) != outcomes

    def test_shed_probability_ramps_to_certainty(self):
        # One step below the hard ceiling the ramp still leaves headroom,
        # but exactly at hard - 1 with span 4: p = max(0.5, 3/4) = 0.75;
        # at depth >= hard every low submission is shed deterministically.
        ctl = AdmissionController(_policy())
        sheds = [
            not ctl.decide("c", CRITICALITY_LOW, 1, queue_depth=9,
                           client_inflight=0).admitted
            for _ in range(16)
        ]
        assert all(sheds)

    def test_client_cap_sheds_regardless_of_criticality(self):
        ctl = AdmissionController(_policy(max_inflight_per_client=3))
        d = ctl.decide("greedy", CRITICALITY_HIGH, 2, queue_depth=0,
                       client_inflight=2)
        assert not d.admitted
        assert "in-flight cap" in d.reason
        assert ctl.stats.shed_client_cap == 1
        # Another client with room proceeds at the same instant.
        assert ctl.decide("modest", CRITICALITY_LOW, 2, queue_depth=0,
                          client_inflight=0).admitted

    def test_retry_after_scales_and_clamps(self):
        ctl = AdmissionController(_policy())
        assert ctl.retry_after_s(0) == 1.0
        assert ctl.retry_after_s(4) == 1.0
        assert ctl.retry_after_s(8) > 1.0
        assert ctl.retry_after_s(10_000) == 60.0

    def test_snapshot_carries_policy_counters_and_shed_tail(self):
        ctl = AdmissionController(_policy())
        ctl.decide("c", CRITICALITY_LOW, 1, queue_depth=0, client_inflight=0)
        ctl.decide("c", CRITICALITY_LOW, 1, queue_depth=20, client_inflight=0)
        snap = ctl.snapshot()
        assert snap["policy"]["max_queue_depth"] == 4
        assert snap["decisions"] == 2
        assert snap["admitted"] == 1 and snap["shed_low"] == 1
        assert snap["recent_shed"][-1]["queue_depth"] == 20


class TestServiceOverload:
    """The acceptance scenario, in-process: two tenants, one qos-bounded;
    under synthetic overload the low-criticality tenant is shed first
    while the qos-bounded tenant keeps being admitted."""

    def _service(self, tmp_path, **policy_kw):
        policy = OverloadPolicy(
            max_queue_depth=2, hard_queue_depth=50,
            max_inflight_per_client=1000, shed_seed=0, **policy_kw
        )
        # The worker tier is never started: queued cells only accumulate,
        # which is exactly the synthetic overload we need.
        return SweepService(str(tmp_path / "state"), jobs=1, overload=policy)

    def test_low_shed_first_high_still_admitted(self, tmp_path):
        svc = self._service(tmp_path)
        # Fill past the soft limit with low-criticality batch work.
        svc.submit(_grid(client="batch", policies=("fifo", "cata", "cats_sa")))
        shed = None
        for seed in range(2, 40):
            try:
                svc.submit(_grid(client="batch", seeds=(seed,)))
            except OverloadedError as exc:
                shed = exc
                break
        assert shed is not None, "low-criticality submission never shed"
        assert shed.retry_after_s >= 1.0
        # The qos-bounded tenant's submission is still admitted at the
        # same queue depth.
        receipt = svc.submit(
            _grid(client="web", scenario=QOS_SCENARIO, policies=("cata",))
        )
        assert receipt["job"]
        snap = svc.health()["overload"]
        assert snap["shed_low"] >= 1
        assert snap["shed_high"] == 0
        svc.stop()

    def test_hard_ceiling_sheds_even_qos_bounded(self, tmp_path):
        policy = OverloadPolicy(
            max_queue_depth=1, hard_queue_depth=2,
            max_inflight_per_client=1000, shed_seed=0,
        )
        svc = SweepService(str(tmp_path / "state"), jobs=1, overload=policy)
        svc.submit(_grid(client="batch", policies=("fifo", "cata")))
        with pytest.raises(OverloadedError, match="hard ceiling"):
            svc.submit(
                _grid(client="web", scenario=QOS_SCENARIO, policies=("cata",))
            )
        svc.stop()

    def test_per_client_cap_with_explicit_criticality_flag(self, tmp_path):
        policy = OverloadPolicy(
            max_queue_depth=100, hard_queue_depth=200,
            max_inflight_per_client=2, shed_seed=0,
        )
        svc = SweepService(str(tmp_path / "state"), jobs=1, overload=policy)
        svc.submit(_grid(client="greedy", policies=("fifo", "cata")))
        with pytest.raises(OverloadedError, match="in-flight cap"):
            svc.submit(_grid(client="greedy", seeds=(2,),
                             criticality="high"))
        # A different client is unaffected.
        svc.submit(_grid(client="modest", seeds=(2,)))
        svc.stop()

    def test_draining_service_rejects_submissions(self, tmp_path):
        svc = SweepService(str(tmp_path / "state"), jobs=1)
        summary = svc.begin_drain()
        assert summary["draining"] is True
        with pytest.raises(DrainingError):
            svc.submit(_grid())
        assert svc.health()["draining"] is True
        svc.stop()


class TestIdempotentResubmit:
    def test_same_key_replays_the_original_receipt(self, tmp_path):
        svc = SweepService(str(tmp_path / "state"), jobs=1)
        body = _grid(client="alice")
        body["idempotency_key"] = "k-123"
        first = svc.submit(body)
        retry = svc.submit(dict(body))
        assert retry["job"] == first["job"]
        assert len(svc.status(first["job"], detail=True)["detail"]) == 1
        svc.stop()

    def test_distinct_keys_create_distinct_jobs(self, tmp_path):
        svc = SweepService(str(tmp_path / "state"), jobs=1)
        a = svc.submit(dict(_grid(), idempotency_key="k-a"))
        b = svc.submit(dict(_grid(), idempotency_key="k-b"))
        assert a["job"] != b["job"]
        svc.stop()

    def test_idempotency_survives_daemon_restart(self, tmp_path, abandon):
        state = str(tmp_path / "state")
        life1 = SweepService(state, jobs=1)
        body = dict(_grid(), idempotency_key="k-restart")
        first = life1.submit(body)
        abandon(life1)  # SIGKILL never says goodbye
        life2 = SweepService(state, jobs=1)
        retry = life2.submit(dict(body))
        assert retry["job"] == first["job"]
        life2.stop()
