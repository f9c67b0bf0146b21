"""Wire protocol of the sweep service (HTTP/JSON, stdlib only).

One protocol module shared by the daemon (:mod:`repro.service.server`) and
the client tier (:mod:`repro.service.client`), so a request expanded on one
side and re-expanded on the other can never disagree about which cells it
names.  Everything on the wire is plain JSON; every cell is identified by
the same content address (:func:`repro.harness.cache.cell_key`) the on-disk
result cache uses, which is what makes cross-client in-flight deduplication
and O(1) warm-cache serving possible.

Endpoints (all responses are JSON objects; errors are ``{"error": msg}``):

===========================  ==============================================
``POST /v1/jobs``            submit a sweep; body is a submit request (see
                             :func:`expand_submit`); returns a receipt
``GET /v1/jobs/<id>``        job progress; ``?detail=1`` adds per-cell
                             states, ``?wait=SEC`` long-polls until the job
                             settles (done/failed) or the deadline passes
``GET /v1/jobs/<id>/results``  results of a finished job, each with a
                             SHA-256 fingerprint of its serialized form
``GET /v1/healthz``          daemon liveness + lifetime sweep stats
===========================  ==============================================

A submit request is a grid, expanded as the cross product
``workloads x policies x budgets x seeds`` (submission order preserved):

.. code-block:: json

    {"client": "alice", "workloads": ["swaptions"],
     "policies": ["fifo", "cata"], "budgets": [8], "seeds": [1],
     "scale": 0.5, "faults": "off"}

Results are byte-identical to the single-process CLI path: the daemon's
worker tier runs the exact same :func:`repro.harness.executor.simulate_cell`
through the exact same :class:`~repro.harness.executor.SweepExecutor`, and
:func:`result_fingerprint` pins the equality.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

from ..core.policies import EXTRA_POLICIES, POLICIES
from ..harness.executor import CellSpec
from ..runtime.system import RunResult
from ..sim.serialize import result_to_dict
from ..workloads import BENCHMARKS

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_CLIENT",
    "MAX_CELLS_PER_SUBMIT",
    "MAX_BODY_BYTES",
    "ProtocolError",
    "spec_to_dict",
    "spec_from_dict",
    "expand_submit",
    "result_fingerprint",
]

PROTOCOL_VERSION = 1
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8321
DEFAULT_CLIENT = "anon"

#: Upper bound on cells in one submit request — a fat-fingered grid should
#: be rejected at the door, not queued for a week.
MAX_CELLS_PER_SUBMIT = 10_000

#: Upper bound on one HTTP request body.  Even a MAX_CELLS_PER_SUBMIT
#: explicit-cells submission fits comfortably; anything larger is a bug
#: or an attack and is answered 413 before a byte of it is buffered.
MAX_BODY_BYTES = 8 * 1024 * 1024


class ProtocolError(ValueError):
    """Malformed or invalid request body; maps to HTTP 400."""


def spec_to_dict(spec: CellSpec) -> dict[str, Any]:
    """JSON-safe form of one grid cell."""
    return {
        "workload": spec.workload,
        "policy": spec.policy,
        "fast": spec.fast,
        "seed": spec.seed,
        "scale": spec.scale,
        "trace": spec.trace_enabled,
        "faults": spec.faults,
        "scenario": spec.scenario,
    }


def spec_from_dict(data: dict[str, Any]) -> CellSpec:
    """Rebuild (and validate) a :class:`CellSpec` from the wire form."""
    if not isinstance(data, dict):
        raise ProtocolError(f"cell must be an object, got {type(data).__name__}")
    try:
        spec = CellSpec(
            workload=str(data["workload"]),
            policy=str(data["policy"]),
            fast=int(data["fast"]),
            seed=int(data["seed"]),
            scale=float(data["scale"]),
            trace_enabled=bool(data.get("trace", False)),
            faults=str(data.get("faults", "off")),
            scenario=str(data.get("scenario", "off")),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed cell {data!r}: {exc}") from exc
    _validate_spec(spec)
    return spec


def _validate_spec(spec: CellSpec) -> None:
    if spec.scenario != "off":
        # Scenario cells carry their benchmarks inside the spec; the
        # workload field is a display label.  Parse to validate (and to
        # reject non-canonical forms, which would fracture the cache).
        from ..workloads.scenario import parse_scenario

        try:
            canonical = parse_scenario(spec.scenario).canonical()
        except ValueError as exc:
            raise ProtocolError(f"bad scenario {spec.scenario!r}: {exc}") from exc
        if canonical != spec.scenario:
            raise ProtocolError(
                f"scenario {spec.scenario!r} is not canonical "
                f"(expected {canonical!r})"
            )
    elif spec.workload not in BENCHMARKS:
        raise ProtocolError(f"unknown workload {spec.workload!r}")
    if spec.policy not in POLICIES + EXTRA_POLICIES:
        raise ProtocolError(f"unknown policy {spec.policy!r}")
    if spec.fast < 1:
        raise ProtocolError(f"budget must be >= 1, got {spec.fast}")
    # json.loads accepts NaN and Infinity literals; neither is a scale.
    if not (math.isfinite(spec.scale) and spec.scale > 0):
        raise ProtocolError(
            f"scale must be positive and finite, got {spec.scale}"
        )
    if spec.seed < 0:
        raise ProtocolError(f"seed must be >= 0, got {spec.seed}")


def _str_list(body: dict[str, Any], field: str) -> list[str]:
    value = body.get(field)
    if not isinstance(value, list) or not value:
        raise ProtocolError(f"{field!r} must be a non-empty list")
    return [str(v) for v in value]


def _int_list(body: dict[str, Any], field: str, default: list[int]) -> list[int]:
    value = body.get(field, default)
    if not isinstance(value, list) or not value:
        raise ProtocolError(f"{field!r} must be a non-empty list")
    try:
        return [int(v) for v in value]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"{field!r} must contain integers") from exc


def expand_submit(body: Any) -> tuple[str, list[CellSpec]]:
    """Expand a submit request into ``(client, cells)``.

    Accepts either an explicit ``"cells": [...]`` list or a grid
    (``workloads x policies x budgets x seeds`` at one ``scale`` with one
    ``faults`` spec and, optionally, one canonical ``scenario`` applied to
    every cell).  Order is preserved — duplicates too: deduplication
    is the scheduler's job (and part of its accounting), not the parser's.
    """
    if not isinstance(body, dict):
        raise ProtocolError("request body must be a JSON object")
    client = str(body.get("client", DEFAULT_CLIENT)) or DEFAULT_CLIENT
    if "cells" in body:
        raw = body["cells"]
        if not isinstance(raw, list) or not raw:
            raise ProtocolError("'cells' must be a non-empty list")
        cells = [spec_from_dict(c) for c in raw]
    else:
        workloads = _str_list(body, "workloads")
        policies = _str_list(body, "policies")
        budgets = _int_list(body, "budgets", [8])
        seeds = _int_list(body, "seeds", [1])
        try:
            scale = float(body.get("scale", 1.0))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError("'scale' must be a number") from exc
        faults = str(body.get("faults", "off"))
        trace = bool(body.get("trace", False))
        scenario = str(body.get("scenario", "off"))
        cells = [
            CellSpec(
                workload=w, policy=p, fast=f, seed=s, scale=scale,
                trace_enabled=trace, faults=faults, scenario=scenario,
            )
            for w in workloads
            for p in policies
            for f in budgets
            for s in seeds
        ]
        for spec in cells:
            _validate_spec(spec)
    if len(cells) > MAX_CELLS_PER_SUBMIT:
        raise ProtocolError(
            f"{len(cells)} cells exceeds the per-submit limit of "
            f"{MAX_CELLS_PER_SUBMIT}"
        )
    return client, cells


def result_fingerprint(result: RunResult) -> str:
    """SHA-256 of the canonical serialized result.

    The same digest the golden-fingerprint tests pin, so "the daemon
    returned byte-identical results to the CLI path" is checkable from
    both sides of the wire.
    """
    blob = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
