"""repro.api — the unified task layer over every entry point.

After three PRs of growth the repository had ~10 public entry points with
incompatible argument conventions and bespoke result shapes (``route``,
``route_on_network``, ``route_many``, ``route_over_schedule``, ``broadcast``,
``count_nodes``, ``exploration_connectivity``, ``run_parameter_sweep``,
``run_conformance``, ``run_sweep``).  This package replaces that sprawl with
one request/result discipline:

* every operation is a frozen, JSON-round-trippable **request** dataclass
  (:mod:`repro.api.requests`);
* every outcome is one uniform **envelope**,
  :class:`~repro.api.envelope.TaskResult` — status, payload, step accounting,
  timing, seed provenance, backend id (:mod:`repro.api.envelope`);
* a :class:`~repro.api.session.Session` facade dispatches requests to
  pluggable **backends** — inline and process-pool
  (:mod:`repro.api.backends`);
* a **registry** of :class:`~repro.api.registry.TaskSpec` entries generates
  the CLI subcommands and binds each task to its argument set
  (:mod:`repro.api.registry`).

The per-pair free functions (``route``, ``route_over_schedule``, ...) stay,
and the differential-parity suite asserts that every backend reproduces them
exactly.  See ``docs/api.md`` for the task catalogue, envelope schema,
backend matrix and migration table.

This package module is the task API's front door: it re-exports the names
above from their defining modules, and it is the only package in ``repro``
that re-exports anything.
"""

from repro.analysis.experiments import ScenarioStore
from repro.api.backends import Backend, InlineBackend, ProcessPoolBackend
from repro.api.envelope import TaskResult, from_json, from_wire, to_json, to_wire
from repro.api.registry import TASKS, TaskSpec, task_by_name
from repro.api.requests import (
    REQUEST_TYPES,
    BroadcastReliableRequest,
    BroadcastRequest,
    CompareRequest,
    ConformanceRequest,
    ConnectivityRequest,
    CountRequest,
    RouteBatchRequest,
    RouteRequest,
    ScheduleRouteRequest,
    SweepRequest,
    TaskRequest,
)
from repro.api.session import DEFAULT_BACKENDS, Session

__all__ = [
    # session facade
    "Session",
    "DEFAULT_BACKENDS",
    # envelope + codec
    "TaskResult",
    "to_wire",
    "from_wire",
    "to_json",
    "from_json",
    # requests
    "TaskRequest",
    "REQUEST_TYPES",
    "RouteRequest",
    "RouteBatchRequest",
    "ScheduleRouteRequest",
    "BroadcastRequest",
    "BroadcastReliableRequest",
    "CountRequest",
    "ConnectivityRequest",
    "CompareRequest",
    "SweepRequest",
    "ConformanceRequest",
    # backends
    "Backend",
    "InlineBackend",
    "ProcessPoolBackend",
    "ScenarioStore",
    # registry
    "TaskSpec",
    "TASKS",
    "task_by_name",
]
