"""The :class:`Session` facade — one front door for every task.

A session owns a scenario cache (:class:`~repro.analysis.experiments.ScenarioStore`)
and a set of named backends, routes each request type to its default backend,
and returns every outcome in the uniform
:class:`~repro.api.envelope.TaskResult` envelope::

    >>> from repro.api import Session, RouteRequest
    >>> from repro.analysis.experiments import ScenarioSpec
    >>> session = Session()
    >>> spec = ScenarioSpec(name="demo", family="grid", size=16, seed=0)
    >>> result = session.submit(RouteRequest(scenario=spec, source=0, target=15))
    >>> result.status
    'success'

Tasks submitted to the same session share prepared state: the scenario is
built once, its walk kernel compiled once, and every later task over the
same spec reuses them (see :meth:`Session.cache_info` for the counters).
The CLI (every subcommand), the conformance harness's API-parity check and
``examples/quickstart.py`` all dispatch through this facade.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.analysis.experiments import ScenarioStore
from repro.api.backends import Backend, InlineBackend, ProcessPoolBackend
from repro.api.envelope import TaskResult
from repro.api.requests import (
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
from repro.core.engine import prepared_cache_info
from repro.errors import TaskError

__all__ = ["Session", "DEFAULT_BACKENDS", "resolve_backend"]

#: Default backend id per request type.  Harness tasks default to the pooled
#: backend (their ``workers`` field still decides the actual parallelism, so
#: ``workers=1`` remains the serial reference); everything else runs inline.
DEFAULT_BACKENDS: Dict[type, str] = {
    RouteRequest: "inline",
    RouteBatchRequest: "inline",
    ScheduleRouteRequest: "inline",
    BroadcastRequest: "inline",
    BroadcastReliableRequest: "inline",
    CountRequest: "inline",
    ConnectivityRequest: "inline",
    CompareRequest: "inline",
    SweepRequest: "process-pool",
    ConformanceRequest: "process-pool",
}


def resolve_backend(name: str, request: TaskRequest) -> str:
    """The live backend id for ``name``: the retired ``schedule`` id is ``inline``.

    Logs recorded while schedule routes had their own backend carry
    ``"schedule"``, and old clients may still name it.  It resolves only for
    the :class:`ScheduleRouteRequest` it used to serve; any other request
    keeps the name (and so fails as an unknown backend).
    """
    if name == "schedule" and isinstance(request, ScheduleRouteRequest):
        return "inline"
    return name


class Session:
    """Submit task requests; get uniform, accountable task results back.

    Parameters
    ----------
    backends:
        Optional replacement backend mapping (id -> :class:`Backend`).  The
        default set is ``inline`` and ``process-pool``; tests substitute
        recording fakes here.
    result_log:
        Optional :class:`repro.provenance.log.ResultLog`.  When given, every
        submitted task is appended to it as one hash-chained ``task`` record
        (request envelope + result envelope) and the returned result carries
        its chain position in ``provenance["parent"]``.  The routing daemon
        shares one log across all its dispatcher threads this way.
    """

    def __init__(
        self,
        backends: Optional[Dict[str, Backend]] = None,
        result_log=None,
    ) -> None:
        self._store = ScenarioStore()
        self._backends: Dict[str, Backend] = (
            dict(backends)
            if backends is not None
            else {
                "inline": InlineBackend(),
                "process-pool": ProcessPoolBackend(),
            }
        )
        self._result_log = result_log
        self._submitted = 0

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def backend_for(self, request: TaskRequest) -> str:
        """The backend id a request routes to when none is named."""
        backend = DEFAULT_BACKENDS.get(type(request))
        if backend is None or backend not in self._backends:
            available = sorted(self._backends)
            raise TaskError(
                f"no default backend for {type(request).__name__}; "
                f"pass backend= explicitly (available: {available})"
            )
        return backend

    def submit(
        self, request: TaskRequest, backend: Optional[str] = None
    ) -> TaskResult:
        """Execute one request and return its :class:`TaskResult` envelope.

        ``backend`` overrides the default routing by id (a retired id
        resolves through :func:`resolve_backend`).  Routing *outcomes*
        (delivery failures, conformance violations) are ordinary results;
        only API misuse (unknown backend, unsupported request/backend
        combination, malformed request) raises.
        """
        name = backend if backend is not None else self.backend_for(request)
        if name not in self._backends:
            name = resolve_backend(name, request)
        chosen = self._backends.get(name)
        if chosen is None:
            raise TaskError(
                f"unknown backend {name!r}; available: {sorted(self._backends)}"
            )
        result = chosen.run(request, self._store)
        if self._result_log is not None:
            result = self._result_log.append_task(request, result)
        self._submitted += 1
        return result

    def submit_many(
        self, requests: Iterable[TaskRequest], backend: Optional[str] = None
    ) -> List[TaskResult]:
        """Submit every request in order against the shared session state."""
        return [self.submit(request, backend=backend) for request in requests]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def backends(self) -> Dict[str, Backend]:
        """The live backend mapping (read-only by convention)."""
        return dict(self._backends)

    def cache_info(self) -> Dict[str, int]:
        """Session-scoped *and* process-wide cache statistics, one flat dict.

        Session keys (``session_*``) count this session's scenario cache;
        the remaining keys are :func:`repro.core.engine.prepared_cache_info`
        for the current process (shared engines, schedules, sequence streams and
        their hit/miss counters).  Worker processes keep their own caches, so
        pooled tasks contribute only their parent-side shares here.
        """
        info: Dict[str, int] = dict(prepared_cache_info())
        info.update(self._store.info())
        info["session_tasks"] = self._submitted
        return info
