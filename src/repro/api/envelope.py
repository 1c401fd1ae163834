"""The uniform result envelope and the JSON wire codec for the task API.

Every task — whatever its shape and whichever backend ran it — resolves to
one :class:`TaskResult`: a status string, a JSON-safe payload carrying the
task-specific quantities, physical/virtual step accounting, wall-clock
timing, the seed that governed the trial, and the id of the backend that
executed it.  One envelope means one serialization, one logging shape and one
parity check for the whole surface, instead of ten bespoke result types.

The codec (:func:`to_wire` / :func:`from_wire`, :func:`to_json` /
:func:`from_json`) maps every request type of :mod:`repro.api.requests` and
:class:`TaskResult` onto tagged JSON objects::

    {"kind": "RouteRequest", "fields": {...}}

and back, *losslessly*: ``from_json(to_json(x)) == x`` and
``to_json(from_json(s)) == s`` for canonical ``s``.  Canonical form sorts
keys, so equal objects always serialize to identical bytes — the golden
fixture in ``tests/data/api_envelopes.json`` pins this wire format against
accidental drift, and the Hypothesis suite in ``tests/test_api_envelope.py``
fuzzes the round trip over field values.

Field values must stay within JSON's value set (numbers, strings, booleans,
``None``, and nested lists/dicts thereof); tuples are encoded as JSON arrays
and re-frozen to tuples on decode where the dataclass demands it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.experiments import ScenarioSpec
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
    WireCodable,
)
from repro.errors import TaskError

__all__ = [
    "TaskResult",
    "WIRE_KINDS",
    "to_wire",
    "from_wire",
    "to_json",
    "from_json",
]


@dataclass(frozen=True)
class TaskResult(WireCodable):
    """What one task submission produced, in the one shape every task shares.

    ``status`` is the task's headline verdict (``"success"``/``"failure"``
    for single routes, ``"ok"``/``"violations"`` for harness tasks, ...);
    ``payload`` carries every task-specific quantity as a JSON-safe mapping;
    ``physical_steps`` / ``virtual_steps`` are the envelope-level step
    accounting (``None`` when the task has no such notion); ``seed`` is the
    seed that governed the trial (scenario seed, pair seed or master seed —
    see each executor); ``backend`` is the id of the backend that ran the
    task; ``elapsed_seconds`` is wall-clock execution time as measured by
    that backend (the one field two otherwise-identical runs may differ in).

    ``provenance`` is the accountability block every backend stamps in one
    place (:func:`repro.api.executors.result_provenance`): the result's
    content ``address`` (sha256 of request envelope + code/schema version),
    the ``schema_version``/``code_version`` that produced it, the
    ``kernel_store`` format fingerprint, and ``parent`` — ``None`` until the
    result is appended to a :class:`repro.provenance.log.ResultLog`, which
    patches in the chain head it was sealed against.  A pure function of the
    request and process-invariant constants (never of timing or cache
    state), so backend-parity comparisons still hold exactly.
    """

    task: str
    status: str
    backend: str
    payload: Dict[str, object]
    physical_steps: Optional[int] = None
    virtual_steps: Optional[int] = None
    seed: Optional[int] = None
    elapsed_seconds: float = 0.0
    provenance: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        """True unless the task itself reports a harness-level problem."""
        return self.status != "violations"

    def replace_timing(self, elapsed_seconds: float) -> "TaskResult":
        """The same result with different timing (used for parity checks)."""
        import dataclasses

        return dataclasses.replace(self, elapsed_seconds=elapsed_seconds)


def _integer(value: object, field: str) -> int:
    """A wire integer field, decoded strictly.

    JSON booleans are Python ``int`` subclasses and ``int()`` truncates
    floats and parses strings; each of those would decode to a request
    whose re-encoding differs from the bytes sent, so all are rejected.
    """
    if type(value) is not int:
        raise TaskError(f"{field!r} must be an integer, got {value!r}")
    return value


def _optional_integer(value: object, field: str) -> Optional[int]:
    """An optional wire integer field: an integer or ``null``, decoded strictly."""
    if value is not None and type(value) is not int:
        raise TaskError(f"{field!r} must be an integer or null, got {value!r}")
    return value


def _optional_real(value: object, field: str) -> Optional[float]:
    """An optional wire real field: a finite number or ``null``, decoded strictly.

    An integer stays an integer, so the request re-encodes to the bytes sent;
    booleans, strings and the non-finite values Python's JSON parser admits
    are rejected.
    """
    if value is not None and (
        type(value) not in (int, float) or not math.isfinite(value)
    ):
        raise TaskError(f"{field!r} must be a real number or null, got {value!r}")
    return value


# --------------------------------------------------------------------------- #
# ScenarioSpec <-> wire
# --------------------------------------------------------------------------- #


def _spec_to_wire(spec: ScenarioSpec) -> Dict[str, object]:
    return {
        "name": spec.name,
        "family": spec.family,
        "size": spec.size,
        "seed": spec.seed,
        "radius": spec.radius,
        "dimension": spec.dimension,
        "namespace_size": spec.namespace_size,
        "extra": [[key, value] for key, value in spec.extra],
    }


def _spec_from_wire(data: Dict[str, object]) -> ScenarioSpec:
    extra = tuple((str(key), value) for key, value in data.get("extra", []))
    return ScenarioSpec(
        name=str(data["name"]),
        family=str(data["family"]),
        size=_integer(data["size"], "size"),
        seed=_integer(data["seed"], "seed"),
        radius=_optional_real(data.get("radius"), "radius"),
        dimension=_integer(data.get("dimension", 2), "dimension"),
        namespace_size=_optional_integer(data.get("namespace_size"), "namespace_size"),
        extra=extra,
    )


def _pairs_to_wire(pairs) -> Optional[list]:
    if pairs is None:
        return None
    return [[source, target] for source, target in pairs]


def _pairs_from_wire(pairs) -> Optional[tuple]:
    if pairs is None:
        return None
    return tuple(
        (_integer(source, "pairs"), _integer(target, "pairs")) for source, target in pairs
    )


# --------------------------------------------------------------------------- #
# Per-kind encoders/decoders
# --------------------------------------------------------------------------- #


def _encode_route(request: RouteRequest) -> Dict[str, object]:
    return {
        "scenario": _spec_to_wire(request.scenario),
        "source": request.source,
        "target": request.target,
        "size_bound": request.size_bound,
        "start_port": request.start_port,
    }


def _decode_route(fields: Dict[str, object]) -> RouteRequest:
    return RouteRequest(
        scenario=_spec_from_wire(fields["scenario"]),
        source=_integer(fields["source"], "source"),
        target=_integer(fields["target"], "target"),
        size_bound=_optional_integer(fields.get("size_bound"), "size_bound"),
        start_port=_integer(fields.get("start_port", 0), "start_port"),
    )


def _encode_batch(request) -> Dict[str, object]:
    return {
        "scenario": _spec_to_wire(request.scenario),
        "pairs": _pairs_to_wire(request.pairs),
        "num_pairs": request.num_pairs,
        "pair_seed": request.pair_seed,
        "size_bound": request.size_bound,
    }


def _decode_batch_as(cls, fields: Dict[str, object]):
    # Absent optional keys are *omitted* so the dataclass's own defaults
    # apply — the decoder must never shadow them with different values.
    kwargs: Dict[str, object] = {
        "scenario": _spec_from_wire(fields["scenario"]),
        "pairs": _pairs_from_wire(fields.get("pairs")),
    }
    if "num_pairs" in fields:
        kwargs["num_pairs"] = _integer(fields["num_pairs"], "num_pairs")
    if "pair_seed" in fields:
        kwargs["pair_seed"] = _integer(fields["pair_seed"], "pair_seed")
    if "size_bound" in fields:
        kwargs["size_bound"] = _optional_integer(fields["size_bound"], "size_bound")
    return cls(**kwargs)


def _encode_source_task(request) -> Dict[str, object]:
    return {"scenario": _spec_to_wire(request.scenario), "source": request.source}


def _decode_source_task_as(cls, fields: Dict[str, object]):
    return cls(
        scenario=_spec_from_wire(fields["scenario"]),
        source=_integer(fields["source"], "source"),
    )


def _encode_broadcast_reliable(request: BroadcastReliableRequest) -> Dict[str, object]:
    return {
        "scenario": _spec_to_wire(request.scenario),
        "source": request.source,
        "value": request.value,
        "byzantine": [[node, behavior] for node, behavior in request.byzantine],
        "num_byzantine": request.num_byzantine,
        "behaviors": list(request.behaviors),
        "fault_seed": request.fault_seed,
        "crashes": list(request.crashes),
        "delay": request.delay,
    }


def _decode_broadcast_reliable(fields: Dict[str, object]) -> BroadcastReliableRequest:
    kwargs: Dict[str, object] = {
        "scenario": _spec_from_wire(fields["scenario"]),
        "source": _integer(fields["source"], "source"),
    }
    if "value" in fields:
        kwargs["value"] = str(fields["value"])
    if "byzantine" in fields:
        kwargs["byzantine"] = tuple(
            (_integer(node, "byzantine"), str(behavior))
            for node, behavior in fields["byzantine"]
        )
    if "num_byzantine" in fields:
        kwargs["num_byzantine"] = _integer(fields["num_byzantine"], "num_byzantine")
    if "behaviors" in fields:
        kwargs["behaviors"] = tuple(str(b) for b in fields["behaviors"])
    if "fault_seed" in fields:
        kwargs["fault_seed"] = _integer(fields["fault_seed"], "fault_seed")
    if "crashes" in fields:
        kwargs["crashes"] = tuple(_integer(node, "crashes") for node in fields["crashes"])
    if "delay" in fields:
        kwargs["delay"] = _integer(fields["delay"], "delay")
    return BroadcastReliableRequest(**kwargs)


def _encode_connectivity(request: ConnectivityRequest) -> Dict[str, object]:
    return {
        "scenario": _spec_to_wire(request.scenario),
        "source": request.source,
        "target": request.target,
    }


def _decode_connectivity(fields: Dict[str, object]) -> ConnectivityRequest:
    return ConnectivityRequest(
        scenario=_spec_from_wire(fields["scenario"]),
        source=_integer(fields["source"], "source"),
        target=_integer(fields["target"], "target"),
    )


def _encode_compare(request: CompareRequest) -> Dict[str, object]:
    return {
        "scenario": _spec_to_wire(request.scenario),
        "num_pairs": request.num_pairs,
        "pair_seed": request.pair_seed,
    }


def _decode_compare(fields: Dict[str, object]) -> CompareRequest:
    kwargs: Dict[str, object] = {"scenario": _spec_from_wire(fields["scenario"])}
    if "num_pairs" in fields:
        kwargs["num_pairs"] = _integer(fields["num_pairs"], "num_pairs")
    if "pair_seed" in fields:
        kwargs["pair_seed"] = _integer(fields["pair_seed"], "pair_seed")
    return CompareRequest(**kwargs)


def _encode_sweep(request: SweepRequest) -> Dict[str, object]:
    return {
        "scenarios": [_spec_to_wire(spec) for spec in request.scenarios],
        "routers": list(request.routers),
        "pairs": request.pairs,
        "master_seed": request.master_seed,
        "workers": request.workers,
        "out_path": request.out_path,
        "resume": request.resume,
        "experiment": request.experiment,
    }


def _decode_sweep(fields: Dict[str, object]) -> SweepRequest:
    return SweepRequest(
        scenarios=tuple(_spec_from_wire(spec) for spec in fields["scenarios"]),
        routers=tuple(str(r) for r in fields.get("routers", ("ues-engine",))),
        pairs=_integer(fields.get("pairs", 8), "pairs"),
        master_seed=_integer(fields.get("master_seed", 0), "master_seed"),
        workers=_integer(fields.get("workers", 1), "workers"),
        out_path=fields.get("out_path"),
        resume=bool(fields.get("resume", False)),
        experiment=str(fields.get("experiment", "api-sweep")),
    )


def _encode_conformance(request: ConformanceRequest) -> Dict[str, object]:
    return {
        "scenarios": (
            None
            if request.scenarios is None
            else [_spec_to_wire(spec) for spec in request.scenarios]
        ),
        "pairs_per_scenario": request.pairs_per_scenario,
        "seed": request.seed,
        "workers": request.workers,
    }


def _decode_conformance(fields: Dict[str, object]) -> ConformanceRequest:
    scenarios = fields.get("scenarios")
    return ConformanceRequest(
        scenarios=(
            None
            if scenarios is None
            else tuple(_spec_from_wire(spec) for spec in scenarios)
        ),
        pairs_per_scenario=_integer(fields.get("pairs_per_scenario", 4), "pairs_per_scenario"),
        seed=_integer(fields.get("seed", 0), "seed"),
        workers=_integer(fields.get("workers", 1), "workers"),
    )


def _encode_result(result: TaskResult) -> Dict[str, object]:
    return {
        "task": result.task,
        "status": result.status,
        "backend": result.backend,
        "payload": result.payload,
        "physical_steps": result.physical_steps,
        "virtual_steps": result.virtual_steps,
        "seed": result.seed,
        "elapsed_seconds": result.elapsed_seconds,
        "provenance": result.provenance,
    }


def _decode_result(fields: Dict[str, object]) -> TaskResult:
    return TaskResult(
        task=str(fields["task"]),
        status=str(fields["status"]),
        backend=str(fields["backend"]),
        payload=dict(fields.get("payload", {})),
        physical_steps=fields.get("physical_steps"),
        virtual_steps=fields.get("virtual_steps"),
        seed=fields.get("seed"),
        elapsed_seconds=float(fields.get("elapsed_seconds", 0.0)),
        provenance=fields.get("provenance"),
    )


#: kind -> (type, encode, decode).  The single source of truth for the wire
#: format; the golden fixture test iterates this mapping so a new kind cannot
#: be added without pinning its serialization.
WIRE_KINDS = {
    "RouteRequest": (RouteRequest, _encode_route, _decode_route),
    "RouteBatchRequest": (
        RouteBatchRequest,
        _encode_batch,
        lambda fields: _decode_batch_as(RouteBatchRequest, fields),
    ),
    "ScheduleRouteRequest": (
        ScheduleRouteRequest,
        _encode_batch,
        lambda fields: _decode_batch_as(ScheduleRouteRequest, fields),
    ),
    "BroadcastRequest": (
        BroadcastRequest,
        _encode_source_task,
        lambda fields: _decode_source_task_as(BroadcastRequest, fields),
    ),
    "BroadcastReliableRequest": (
        BroadcastReliableRequest,
        _encode_broadcast_reliable,
        _decode_broadcast_reliable,
    ),
    "CountRequest": (
        CountRequest,
        _encode_source_task,
        lambda fields: _decode_source_task_as(CountRequest, fields),
    ),
    "ConnectivityRequest": (ConnectivityRequest, _encode_connectivity, _decode_connectivity),
    "CompareRequest": (CompareRequest, _encode_compare, _decode_compare),
    "SweepRequest": (SweepRequest, _encode_sweep, _decode_sweep),
    "ConformanceRequest": (ConformanceRequest, _encode_conformance, _decode_conformance),
    "TaskResult": (TaskResult, _encode_result, _decode_result),
}

assert all(cls in {entry[0] for entry in WIRE_KINDS.values()} for cls in REQUEST_TYPES)


def to_wire(obj) -> Dict[str, object]:
    """Encode a request or result into its tagged JSON-safe wire object."""
    for kind, (cls, encode, _decode) in WIRE_KINDS.items():
        if type(obj) is cls:
            return {"kind": kind, "fields": encode(obj)}
    raise TaskError(f"cannot serialize {type(obj).__name__}: not a wire type")


def from_wire(data: Dict[str, object]):
    """Decode a tagged wire object back into its request/result type."""
    if not isinstance(data, dict) or "kind" not in data:
        raise TaskError("wire object must be a dict with a 'kind' tag")
    kind = data["kind"]
    entry = WIRE_KINDS.get(kind)
    if entry is None:
        raise TaskError(f"unknown wire kind {kind!r}")
    _cls, _encode, decode = entry
    return decode(data.get("fields", {}))


def to_json(obj, indent: Optional[int] = None) -> str:
    """Canonical JSON serialization (sorted keys, no NaN) of a wire type."""
    try:
        return json.dumps(to_wire(obj), sort_keys=True, indent=indent, allow_nan=False)
    except (TypeError, ValueError) as error:
        raise TaskError(
            f"{type(obj).__name__} is not JSON-serializable as-is ({error}); "
            "wire types must carry only JSON-safe field values"
        )


def from_json(text: str):
    """Parse a canonical JSON string back into its request/result object."""
    try:
        data = json.loads(text)
    except ValueError as error:
        raise TaskError(f"invalid task JSON: {error}")
    return from_wire(data)
