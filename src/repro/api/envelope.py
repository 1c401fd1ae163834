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

The dataclass annotations are the one declaration of the wire form; one
encoder and one strict decoder (:func:`decode`) walk them.  The rules:

* the field names are the dataclass fields, and a nested dataclass (the
  :class:`~repro.analysis.experiments.ScenarioSpec`) is a nested object;
* values are never coerced: an ``int``, ``str`` or ``bool`` field takes only
  that JSON type, a ``float`` field a finite number (an integer stays an
  integer), an ``Optional`` field also ``null``, a tuple field an array;
* unknown keys are refused, and so is an absent required field;
* absent optional fields take the dataclass defaults;
* ``ScenarioSpec.extra`` values are JSON scalars (string, number, boolean
  or ``null``).

A decoded request therefore re-encodes to the bytes that were sent, so its
content address names the request that was sent.  Every type's decode plan
is built at import, so an annotation the codec cannot read fails on import,
not on a served request.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import typing
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional, Tuple, Union

from repro.api.requests import REQUEST_TYPES, WireCodable
from repro.errors import TaskError

__all__ = [
    "TaskResult",
    "WIRE_KINDS",
    "to_wire",
    "from_wire",
    "decode",
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
        return dataclasses.replace(self, elapsed_seconds=elapsed_seconds)


#: A field decoder: ``(wire value, field name) -> field value``.
_Decoder = Callable[[object, str], object]

#: Decode plan per dataclass: field decoders by name, and the required names.
_PLANS: Dict[type, Tuple[Dict[str, _Decoder], FrozenSet[str]]] = {}

_NONE = type(None)
_SCALAR_NOUNS = {
    str: "a string",
    int: "an integer",
    float: "a real number",
    bool: "a boolean",
    _NONE: "null",
}


def _refusal(name: str, noun: str, value: object) -> TaskError:
    return TaskError(f"{name!r} must be {noun}, got {value!r}")


def _scalar_decoder(types: Tuple[type, ...]) -> _Decoder:
    """Exact JSON-type match: a boolean is no integer, a string no number.

    A ``float`` field also takes an integer and keeps it an integer, so the
    value re-encodes to the bytes sent; the non-finite values Python's JSON
    parser admits are refused.
    """
    nouns = [_SCALAR_NOUNS[kind] for kind in types]
    noun = nouns[0] if len(nouns) == 1 else ", ".join(nouns[:-1]) + " or " + nouns[-1]
    accepted = frozenset(types + ((int,) if float in types else ()))

    def decode(value: object, name: str) -> object:
        kind = type(value)
        if kind in accepted and (kind is not float or math.isfinite(value)):
            return value
        raise _refusal(name, noun, value)

    return decode


def _decoder(hint: object, or_null: str = "") -> _Decoder:
    """The decoder for one annotation; a ``TypeError`` for one it cannot read."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in _SCALAR_NOUNS:
        return _scalar_decoder((hint,))
    if origin is Union:
        if all(arg in _SCALAR_NOUNS for arg in args):
            return _scalar_decoder(args)
        if len(args) == 2 and args[1] is _NONE:
            inner = _decoder(args[0], " or null")
            return lambda value, name: None if value is None else inner(value, name)
    elif origin is tuple and args:
        # ``Tuple[X, ...]`` takes any length, ``Tuple[X, Y]`` exactly two.
        size = None if args[-1] is Ellipsis else len(args)
        if size is None:
            items = itertools.repeat(_decoder(args[0]))
        else:
            items = [_decoder(arg) for arg in args]
        noun = ("an array" if size is None else f"an array of {size}") + or_null

        def decode_array(value: object, name: str) -> tuple:
            if type(value) not in (list, tuple) or size not in (None, len(value)):
                raise _refusal(name, noun, value)
            return tuple([item(element, name) for item, element in zip(items, value)])

        return decode_array
    elif origin is dict and args == (str, object):

        def decode_object(value: object, name: str) -> dict:
            if type(value) is not dict:
                raise _refusal(name, "an object" + or_null, value)
            return dict(value)

        return decode_object
    elif dataclasses.is_dataclass(hint):
        decoders, required = _plan(hint)

        def decode_nested(value: object, name: str) -> object:
            if type(value) is not dict:
                raise _refusal(name, "an object" + or_null, value)
            return _decode_fields(hint, decoders, required, value)

        return decode_nested
    raise TypeError(f"unsupported wire annotation {hint!r}")


def _plan(cls: type) -> Tuple[Dict[str, _Decoder], FrozenSet[str]]:
    plan = _PLANS.get(cls)
    if plan is None:
        hints = typing.get_type_hints(cls)
        fields = dataclasses.fields(cls)
        decoders = {field.name: _decoder(hints[field.name]) for field in fields}
        required = frozenset(
            field.name
            for field in fields
            if field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING
        )
        plan = _PLANS[cls] = (decoders, required)
    return plan


def _decode_fields(cls, decoders, required, data: dict):
    kwargs = {}
    for key, value in data.items():
        decoder = decoders.get(key)
        if decoder is None:
            raise TaskError(f"unknown field {key!r} for {cls.__name__}")
        kwargs[key] = decoder(value, key)
    if not required.issubset(kwargs):
        missing = sorted(required.difference(kwargs))
        raise TaskError(f"missing required field {missing[0]!r} for {cls.__name__}")
    return cls(**kwargs)


def decode(cls: type, data: object):
    """Decode one wire object strictly into the dataclass ``cls``."""
    if type(data) is not dict:
        raise TaskError(f"{cls.__name__} fields must be a JSON object, got {data!r}")
    return _decode_fields(cls, *_plan(cls), data)


def _encode(value: object) -> object:
    # Every wire dataclass has a plan (built below), nested ones included.
    if type(value) is tuple:
        return [_encode(item) for item in value]
    plan = _PLANS.get(type(value))
    if plan is not None:
        return {name: _encode(getattr(value, name)) for name in plan[0]}
    return value


#: kind -> type.  The golden fixture test iterates this mapping so a new kind
#: cannot be added without pinning its serialization.
WIRE_KINDS = {cls.__name__: cls for cls in REQUEST_TYPES + (TaskResult,)}

for _cls in WIRE_KINDS.values():
    _plan(_cls)


def to_wire(obj) -> Dict[str, object]:
    """Encode a request or result into its tagged JSON-safe wire object."""
    kind = type(obj).__name__
    if WIRE_KINDS.get(kind) is not type(obj):
        raise TaskError(f"cannot serialize {kind}: not a wire type")
    return {"kind": kind, "fields": _encode(obj)}


def from_wire(data: Dict[str, object]):
    """Decode a tagged wire object back into its request/result type."""
    if not isinstance(data, dict) or "kind" not in data:
        raise TaskError("wire object must be a dict with a 'kind' tag")
    kind = data["kind"]
    cls = WIRE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise TaskError(f"unknown wire kind {kind!r}")
    return decode(cls, data.get("fields", {}))


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
