"""Wire-format tests: every request/result type round-trips losslessly.

Two layers of protection:

* **Hypothesis round trips** — for every request type and the result
  envelope, ``from_json(to_json(x)) == x`` and serialization is canonical
  (``to_json(from_json(s)) == s``), fuzzing over field values.
* **Golden fixture** — ``tests/data/api_envelopes.json`` pins the exact wire
  object of one representative instance per kind, so the format cannot drift
  without an explicit fixture update (and a review of the compatibility
  implications).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import SCENARIO_FAMILIES, ScenarioSpec
from repro.api.envelope import WIRE_KINDS, TaskResult, from_json, from_wire, to_json, to_wire
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
)
from repro.errors import TaskError
from repro.network.byzantine import BYZANTINE_BEHAVIORS

_GOLDEN = Path(__file__).parent / "data" / "api_envelopes.json"

_NAMES = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
)
_SCALARS = st.one_of(
    st.integers(-(2 ** 31), 2 ** 31),
    st.booleans(),
    _NAMES,
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)

_SPECS = st.builds(
    ScenarioSpec,
    name=_NAMES,
    family=st.sampled_from(SCENARIO_FAMILIES),
    size=st.integers(1, 500),
    seed=st.integers(0, 2 ** 32),
    radius=st.none() | st.floats(0.01, 2.0, allow_nan=False),
    dimension=st.sampled_from([2, 3]),
    namespace_size=st.none() | st.integers(1, 2 ** 48),
    extra=st.lists(st.tuples(_NAMES, _SCALARS), max_size=3).map(tuple),
)

_DYNAMIC_SPECS = _SPECS.map(
    lambda spec: ScenarioSpec(
        name=spec.name,
        family=spec.family,
        size=spec.size,
        seed=spec.seed,
        radius=spec.radius,
        dimension=spec.dimension,
        namespace_size=spec.namespace_size,
        extra=(("mutation", "relabel"), ("snapshots", 3), ("switch_every", 5)),
    )
)

_PAIRS = st.none() | st.lists(
    st.tuples(st.integers(0, 1000), st.integers(0, 1000)), min_size=1, max_size=8
).map(tuple)


def _roundtrip(obj):
    text = to_json(obj)
    decoded = from_json(text)
    assert decoded == obj
    # Canonical form: re-serializing the decoded object is bit-for-bit stable.
    assert to_json(decoded) == text


@settings(max_examples=40)
@given(
    spec=_SPECS,
    source=st.integers(0, 1000),
    target=st.integers(0, 1000),
    size_bound=st.none() | st.integers(1, 10_000),
    start_port=st.integers(0, 2),
)
def test_route_request_roundtrip(spec, source, target, size_bound, start_port):
    _roundtrip(
        RouteRequest(
            scenario=spec,
            source=source,
            target=target,
            size_bound=size_bound,
            start_port=start_port,
        )
    )


@settings(max_examples=40)
@given(
    spec=_SPECS,
    pairs=_PAIRS,
    num_pairs=st.integers(1, 50),
    pair_seed=st.integers(0, 2 ** 32),
    size_bound=st.none() | st.integers(1, 10_000),
)
def test_route_batch_request_roundtrip(spec, pairs, num_pairs, pair_seed, size_bound):
    _roundtrip(
        RouteBatchRequest(
            scenario=spec,
            pairs=pairs,
            num_pairs=num_pairs,
            pair_seed=pair_seed,
            size_bound=size_bound,
        )
    )


@settings(max_examples=40)
@given(
    spec=_DYNAMIC_SPECS,
    pairs=_PAIRS,
    num_pairs=st.integers(1, 50),
    pair_seed=st.integers(0, 2 ** 32),
)
def test_schedule_route_request_roundtrip(spec, pairs, num_pairs, pair_seed):
    _roundtrip(
        ScheduleRouteRequest(
            scenario=spec, pairs=pairs, num_pairs=num_pairs, pair_seed=pair_seed
        )
    )


@settings(max_examples=40)
@given(spec=_SPECS, source=st.integers(0, 1000))
def test_broadcast_and_count_request_roundtrip(spec, source):
    _roundtrip(BroadcastRequest(scenario=spec, source=source))
    _roundtrip(CountRequest(scenario=spec, source=source))


@settings(max_examples=40)
@given(spec=_SPECS, source=st.integers(0, 1000), target=st.integers(0, 1000))
def test_connectivity_request_roundtrip(spec, source, target):
    _roundtrip(ConnectivityRequest(scenario=spec, source=source, target=target))


@settings(max_examples=40)
@given(spec=_SPECS, num_pairs=st.integers(1, 50), pair_seed=st.integers(0, 2 ** 32))
def test_compare_request_roundtrip(spec, num_pairs, pair_seed):
    _roundtrip(CompareRequest(scenario=spec, num_pairs=num_pairs, pair_seed=pair_seed))


@settings(max_examples=40)
@given(
    scenarios=st.lists(_SPECS, min_size=1, max_size=4).map(tuple),
    routers=st.lists(_NAMES, min_size=1, max_size=3).map(tuple),
    pairs=st.integers(1, 50),
    master_seed=st.integers(0, 2 ** 32),
    workers=st.integers(1, 16),
    out_path=st.none() | _NAMES,
)
def test_sweep_request_roundtrip(scenarios, routers, pairs, master_seed, workers, out_path):
    _roundtrip(
        SweepRequest(
            scenarios=scenarios,
            routers=routers,
            pairs=pairs,
            master_seed=master_seed,
            workers=workers,
            out_path=out_path,
            resume=out_path is not None,
        )
    )


@settings(max_examples=40)
@given(
    scenarios=st.none() | st.lists(_SPECS, min_size=1, max_size=4).map(tuple),
    pairs_per_scenario=st.integers(1, 20),
    seed=st.integers(0, 2 ** 32),
    workers=st.integers(1, 16),
)
def test_conformance_request_roundtrip(scenarios, pairs_per_scenario, seed, workers):
    _roundtrip(
        ConformanceRequest(
            scenarios=scenarios,
            pairs_per_scenario=pairs_per_scenario,
            seed=seed,
            workers=workers,
        )
    )


@settings(max_examples=40)
@given(
    spec=_SPECS,
    source=st.integers(0, 1000),
    value=_NAMES,
    byzantine=st.lists(
        st.tuples(st.integers(0, 1000), st.sampled_from(BYZANTINE_BEHAVIORS)),
        max_size=4,
    ).map(tuple),
    num_byzantine=st.integers(0, 10),
    behaviors=st.lists(
        st.sampled_from(BYZANTINE_BEHAVIORS), min_size=1, max_size=4
    ).map(tuple),
    fault_seed=st.integers(0, 2 ** 32),
    crashes=st.lists(st.integers(0, 1000), max_size=4).map(tuple),
    delay=st.integers(0, 50),
)
def test_broadcast_reliable_request_roundtrip(
    spec, source, value, byzantine, num_byzantine, behaviors, fault_seed, crashes, delay
):
    _roundtrip(
        BroadcastReliableRequest(
            scenario=spec,
            source=source,
            value=value,
            byzantine=byzantine,
            num_byzantine=num_byzantine,
            behaviors=behaviors,
            fault_seed=fault_seed,
            crashes=crashes,
            delay=delay,
        )
    )


def test_broadcast_reliable_request_rejects_bad_fields():
    spec = golden_samples()["RouteRequest"].scenario
    with pytest.raises(TaskError):
        BroadcastReliableRequest(scenario=spec, source=0, value="")
    with pytest.raises(TaskError):
        BroadcastReliableRequest(scenario=spec, source=0, num_byzantine=-1)
    with pytest.raises(TaskError):
        BroadcastReliableRequest(scenario=spec, source=0, delay=-1)
    with pytest.raises(TaskError):
        BroadcastReliableRequest(scenario=spec, source=0, behaviors=("gossip",))
    with pytest.raises(TaskError):
        BroadcastReliableRequest(scenario=spec, source=0, byzantine=((1, "gossip"),))
    with pytest.raises(TaskError):
        BroadcastReliableRequest(
            scenario=spec, source=0, num_byzantine=2, behaviors=()
        )


_PAYLOAD_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(2 ** 31), 2 ** 31), _NAMES),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_NAMES, children, max_size=3),
    max_leaves=8,
)


@settings(max_examples=40)
@given(
    task=_NAMES,
    status=_NAMES,
    backend=_NAMES,
    payload=st.dictionaries(_NAMES, _PAYLOAD_VALUES, max_size=4),
    physical=st.none() | st.integers(0, 10 ** 9),
    virtual=st.none() | st.integers(0, 10 ** 9),
    seed=st.none() | st.integers(0, 2 ** 32),
    elapsed=st.floats(0, 1e6, allow_nan=False),
)
def test_task_result_roundtrip(task, status, backend, payload, physical, virtual, seed, elapsed):
    _roundtrip(
        TaskResult(
            task=task,
            status=status,
            backend=backend,
            payload=payload,
            physical_steps=physical,
            virtual_steps=virtual,
            seed=seed,
            elapsed_seconds=elapsed,
        )
    )


# --------------------------------------------------------------------------- #
# Golden wire-format fixture
# --------------------------------------------------------------------------- #


def golden_samples():
    """One representative instance per wire kind (shared with the generator)."""
    spec = ScenarioSpec(
        name="golden-grid",
        family="grid",
        size=16,
        seed=7,
        radius=None,
        dimension=2,
        namespace_size=2 ** 16,
        extra=(),
    )
    dyn = ScenarioSpec(
        name="golden-dyn",
        family="ring",
        size=8,
        seed=3,
        extra=(("mutation", "relabel"), ("snapshots", 3), ("switch_every", 5)),
    )
    udg = ScenarioSpec(
        name="golden-udg", family="unit-disk", size=20, seed=1, radius=0.35
    )
    return {
        "RouteRequest": RouteRequest(scenario=spec, source=0, target=15, size_bound=None),
        "RouteBatchRequest": RouteBatchRequest(
            scenario=spec, pairs=((0, 15), (3, 9)), num_pairs=2, pair_seed=4
        ),
        "ScheduleRouteRequest": ScheduleRouteRequest(
            scenario=dyn, pairs=None, num_pairs=6, pair_seed=2
        ),
        "BroadcastRequest": BroadcastRequest(scenario=spec, source=5),
        "BroadcastReliableRequest": BroadcastReliableRequest(
            scenario=spec,
            source=0,
            value="m",
            num_byzantine=2,
            behaviors=("equivocate", "forge"),
            fault_seed=3,
            crashes=(15,),
            delay=4,
        ),
        "CountRequest": CountRequest(scenario=spec, source=5),
        "ConnectivityRequest": ConnectivityRequest(scenario=spec, source=0, target=12),
        "CompareRequest": CompareRequest(scenario=udg, num_pairs=5, pair_seed=9),
        "SweepRequest": SweepRequest(
            scenarios=(spec, udg),
            routers=("ues-engine", "flooding"),
            pairs=4,
            master_seed=11,
            workers=2,
            out_path="sweep.jsonl",
            resume=True,
            experiment="golden-sweep",
        ),
        "ConformanceRequest": ConformanceRequest(
            scenarios=(spec,), pairs_per_scenario=3, seed=6, workers=2
        ),
        "TaskResult": TaskResult(
            task="route",
            status="success",
            backend="inline",
            payload={"outcome": "success", "physical_hops": 12, "delivered": True},
            physical_steps=12,
            virtual_steps=40,
            seed=7,
            elapsed_seconds=0.125,
            provenance={
                "address": "ad" * 32,
                "schema_version": 1,
                "code_version": "1.0.0",
                "kernel_store": "0123456789abcdef",
                "parent": None,
            },
        ),
    }


def test_golden_fixture_covers_every_wire_kind():
    samples = golden_samples()
    assert set(samples) == set(WIRE_KINDS)


def test_wire_format_matches_golden_fixture():
    fixture = json.loads(_GOLDEN.read_text(encoding="utf-8"))
    samples = golden_samples()
    assert set(fixture) == set(samples), "fixture is missing (or has extra) kinds"
    for kind, sample in samples.items():
        assert to_wire(sample) == fixture[kind], (
            f"wire format of {kind} drifted from tests/data/api_envelopes.json; "
            "if the change is intentional, regenerate the fixture"
        )
        assert from_wire(fixture[kind]) == sample


def test_every_request_type_has_a_wire_kind():
    registered = {entry[0] for entry in WIRE_KINDS.values()}
    for request_type in REQUEST_TYPES:
        assert request_type in registered


def test_from_json_rejects_garbage():
    with pytest.raises(TaskError):
        from_json("not json at all {")
    with pytest.raises(TaskError):
        from_json(json.dumps({"kind": "NoSuchKind", "fields": {}}))
    with pytest.raises(TaskError):
        from_json(json.dumps(["no", "kind", "tag"]))


def test_to_json_rejects_non_json_payload():
    result = TaskResult(
        task="t", status="ok", backend="inline", payload={"bad": object()}
    )
    with pytest.raises(TaskError):
        to_json(result)


def test_typed_from_json_rejects_other_kinds():
    text = to_json(golden_samples()["RouteRequest"])
    with pytest.raises(TaskError):
        BroadcastRequest.from_json(text)


@pytest.mark.parametrize("bad", [True, False, 1.0, 2.5, "3", None])
def test_integer_fields_reject_booleans_and_non_integers(bad):
    # A JSON ``true`` used to decode to 1 (and 2.5 to 2), so the decoded
    # request re-encoded to different bytes than were sent.
    fields = to_wire(RouteRequest(scenario=ScenarioSpec(name="g", family="grid", size=9),
                                  source=0, target=1))["fields"]
    for path in (("source",), ("target",), ("start_port",), ("scenario", "size")):
        hostile = json.loads(json.dumps(fields))
        holder = hostile
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = bad
        with pytest.raises(TaskError, match="must be an integer"):
            from_wire({"kind": "RouteRequest", "fields": hostile})
    pairs = {"scenario": fields["scenario"], "pairs": [[0, bad]]}
    with pytest.raises(TaskError, match="must be an integer"):
        from_wire({"kind": "RouteBatchRequest", "fields": pairs})
