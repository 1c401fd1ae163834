"""Byzantine-tolerant reliable broadcast: properties, regressions, golden traces.

Four layers of coverage for :mod:`repro.core.reliable_broadcast` and
:mod:`repro.network.byzantine`:

* **Deterministic unit tests** — quorum math, honest runs, every scripted
  behaviour below the ``f < N/3`` threshold, transport pricing, evidence
  attribution, input validation.
* **Hypothesis property suite** — for random connected graphs, random
  ``f < N/3`` Byzantine subsets and random seeded behaviours, the Bracha
  guarantees (``rb-agreement``, ``rb-totality``, ``rb-no-false-delivery``)
  hold, and *all honest nodes deliver the same value iff the sender behaves
  honestly or some honest node delivers*.
* **Pinned adversary-reality regression** — a concrete ``f >= N/3``
  equivocation attack that demonstrably breaks agreement, so the suite cannot
  pass with a toothless adversary.
* **Golden message-schedule traces** — three seeds times two behaviours,
  plus one case per further branch of the protocol loop, of the full
  wire-event schedule are serialized into
  ``tests/data/golden_broadcast_traces.json`` and replayed bit for bit,
  mirroring the walk-trace pattern of ``tests/test_golden_traces.py``.

Regenerate the golden file (after an *intentional* semantic change) with::

    PYTHONPATH=src REGEN_GOLDEN_BROADCAST=1 python -m pytest tests/test_byzantine.py
"""

from __future__ import annotations

import json
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import prepare
from repro.core.reliable_broadcast import (
    QuorumThresholds,
    UESTransport,
    broadcast_reliably,
    equivocation_variants,
)
from repro.core.universal import RandomSequenceProvider
from repro.errors import RoutingError, SimulationError, SimulationLimitExceeded
from repro.graphs import generators
from repro.graphs.labeled_graph import LabeledGraph
from repro.network.byzantine import BYZANTINE_BEHAVIORS, ByzantinePlan, FaultModel
from repro.network.failures import FailurePlan

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDEN_PATH = os.path.join(DATA_DIR, "golden_broadcast_traces.json")

#: Dedicated provider seed for the golden traces (see test_golden_traces.py).
GOLDEN_PROVIDER_SEED = 80808


# --------------------------------------------------------------------------- #
# Quorum math
# --------------------------------------------------------------------------- #


def test_quorum_thresholds_follow_brachas_formulas():
    for n in range(1, 41):
        thresholds = QuorumThresholds.for_size(n)
        f = thresholds.f_tolerated
        assert n > 3 * f, "tolerated f must satisfy n > 3f"
        assert (n - 1) // 3 == f, "f is the largest count with n > 3f"
        assert thresholds.echo_quorum == -(-(n + f + 1) // 2)
        assert thresholds.ready_support == f + 1
        assert thresholds.delivery_quorum == 2 * f + 1
        # The quorums must be reachable by the honest majority alone.
        assert n - f >= thresholds.echo_quorum
        assert n - f >= thresholds.delivery_quorum


def test_quorum_thresholds_reject_empty_networks():
    with pytest.raises(SimulationError):
        QuorumThresholds.for_size(0)


def test_equivocation_variants_are_idempotent():
    base, alt = equivocation_variants("m")
    assert base == "m" and alt == "m~alt"
    assert equivocation_variants(alt) == (base, alt)


# --------------------------------------------------------------------------- #
# Honest and below-threshold deterministic runs
# --------------------------------------------------------------------------- #


def test_honest_broadcast_reaches_every_node(grid_4x4, provider):
    result = broadcast_reliably(grid_4x4, 0, value="hello", provider=provider)
    assert result.agreement and result.totality and result.no_false_delivery
    assert result.all_honest_delivered
    assert dict(result.delivered) == {v: "hello" for v in grid_4x4.vertices}
    assert result.origin_sent_values == ("hello",)
    assert result.messages_sent > 0 and result.final_time > 0
    assert result.evidence == ()
    assert result.header_bits > 0
    # Delivery times are recorded for every delivering node.
    assert {n for n, _t in result.delivery_times} == set(grid_4x4.vertices)


@pytest.mark.parametrize("behavior", BYZANTINE_BEHAVIORS)
@pytest.mark.parametrize("corrupt_source", [False, True])
def test_below_threshold_behaviors_keep_the_guarantees(
    grid_4x4, provider, behavior, corrupt_source
):
    # 16 nodes tolerate f = 5; corrupt 3 (optionally including the source).
    plan = ByzantinePlan.random_plan(
        grid_4x4, 3, seed=11, behaviors=(behavior,)
    )
    source = plan.nodes()[0] if corrupt_source else next(
        v for v in sorted(grid_4x4.vertices) if plan.behavior_of(v) is None
    )
    result = broadcast_reliably(grid_4x4, source, value="m", plan=plan, provider=provider)
    assert result.agreement, result.honest_delivered
    assert result.totality, result.honest_delivered
    assert result.no_false_delivery, result.origin_sent_values
    source_behaves_honestly = behavior == "delay" or not corrupt_source
    if source_behaves_honestly:
        assert result.all_honest_delivered
        assert all(v == "m" for _n, v in result.honest_delivered)


def test_drop_source_broadcast_delivers_nothing(grid_4x4, provider):
    plan = ByzantinePlan().corrupt(0, "drop")
    result = broadcast_reliably(grid_4x4, 0, plan=plan, provider=provider)
    assert result.delivered == ()
    assert result.messages_sent == 0
    assert result.agreement and result.totality and result.no_false_delivery


def test_crashed_source_broadcast_delivers_nothing(grid_4x4, provider):
    failures = FailurePlan(failed_nodes={0})
    result = broadcast_reliably(grid_4x4, 0, failures=failures, provider=provider)
    assert result.delivered == ()
    assert result.crashed == (0,)
    assert 0 not in result.honest


def test_forged_support_never_becomes_a_delivery(grid_4x4, provider):
    plan = ByzantinePlan.random_plan(grid_4x4, 4, seed=5, behaviors=("forge",))
    source = next(v for v in sorted(grid_4x4.vertices) if plan.behavior_of(v) is None)
    result = broadcast_reliably(grid_4x4, source, value="m", plan=plan, provider=provider)
    assert result.no_false_delivery
    assert all(v == "m" for _n, v in result.honest_delivered)
    assert result.all_honest_delivered


def test_delay_adversary_slows_but_does_not_stop_delivery(grid_4x4, provider):
    honest = broadcast_reliably(grid_4x4, 0, provider=provider)
    plan = ByzantinePlan.random_plan(grid_4x4, 5, seed=2, behaviors=("delay",), delay=40)
    delayed = broadcast_reliably(grid_4x4, 0, plan=plan, provider=provider)
    assert delayed.all_honest_delivered
    assert delayed.final_time > honest.final_time


# --------------------------------------------------------------------------- #
# The pinned f >= N/3 regression: the adversary is real
# --------------------------------------------------------------------------- #


def test_above_threshold_equivocation_breaks_agreement(provider):
    """Sanity that the adversary has teeth: on K7 with 3 equivocators
    (f = 3 >= 7/3) the rank-parity split drives the two honest halves to
    deliver *different* values — exactly the attack Bracha's f < N/3 bound
    excludes."""
    graph = generators.complete_graph(7)
    plan = (
        ByzantinePlan()
        .corrupt(0, "equivocate")
        .corrupt(1, "equivocate")
        .corrupt(2, "equivocate")
    )
    result = broadcast_reliably(graph, 0, value="v", plan=plan, provider=provider)
    assert not result.agreement, "the above-threshold attack must break agreement"
    delivered_values = {v for _n, v in result.honest_delivered}
    assert delivered_values == {"v", "v~alt"}
    # Accountability: the wire logs still name the equivocators.
    assert result.evidence
    assert {item.accused for item in result.evidence} <= {0, 1, 2}


def test_below_threshold_equivocation_on_the_same_graph_holds(provider):
    """The same attack with f = 2 <= f_tolerated is harmless — the pinned
    pair demonstrates the N/3 boundary, not merely a strong adversary."""
    graph = generators.complete_graph(7)
    plan = ByzantinePlan().corrupt(0, "equivocate").corrupt(1, "equivocate")
    result = broadcast_reliably(graph, 0, value="v", plan=plan, provider=provider)
    assert result.agreement and result.totality and result.no_false_delivery


# --------------------------------------------------------------------------- #
# FailurePlan / ByzantinePlan composition: order independence
# --------------------------------------------------------------------------- #


def _sample_plans():
    byzantine = (
        ByzantinePlan()
        .corrupt(1, "equivocate")
        .corrupt(4, "forge")
        .corrupt(7, "delay")
    )
    failures = FailurePlan(failed_nodes={4, 8}, failed_links={frozenset((2, 3))})
    return byzantine, failures


def test_fault_model_composition_is_order_independent():
    byzantine, failures = _sample_plans()
    first = FaultModel().with_byzantine(byzantine).with_crashes(failures)
    second = FaultModel().with_crashes(failures).with_byzantine(byzantine)
    assert first == second
    assert first == FaultModel.resolve(byzantine=byzantine, failures=failures)


def test_crashed_nodes_take_precedence_over_byzantine_assignments():
    byzantine, failures = _sample_plans()
    model = FaultModel.resolve(byzantine=byzantine, failures=failures)
    # Node 4 is both forged and crashed: crashed wins, it cannot misbehave.
    assert model.is_crashed(4)
    assert model.behavior_of(4) is None
    assert model.byzantine == ((1, "equivocate"), (7, "delay"))
    assert model.crashed == (4, 8)
    assert model.link_broken(2, 3) and model.link_broken(3, 2)
    assert not model.link_broken(0, 1)
    # The constructor itself normalises, not only the with_* helpers.
    direct = FaultModel(byzantine=((4, "forge"), (1, "equivocate"), (7, "delay")),
                        crashed=(8, 4), broken_links=((3, 2),), delay=3)
    assert direct == model


def test_broadcast_runs_identically_for_either_composition_order(grid_4x4, provider):
    """Satellite contract: a crash plan and a Byzantine plan applied to the
    same scenario are order-independent, down to the full event schedule."""
    byzantine, failures = _sample_plans()
    transport = UESTransport(grid_4x4, provider=provider)
    byz_then_crash = broadcast_reliably(
        grid_4x4, 0,
        faults=FaultModel().with_byzantine(byzantine).with_crashes(failures),
        transport=transport,
    )
    crash_then_byz = broadcast_reliably(
        grid_4x4, 0,
        faults=FaultModel().with_crashes(failures).with_byzantine(byzantine),
        transport=transport,
    )
    via_kwargs = broadcast_reliably(
        grid_4x4, 0, plan=byzantine, failures=failures, transport=transport
    )
    assert byz_then_crash == crash_then_byz == via_kwargs
    assert byz_then_crash.events == crash_then_byz.events


def test_random_plan_is_deterministic_and_validated(grid_4x4):
    one = ByzantinePlan.random_plan(grid_4x4, 4, seed=9)
    two = ByzantinePlan.random_plan(grid_4x4, 4, seed=9)
    assert one.behaviors == two.behaviors
    assert one.nodes() == tuple(sorted(one.behaviors))
    assert one.items() == tuple(sorted(one.behaviors.items()))
    assert ByzantinePlan.random_plan(grid_4x4, 0, seed=9).is_empty()
    with pytest.raises(SimulationError):
        ByzantinePlan.random_plan(grid_4x4, 17, seed=0)
    with pytest.raises(SimulationError):
        ByzantinePlan.random_plan(grid_4x4, 1, seed=0, behaviors=())
    with pytest.raises(SimulationError):
        ByzantinePlan().corrupt(0, "gossip")
    with pytest.raises(SimulationError):
        ByzantinePlan(delay=-1)


# --------------------------------------------------------------------------- #
# Transport pricing and input validation
# --------------------------------------------------------------------------- #


def test_transport_prices_channels_by_the_walk(grid_4x4, provider):
    transport = UESTransport(grid_4x4, provider=provider)
    assert transport.latency(0, 0) == 0
    latency = transport.latency(0, 15)
    assert latency is not None and latency >= 1
    # Cached: a second query returns the identical value.
    assert transport.latency(0, 15) == latency


def test_transport_reports_disconnected_pairs(two_components, provider):
    transport = UESTransport(two_components, provider=provider)
    assert transport.latency(0, 7) is None
    assert transport.latency(0, 2) is not None


_TRANSPORT_PROVIDER = RandomSequenceProvider(seed=31337)


@st.composite
def _transport_cases(draw):
    """A graph (often disconnected), a query order and an optional provider."""
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    shuffle = random.Random(draw(st.integers(min_value=0, max_value=1_000)))
    graph = LabeledGraph.from_edges(edges, vertices=range(n), shuffle_ports=shuffle)
    # Targets that are no vertex sit on both sides of the vertex range.
    queries = [(u, v) for u in range(n) for v in [-1, *range(n), n + 3]]
    queries = draw(st.permutations(queries))
    provider = draw(st.sampled_from([None, _TRANSPORT_PROVIDER]))
    return graph, queries, provider


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_transport_cases())
def test_transport_latency_is_the_route_hop_count(case):
    graph, queries, provider = case
    engine = prepare(graph)
    transport = UESTransport(graph, provider=provider)
    for u, v in queries:
        if u == v:
            expected = 0
        else:
            route = engine.route(u, v, provider=provider)
            expected = max(1, route.physical_hops) if route.delivered else None
        assert transport.latency(u, v) == expected, (u, v)
    with pytest.raises(RoutingError):
        transport.latency(graph.num_vertices + 7, 0)


def test_broadcast_rejects_bad_inputs(grid_4x4):
    with pytest.raises(SimulationError):
        broadcast_reliably(grid_4x4, 99)
    with pytest.raises(SimulationError):
        broadcast_reliably(grid_4x4, 0, value="")
    with pytest.raises(SimulationLimitExceeded):
        broadcast_reliably(grid_4x4, 0, max_events=3)


def test_equivocation_evidence_names_the_culprit(grid_4x4, provider):
    plan = ByzantinePlan().corrupt(0, "equivocate")
    result = broadcast_reliably(grid_4x4, 0, value="m", plan=plan, provider=provider)
    assert result.evidence, "an equivocating source must be caught by the logs"
    assert all(item.accused == 0 for item in result.evidence)
    assert all(item.kind == "equivocation" for item in result.evidence)
    # Honest nodes are never accused on any run of this suite.
    honest = set(result.honest)
    assert not any(item.accused in honest for item in result.evidence)


# --------------------------------------------------------------------------- #
# Hypothesis: random graphs, random f < N/3 subsets, random behaviours
# --------------------------------------------------------------------------- #


def _connected_graph(n: int, extra_edges: int, seed: int) -> LabeledGraph:
    rng = random.Random(seed)
    tree = generators.random_tree(n, seed=seed)
    edges = [(edge.u, edge.v) for edge in tree.edges()]
    for _ in range(extra_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return LabeledGraph.from_edges(edges, vertices=range(n))


@st.composite
def _byzantine_cases(draw):
    n = draw(st.integers(min_value=4, max_value=12))
    extra_edges = draw(st.integers(min_value=0, max_value=3))
    graph_seed = draw(st.integers(min_value=0, max_value=10_000))
    graph = _connected_graph(n, extra_edges, graph_seed)
    f_tolerated = (n - 1) // 3
    f = draw(st.integers(min_value=0, max_value=f_tolerated))
    corrupted = sorted(draw(
        st.sets(st.integers(0, n - 1), min_size=f, max_size=f)
    ))
    behaviors = {
        node: draw(st.sampled_from(BYZANTINE_BEHAVIORS)) for node in corrupted
    }
    source = draw(st.integers(min_value=0, max_value=n - 1))
    return graph, source, behaviors


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=_byzantine_cases())
def test_bracha_guarantees_hold_below_the_threshold(provider, case):
    """For every random connected graph, random f < N/3 Byzantine subset and
    random seeded behaviours: agreement, totality and no-false-delivery hold,
    and all honest nodes deliver the same value iff the sender behaves
    honestly or some honest node delivers."""
    graph, source, behaviors = case
    plan = ByzantinePlan(behaviors=dict(behaviors)) if behaviors else None
    result = broadcast_reliably(graph, source, value="m", plan=plan, provider=provider)

    assert result.agreement, f"rb-agreement broke: {result.honest_delivered}"
    assert result.totality, f"rb-totality broke: {result.honest_delivered}"
    assert result.no_false_delivery, (
        f"rb-no-false-delivery broke: {result.honest_delivered} "
        f"vs origin {result.origin_sent_values}"
    )

    all_same = (
        result.all_honest_delivered
        and len({v for _n, v in result.honest_delivered}) == 1
    )
    sender_behaves_honestly = (
        source in result.honest or behaviors.get(source) == "delay"
    )
    some_honest_delivered = bool(result.honest_delivered)
    assert all_same == (sender_behaves_honestly or some_honest_delivered)
    # Evidence accountability is unconditional: only Byzantine nodes accused.
    corrupted = set(behaviors)
    assert all(item.accused in corrupted for item in result.evidence)


# --------------------------------------------------------------------------- #
# Golden message-schedule traces
# --------------------------------------------------------------------------- #

#: Every golden case: ``(behaviour, fault seed, options)``.  The first six are
#: the original 3 seeds x 2 behaviours with default options; the rest pin one
#: more branch of the protocol loop each (a silent adversary, a delayed one,
#: crashes plus broken links, each optimisation switched off, and a named
#: equivocating source).  Option keys are stored in the case as given.
GOLDEN_CASES = (
    *((behavior, seed, {}) for behavior in ("equivocate", "forge") for seed in (0, 1, 2)),
    ("drop", 0, {}),
    ("delay", 1, {"delay": 5}),
    ("delay", 0, {"delay": 2, "crashed": [4], "broken_links": [[0, 3], [2, 5]]}),
    ("equivocate", 0, {"echo_amplification": False}),
    ("forge", 1, {"reduced_messages": False}),
    ("equivocate", 3, {"plan": [[0, "equivocate"], [5, "equivocate"]]}),
)


def _golden_case(behavior: str, seed: int, options: dict) -> dict:
    provider = RandomSequenceProvider(seed=GOLDEN_PROVIDER_SEED)
    graph = generators.grid_graph(3, 3)
    delay = options.get("delay", 3)
    if "plan" in options:
        plan = ByzantinePlan(behaviors=dict(options["plan"]), delay=delay, seed=seed)
    else:
        plan = ByzantinePlan.random_plan(
            graph, 2, seed=seed, behaviors=(behavior,), delay=delay
        )
    failures = None
    if "crashed" in options or "broken_links" in options:
        failures = FailurePlan(
            failed_nodes=set(options.get("crashed", ())),
            failed_links={frozenset(link) for link in options.get("broken_links", ())},
        )
    result = broadcast_reliably(
        graph,
        0,
        value="m",
        plan=plan,
        failures=failures,
        provider=provider,
        echo_amplification=options.get("echo_amplification", True),
        reduced_messages=options.get("reduced_messages", True),
    )
    name = f"golden-rb-{behavior}-s{seed}" + "".join(f"-{key}" for key in options)
    case = {
        "name": name,
        "behavior": behavior,
        "fault_seed": seed,
        "byzantine": [[node, b] for node, b in result.byzantine],
        "delivered": [[node, value] for node, value in result.delivered],
        "delivery_times": [[node, time] for node, time in result.delivery_times],
        "origin_sent_values": list(result.origin_sent_values),
        "messages_sent": result.messages_sent,
        "final_time": result.final_time,
        "header_bits": result.header_bits,
        "events": [event.as_list() for event in result.events],
    }
    if options:
        case["options"] = options
        case["crashed"] = list(result.crashed)
        case["evidence"] = [[e.accused, e.witness, e.kind, e.detail] for e in result.evidence]
    return case


def _regen_requested() -> bool:
    return os.environ.get("REGEN_GOLDEN_BROADCAST", "") not in ("", "0")


def test_broadcast_reproduces_golden_message_schedules():
    computed = [_golden_case(*case) for case in GOLDEN_CASES]
    if _regen_requested():
        os.makedirs(DATA_DIR, exist_ok=True)
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(
                {"provider_seed": GOLDEN_PROVIDER_SEED, "cases": computed},
                handle,
                indent=1,
            )
            handle.write("\n")
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    assert golden["provider_seed"] == GOLDEN_PROVIDER_SEED
    assert len(golden["cases"]) == len(GOLDEN_CASES)
    for stored, fresh in zip(golden["cases"], computed):
        for key in (
            "name",
            "behavior",
            "fault_seed",
            "byzantine",
            "delivered",
            "delivery_times",
            "origin_sent_values",
            "messages_sent",
            "final_time",
            "header_bits",
        ):
            assert stored[key] == fresh[key], f"{stored['name']}: {key} diverged"
        assert stored["events"] == fresh["events"], (
            f"{stored['name']}: wire-event schedule diverged"
        )
        assert stored == fresh, f"{stored['name']}: options, crashes or evidence diverged"


def test_golden_broadcasts_exercise_real_adversaries():
    """Guard the fixture quality: every golden case has two Byzantine nodes,
    a non-trivial schedule, and still satisfies the f < N/3 guarantees."""
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    for case in golden["cases"]:
        assert len(case["byzantine"]) == 2  # f = 2 <= (9 - 1) // 3
        assert case["messages_sent"] > 0
        assert len(case["events"]) > 0
        delivered = {node: value for node, value in case["delivered"]}
        honest = set(range(9)) - {node for node, _b in case["byzantine"]}
        honest_values = {delivered[n] for n in honest if n in delivered}
        assert len(honest_values) <= 1, "golden cases must satisfy agreement"
