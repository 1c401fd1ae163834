"""Tests for the zig-zag / derandomization substrate."""

from __future__ import annotations

import pytest

from repro.core.universal import CertifiedSequenceProvider, certify_covers, exhaustive_cubic_graphs
from repro.errors import GraphStructureError
from repro.expander.base import (
    certified_random_expander,
    complete_with_self_loops,
    margulis_expander,
)
from repro.expander.reingold import ExpanderSequenceProvider, main_transformation
from repro.expander.rotation_ops import add_self_loops, graph_power, graph_square, zigzag_product
from repro.expander.spectral import certify_expander, spectral_report
from repro.graphs import generators
from repro.graphs.connectivity import is_connected
from repro.graphs.properties import HAVE_NUMPY, second_eigenvalue

#: The zig-zag substrate is validated spectrally throughout; without NumPy
#: the eigenvalue machinery cannot run, so the no-NumPy CI job skips this
#: module (the routing layers it feeds are covered NumPy-free elsewhere).
pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="NumPy unavailable: spectral certification cannot run"
)


# --------------------------------------------------------------------------- #
# Rotation-map operations
# --------------------------------------------------------------------------- #


def test_add_self_loops_pads_to_target_degree():
    graph = generators.cycle_graph(5)
    padded = add_self_loops(graph, 6)
    assert padded.is_regular(6)
    assert padded.num_vertices == 5
    assert is_connected(padded)
    with pytest.raises(GraphStructureError):
        add_self_loops(generators.star_graph(5), 3)


def test_graph_square_of_cycle_reaches_distance_two():
    cycle = generators.cycle_graph(8)
    squared = graph_square(cycle)
    assert squared.is_regular(4)
    assert squared.num_vertices == 8
    assert squared.has_edge(0, 2)
    assert squared.has_edge(0, 6)


def test_graph_power_rotation_is_involution():
    graph = generators.prism_graph(4)
    powered = graph_power(graph, 3)
    assert powered.is_regular(27)
    for v in list(powered.vertices)[:4]:
        for port in range(0, powered.degree(v), 5):
            w, j = powered.rotation(v, port)
            assert powered.rotation(w, j) == (v, port)


def test_graph_power_validation():
    with pytest.raises(GraphStructureError):
        graph_power(generators.cycle_graph(4), 0)
    with pytest.raises(Exception):
        graph_power(generators.star_graph(3), 2)  # not regular


def test_graph_power_one_is_identity_copy():
    graph = generators.cycle_graph(6)
    assert graph_power(graph, 1) == graph


def test_zigzag_product_size_and_degree():
    # Big graph: the 3-regular prism (non-bipartite); small graph: the
    # triangle (2-regular, non-bipartite, 3 = deg(big) vertices).  Both being
    # connected and non-bipartite keeps the product connected.
    big = generators.prism_graph(3)
    small = generators.complete_graph(3)
    product = zigzag_product(big, small)
    assert product.num_vertices == 6 * 3
    assert product.is_regular(2 * 2)
    assert is_connected(product)


def test_zigzag_product_rotation_is_involution():
    big = add_self_loops(generators.cycle_graph(5), 4)
    small = generators.cycle_graph(4)
    product = zigzag_product(big, small)
    for v in product.vertices:
        for port in range(product.degree(v)):
            w, j = product.rotation(v, port)
            assert product.rotation(w, j) == (v, port)


def test_zigzag_product_requires_matching_sizes():
    big = generators.prism_graph(4)      # 3-regular
    small = generators.cycle_graph(5)    # 5 vertices != 3
    with pytest.raises(GraphStructureError):
        zigzag_product(big, small)


def test_zigzag_preserves_component_count():
    big = generators.disjoint_union([generators.prism_graph(3), generators.prism_graph(3)])
    small = generators.complete_graph(3)
    product = zigzag_product(big, small)
    from repro.graphs.connectivity import connected_component

    components = {frozenset(connected_component(product, v)) for v in product.vertices}
    assert len(components) == 2


# --------------------------------------------------------------------------- #
# Base expanders and spectral certification
# --------------------------------------------------------------------------- #


def test_complete_with_self_loops_is_perfect_expander():
    graph = complete_with_self_loops(8)
    assert graph.is_regular(8)
    assert second_eigenvalue(graph) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(GraphStructureError):
        complete_with_self_loops(1)


def test_margulis_expander_structure_and_gap():
    graph = margulis_expander(5)
    assert graph.num_vertices == 25
    assert graph.is_regular(8)
    assert is_connected(graph)
    assert second_eigenvalue(graph) < 0.95
    with pytest.raises(GraphStructureError):
        margulis_expander(1)


def test_margulis_expander_gap_does_not_collapse_with_size():
    small = second_eigenvalue(margulis_expander(4))
    large = second_eigenvalue(margulis_expander(8))
    assert large < 0.95  # constant-gap family, unlike cycles
    assert abs(large - small) < 0.35


def test_certified_random_expander_meets_bound():
    graph = certified_random_expander(24, 4, lambda_bound=0.9, seed=1)
    assert graph.is_regular(4)
    assert second_eigenvalue(graph) <= 0.9
    with pytest.raises(GraphStructureError):
        certified_random_expander(24, 4, lambda_bound=0.01, max_attempts=2)
    with pytest.raises(GraphStructureError):
        certified_random_expander(9, 3)


def test_certify_expander_and_report():
    cert = certify_expander(generators.petersen_graph(), lambda_bound=0.7)
    assert cert.satisfied
    assert cert.gap == pytest.approx(1 - cert.second_eigenvalue)
    report = spectral_report([generators.cycle_graph(6), generators.complete_graph(5)])
    assert len(report) == 2
    assert report[0].second_eigenvalue > report[1].second_eigenvalue


# --------------------------------------------------------------------------- #
# Main transformation and the derandomized sequence provider
# --------------------------------------------------------------------------- #


def test_main_transformation_structure():
    graph = generators.cycle_graph(8)
    result = main_transformation(graph, rounds=1, powering_exponent=1)
    assert len(result.rounds) == 2
    base_size = result.base_expander.num_vertices
    assert result.rounds[1].num_vertices == 8 * base_size
    assert result.rounds[1].require_regular() == base_size
    assert is_connected(result.rounds[1])
    assert len(result.gap_history) == 2


def test_main_transformation_with_explicit_base():
    # Base: the triangle with one self-loop per vertex — 3-regular on 3
    # vertices, so d^(2k) = 3^2 = 9... does not type-check; instead use the
    # complete-with-loops graph on 9 vertices? Its degree is 9, also wrong.
    # The simplest explicit type-correct base for k=1 is the 4-regular
    # circulant on 16 vertices, the library default; here we pass the
    # Margulis expander on 64 vertices (8-regular, 8^2 = 64) to check that a
    # caller-supplied base is honoured.
    base = margulis_expander(8)
    graph = generators.complete_graph(4)
    result = main_transformation(graph, base_expander=base, rounds=1, powering_exponent=1)
    assert result.base_expander is base
    assert result.final_graph.require_regular() == 64
    assert result.final_graph.num_vertices == 4 * 64


def test_main_transformation_validation():
    with pytest.raises(GraphStructureError):
        main_transformation(generators.cycle_graph(4), rounds=0)
    with pytest.raises(GraphStructureError):
        main_transformation(generators.cycle_graph(4), powering_exponent=0)
    with pytest.raises(GraphStructureError):
        main_transformation(
            generators.cycle_graph(4),
            base_expander=generators.cycle_graph(5),
            powering_exponent=2,
        )


def test_expander_sequence_provider_is_deterministic_and_ternary():
    a = ExpanderSequenceProvider().sequence_for(6)
    b = ExpanderSequenceProvider().sequence_for(6)
    assert a.offsets() == b.offsets()
    assert set(a.offsets()) <= {0, 1, 2}
    assert len(a) > 0


def test_expander_sequence_provider_with_multiplier():
    provider = ExpanderSequenceProvider()
    assert len(provider.with_multiplier(3).sequence_for(5)) == 3 * len(provider.sequence_for(5))


def test_expander_sequences_cover_small_cubic_graphs():
    provider = ExpanderSequenceProvider()
    sequence = provider.sequence_for(8)
    graphs = exhaustive_cubic_graphs(3)
    assert certify_covers(sequence, graphs, all_ports=True).passed


def test_certified_provider_accepts_expander_provider_as_base():
    certified = CertifiedSequenceProvider(base=ExpanderSequenceProvider(), exhaustive_up_to=2)
    sequence = certified.sequence_for(6)
    assert certified.certification_report(6).passed
    assert len(sequence) > 0


def test_routing_works_with_derandomized_provider(grid_4x4):
    from repro.core.routing import RouteOutcome, route

    provider = ExpanderSequenceProvider()
    result = route(grid_4x4, 0, 15, provider=provider)
    assert result.outcome is RouteOutcome.SUCCESS
