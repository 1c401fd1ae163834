"""Tests for universal-exploration-sequence providers and certification."""

from __future__ import annotations

import pathlib
import pickle
import random
import re
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import universal
from repro.core.exploration import ExplicitSequence
from repro.core.universal import (
    CertifiedSequenceProvider,
    OffsetStream,
    RandomSequenceProvider,
    certify_covers,
    default_sequence_length,
    exhaustive_cubic_graphs,
    offset_stream,
    standard_certification_family,
)
from repro.errors import SequenceExhaustedError, UniversalityCertificationError
from repro.graphs import generators
from repro.graphs.connectivity import is_connected


def test_default_sequence_length_grows_polynomially():
    assert default_sequence_length(1) >= 32
    assert default_sequence_length(10) < default_sequence_length(20)
    assert default_sequence_length(20) <= 6 * 20 * 20 * 5
    assert default_sequence_length(64) >= 6 * 64 * 64


def test_random_provider_is_deterministic_per_seed():
    a = RandomSequenceProvider(seed=3).sequence_for(10)
    b = RandomSequenceProvider(seed=3).sequence_for(10)
    c = RandomSequenceProvider(seed=4).sequence_for(10)
    assert a.offsets() == b.offsets()
    assert a.offsets() != c.offsets()


def test_random_provider_offsets_in_range(provider):
    seq = provider.sequence_for(12)
    assert set(seq.offsets()) <= {0, 1, 2}
    assert len(seq) == default_sequence_length(12)


def test_random_provider_caches_sequences():
    p = RandomSequenceProvider(seed=5)
    assert p.sequence_for(8) is p.sequence_for(8)


def test_with_multiplier_lengthens_sequence():
    p = RandomSequenceProvider(seed=5)
    longer = p.with_multiplier(4)
    assert len(longer.sequence_for(6)) == 4 * len(p.sequence_for(6))


def test_provider_offset_and_length_helpers(provider):
    n = 9
    assert provider.length_for(n) == len(provider.sequence_for(n))
    assert provider.offset(n, 0) == provider.sequence_for(n)[0]


def test_exhaustive_cubic_graphs_small_counts():
    graphs_1 = exhaustive_cubic_graphs(1)
    assert all(g.num_vertices == 1 and g.is_regular(3) for g in graphs_1)
    graphs_2 = exhaustive_cubic_graphs(2)
    assert all(g.num_vertices == 2 and g.is_regular(3) for g in graphs_2)
    assert all(is_connected(g) for g in graphs_2)
    # Disconnected rotation maps exist on 2 vertices; the connected filter
    # must remove some of them.
    all_graphs_2 = exhaustive_cubic_graphs(2, connected_only=False)
    assert len(all_graphs_2) > len(graphs_2)


def test_certify_covers_passes_for_long_random_sequence(provider):
    graphs = [generators.complete_graph(4), generators.prism_graph(3)]
    report = certify_covers(provider.sequence_for(8), graphs, all_ports=True)
    assert report.passed
    assert report.graphs_checked == 2
    assert report.starts_checked == sum(3 * g.num_vertices for g in graphs)


def test_certify_covers_fails_for_trivial_sequence():
    graphs = [generators.prism_graph(4)]
    report = certify_covers(ExplicitSequence([0, 0]), graphs)
    assert not report.passed
    failure = report.failures[0]
    assert failure.num_vertices == 8
    assert failure.graph_index == 0


def test_standard_certification_family_members_are_cubic_and_bounded():
    family = standard_certification_family(12, seed=1)
    assert family
    for graph in family:
        assert graph.is_regular(3)
        assert graph.num_vertices <= 12
        assert is_connected(graph)


def test_standard_family_includes_relabelings():
    family = standard_certification_family(8, seed=0, labelings_per_graph=2)
    # With two labelings per structure there must be structures appearing twice
    # with identical vertex counts.
    sizes = [g.num_vertices for g in family]
    assert any(sizes.count(size) >= 2 for size in set(sizes))


def test_certified_provider_returns_certified_sequence(provider):
    certified = CertifiedSequenceProvider(base=provider, exhaustive_up_to=2)
    sequence = certified.sequence_for(6)
    report = certified.certification_report(6)
    assert report is not None and report.passed
    assert len(sequence) >= default_sequence_length(6)
    # Cached on second call.
    assert certified.sequence_for(6) is sequence


def test_certified_provider_raises_when_it_cannot_certify():
    class StubbornlyShortProvider(RandomSequenceProvider):
        def sequence_for(self, n):  # noqa: D102 - test stub
            return ExplicitSequence([0, 0, 0])

        def with_multiplier(self, multiplier):  # noqa: D102 - test stub
            return self

    certified = CertifiedSequenceProvider(
        base=StubbornlyShortProvider(), exhaustive_up_to=2, max_doublings=2
    )
    with pytest.raises(UniversalityCertificationError):
        certified.sequence_for(6)


def test_certified_sequence_is_universal_for_all_tiny_graphs(provider):
    """Exhaustive Definition 3 check: every labeled cubic graph on <= 3 vertices."""
    certified = CertifiedSequenceProvider(base=provider, exhaustive_up_to=3)
    sequence = certified.sequence_for(4)
    graphs = exhaustive_cubic_graphs(2) + exhaustive_cubic_graphs(3)
    report = certify_covers(sequence, graphs, all_starts=True, all_ports=True)
    assert report.passed


# --------------------------------------------------------------------------- #
# Exception discipline in the certification family builder
# --------------------------------------------------------------------------- #


def test_standard_family_skips_infeasible_random_regular_sizes():
    # Sizes where a connected random 3-regular graph is impossible must be
    # skipped quietly, not abort the family.
    family = standard_certification_family(6, seed=1)
    assert family  # the feasible members are all present


def test_standard_family_propagates_unexpected_generator_failures(monkeypatch):
    # The old bare `except Exception: continue` swallowed *everything*; a
    # genuine defect in the generator must surface, not shrink the family.
    def broken(size, degree, seed=0):
        raise RuntimeError("generator defect")

    monkeypatch.setattr(generators, "random_regular_graph", broken)
    with pytest.raises(RuntimeError, match="generator defect"):
        standard_certification_family(8, seed=0)


# --------------------------------------------------------------------------- #
# Lazy offset streams against the executable specification
# --------------------------------------------------------------------------- #


def _spec_offsets(seed, n, multiplier, count):
    """The executable spec of ``T_n``: one ``randrange(3)`` call per offset."""
    rng = random.Random(f"{seed}:{n}:{multiplier}")
    return bytes(rng.randrange(3) for _ in range(count))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32),
    n=st.integers(min_value=1, max_value=64),
    multiplier=st.integers(min_value=1, max_value=4),
    length=st.integers(min_value=1, max_value=4000),
    reads=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=6),
    words_per_step=st.sampled_from([1, 3, 64, 1 << 18]),
    first_extension=st.sampled_from([1, 5, 4096]),
)
def test_stream_equals_the_randrange_spec(
    seed, n, multiplier, length, reads, words_per_step, first_extension
):
    # Small generation steps and first extensions make the reads cross many
    # step and doubling boundaries; reads past the declared end are clamped.
    provider = RandomSequenceProvider(
        seed=seed, length_fn=lambda _n: length, length_multiplier=multiplier
    )
    declared = length * multiplier
    spec = _spec_offsets(seed, n, multiplier, declared)
    with mock.patch.object(universal, "_WORDS_PER_STEP", words_per_step), \
            mock.patch.object(universal, "_FIRST_EXTENSION", first_extension):
        stream = provider.sequence_for(n)
        assert len(stream) == declared
        for count in reads:
            prefix = stream.extend_to(count)
            assert len(prefix) >= min(count, declared)
            assert prefix == spec[: len(prefix)]
            index = min(count, declared) - 1
            if index >= 0:
                assert stream[index] == spec[index]
        assert stream.offsets() == spec
    with pytest.raises(SequenceExhaustedError):
        stream[declared]
    with pytest.raises(SequenceExhaustedError):
        stream[-1]


def test_length_for_and_len_materialise_nothing():
    provider = RandomSequenceProvider(seed=2008)
    assert provider.length_for(960) == 55_296_000
    assert len(provider._cache) == 0
    stream = provider.sequence_for(960)
    assert len(stream) == 55_296_000
    assert stream.prefix == b""


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_concurrent_extension_yields_the_spec_sequence(seed):
    length = 50_000
    threads = 8
    provider = RandomSequenceProvider(seed=seed, length_fn=lambda _n: length)
    stream = provider.sequence_for(5)
    start = threading.Barrier(threads)
    seen = [[] for _ in range(threads)]

    def reader(k):
        start.wait()
        for count in range(1 + 613 * k, length + 1, 4099):
            seen[k].append(stream.extend_to(count))
        seen[k].append(stream[length - 1 - k : length])

    # Tiny generation steps and a tiny thread switch interval make the
    # threads interleave inside one extension, not just between them.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(universal, "_WORDS_PER_STEP", 97):
            workers = [threading.Thread(target=reader, args=(k,)) for k in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    spec = _spec_offsets(seed, 5, 1, length)
    assert stream.offsets() == spec
    for k, prefixes in enumerate(seen):
        assert prefixes[-1] == spec[length - 1 - k :]
        for prefix in prefixes[:-1]:
            assert prefix == spec[: len(prefix)]


def test_lru_eviction_is_invisible_in_results(grid_4x4):
    from repro.core.engine import prepare

    provider = RandomSequenceProvider(seed=4)
    bounds = range(16, 16 + universal._STREAM_CACHE_LIMIT + 8)
    engine = prepare(grid_4x4)

    def routes():
        return [engine.route(0, 15, provider=provider, size_bound=b) for b in bounds]

    first = routes()
    prefixes = {b: provider.sequence_for(b)[:5000] for b in bounds}
    assert provider._cache.evictions > 0
    assert len(provider._cache) == universal._STREAM_CACHE_LIMIT
    assert routes() == first
    assert {b: provider.sequence_for(b)[:5000] for b in bounds} == prefixes


def test_streams_compare_and_hash_by_content():
    a = RandomSequenceProvider(seed=3).sequence_for(10)
    b = RandomSequenceProvider(seed=3).sequence_for(10)
    assert a == b and hash(a) == hash(b)
    assert a != RandomSequenceProvider(seed=4).sequence_for(10)
    complete = OffsetStream(a.offsets())
    assert complete == a and hash(complete) == hash(a)


def test_providers_and_streams_pickle_as_their_configuration():
    provider = RandomSequenceProvider(seed=7, length_multiplier=2)
    stream = provider.sequence_for(12)
    stream.extend_to(5000)
    clone = pickle.loads(pickle.dumps(provider))
    assert len(clone._cache) == 0  # the stream cache stays behind
    assert clone.length_for(12) == provider.length_for(12)
    assert clone.sequence_for(12).offsets() == stream.offsets()
    copied = pickle.loads(pickle.dumps(stream))
    assert len(copied.prefix) == 0 and copied == stream
    complete = offset_stream(ExplicitSequence([0, 4, 2]))
    assert pickle.loads(pickle.dumps(complete)).prefix == complete.prefix
    certified = CertifiedSequenceProvider(base=RandomSequenceProvider(seed=1))
    certified.sequence_for(4)
    assert pickle.loads(pickle.dumps(certified)).sequence_for(4) == certified.sequence_for(4)


def test_offset_stream_normalises_other_sequences_modulo_three():
    explicit = ExplicitSequence([0, 4, -1, 5, 2])
    stream = offset_stream(explicit)
    assert stream.offsets() == bytes([0, 1, 2, 2, 2])
    assert len(stream.prefix) == len(stream) == 5
    assert offset_stream(stream) is stream
    assert offset_stream(explicit).prefix is stream.prefix  # normalised once


def test_no_numpy_random_in_the_library():
    # NumPy's random module costs ~6 MB of resident memory on import; the
    # stdlib generator above is the one the library uses.
    source = pathlib.Path(universal.__file__).resolve().parents[1]
    pattern = re.compile(r"numpy\.random|np\.random|from numpy import random")
    offenders = [
        str(path)
        for path in source.rglob("*.py")
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
