"""Batch query plane: equivalence with the scalar path on all nine indexes.

The contract under test:

* ``query_many`` / ``query_one_to_many`` return **bit-identical** distances to
  the scalar ``query`` loop on every index whose batch plane reuses the scalar
  arithmetic (eight of the nine methods), both freshly built and after
  ``apply_batch``;
* BiDijkstra's batch plane is the one documented exception: it runs a single
  truncated Dijkstra per distinct source, which is bit-identical to the
  canonical single-source path (``dijkstra_distance``) but may differ from the
  scalar *bidirectional* search in the final ulp because floating-point
  addition is not associative.  Its results are asserted bit-identical to the
  Dijkstra reference and within 1e-9 of the scalar path;
* the BiDijkstra one-to-many path is at least 2x faster than the equivalent
  scalar loop (the acceptance bar of the batch-plane redesign).
"""

from __future__ import annotations

import time

import pytest

from repro.algorithms.dijkstra import dijkstra_distance
from repro.baselines.bidijkstra_index import BiDijkstraIndex
from repro.exceptions import VertexNotFoundError
from repro.graph.generators import grid_road_network
from repro.graph.updates import generate_update_batch
from repro.registry import create_index, get_spec, registered_methods
from repro.throughput.workload import sample_query_pairs

#: All nine registered methods with small-graph construction parameters.
NINE_SPECS = {
    "BiDijkstra": get_spec("BiDijkstra"),
    "DCH": get_spec("DCH"),
    "DH2H": get_spec("DH2H"),
    "MHL": get_spec("MHL"),
    "TOAIN": get_spec("TOAIN", checkin_fraction=0.25),
    "N-CH-P": get_spec("N-CH-P", num_partitions=4, seed=0),
    "P-TD-P": get_spec("P-TD-P", num_partitions=4, seed=0),
    "PMHL": get_spec("PMHL", num_partitions=4, seed=0),
    "PostMHL": get_spec("PostMHL", bandwidth=10, expected_partitions=4),
}

#: Methods whose batch plane must be bit-identical to the scalar path.
EXACT_METHODS = sorted(set(NINE_SPECS) - {"BiDijkstra"})


def _query_pairs(graph):
    pairs = list(sample_query_pairs(graph, 60, seed=3))
    # Edge cases: identical endpoints and a repeated source (grouping path).
    pairs += [(0, 0), (7, 7), (0, 5), (0, 9), (0, 13)]
    return pairs


@pytest.fixture(scope="module")
def built_indexes():
    """Every method built once on the same 10x10 grid."""
    base = grid_road_network(10, 10, seed=5)
    built = {}
    for name, spec in NINE_SPECS.items():
        index = create_index(spec, base.copy())
        index.build()
        built[name] = index
    return built


class TestRegistryCoversAllNine:
    def test_nine_methods_registered(self):
        assert set(registered_methods()) == set(NINE_SPECS)


class TestFreshEquivalence:
    @pytest.mark.parametrize("method", EXACT_METHODS)
    def test_query_many_bit_identical(self, built_indexes, method):
        index = built_indexes[method]
        pairs = _query_pairs(index.graph)
        scalar = [index.query(s, t) for s, t in pairs]
        assert index.query_many(pairs) == scalar

    @pytest.mark.parametrize("method", EXACT_METHODS)
    def test_query_one_to_many_bit_identical(self, built_indexes, method):
        index = built_indexes[method]
        pairs = _query_pairs(index.graph)
        source = pairs[0][0]
        targets = [t for _, t in pairs]
        scalar = [index.query(source, t) for t in targets]
        assert index.query_one_to_many(source, targets) == scalar

    def test_bidijkstra_batch_matches_dijkstra_reference(self, built_indexes):
        index = built_indexes["BiDijkstra"]
        pairs = _query_pairs(index.graph)
        batch = index.query_many(pairs)
        # Bit-identical to the canonical single-source scalar path...
        assert batch == [dijkstra_distance(index.graph, s, t) for s, t in pairs]
        # ...and within final-ulp rounding of the bidirectional scalar path.
        scalar = [index.query(s, t) for s, t in pairs]
        assert all(abs(a - b) <= 1e-9 * max(1.0, abs(a)) for a, b in zip(scalar, batch))


class TestPostUpdateEquivalence:
    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_equivalence_after_apply_batch(self, built_indexes, method):
        index = built_indexes[method]
        update = generate_update_batch(index.graph, volume=12, seed=9)
        index.apply_batch(update)
        pairs = _query_pairs(index.graph)
        scalar = [index.query(s, t) for s, t in pairs]
        batch = index.query_many(pairs)
        if method == "BiDijkstra":
            assert batch == [dijkstra_distance(index.graph, s, t) for s, t in pairs]
            assert all(
                abs(a - b) <= 1e-9 * max(1.0, abs(a)) for a, b in zip(scalar, batch)
            )
        else:
            assert batch == scalar
        # And the distances are correct, not merely self-consistent.
        oracle = [dijkstra_distance(index.graph, s, t) for s, t in pairs]
        assert all(
            abs(a - b) <= 1e-6 * max(1.0, abs(b)) for a, b in zip(batch, oracle)
        )


#: Every query plane entry point with an endpoint that is not a vertex.
UNKNOWN_VERTEX_CALLS = {
    "query(x, x)": lambda index: index.query(10_000, 10_000),
    "query(s, x)": lambda index: index.query(0, 10_000),
    "query_one_to_many(x, [])": lambda index: index.query_one_to_many(10_000, []),
    "query_one_to_many(x, ts)": lambda index: index.query_one_to_many(10_000, [3, 7]),
    "query_one_to_many(s, [t, x])": lambda index: index.query_one_to_many(0, [3, 10_000]),
    "query_many([.., (x, t)])": lambda index: index.query_many([(0, 3), (-5, 7)]),
    "query_many([.., (x, x)])": lambda index: index.query_many([(0, 3), (10_000, 10_000)]),
}


class TestBatchValidation:
    def test_unknown_vertices_raise(self, built_indexes):
        """All nine methods, frozen stores and pure reference alike."""
        silent = []
        for method, index in built_indexes.items():
            for use_kernels in (True, False):
                index.use_kernels = use_kernels
                try:
                    for call_name, call in UNKNOWN_VERTEX_CALLS.items():
                        try:
                            call(index)
                        except VertexNotFoundError:
                            continue
                        silent.append((method, use_kernels, call_name))
                finally:
                    index.use_kernels = True
        assert silent == []

    def test_empty_batches(self, built_indexes):
        for index in built_indexes.values():
            assert index.query_many([]) == []
            assert index.query_one_to_many(0, []) == []

    def test_input_order_preserved(self, built_indexes):
        index = built_indexes["PostMHL"]
        pairs = [(5, 80), (3, 40), (5, 17), (3, 99), (5, 80)]
        assert index.query_many(pairs) == [index.query(s, t) for s, t in pairs]


class TestBiDijkstraBatchSpeedup:
    def test_one_to_many_at_least_2x_faster(self):
        """The acceptance bar on the quick grid dataset.

        200 targets from one source: the batch path runs one truncated
        Dijkstra, the scalar loop 200 bidirectional searches.  The measured
        gap is ~50-100x; the assertion keeps a wide margin for slow CI boxes.
        """
        graph = grid_road_network(22, 22, seed=13)
        index = BiDijkstraIndex(graph)
        index.build()
        targets = [t for _, t in sample_query_pairs(graph, 200, seed=4)]
        source = 0

        start = time.perf_counter()
        scalar = [index.query(source, t) for t in targets]
        scalar_seconds = time.perf_counter() - start

        start = time.perf_counter()
        batch = index.query_one_to_many(source, targets)
        batch_seconds = time.perf_counter() - start

        assert all(abs(a - b) <= 1e-9 * max(1.0, abs(a)) for a, b in zip(scalar, batch))
        assert batch_seconds > 0
        assert scalar_seconds / batch_seconds >= 2.0, (
            f"batch path only {scalar_seconds / batch_seconds:.2f}x faster "
            f"({scalar_seconds:.4f}s scalar vs {batch_seconds:.4f}s batch)"
        )
