"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.dijkstra import bidijkstra, dijkstra, dijkstra_distance
from repro.graph.generators import grid_road_network, random_connected_graph
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, generate_update_batch
from repro.hierarchy.ch import CHIndex
from repro.labeling.h2h import H2HIndex
from repro.partitioning.bfs_grow import bfs_partition
from repro.throughput.parallel import lpt_makespan
from repro.throughput.qos import qos_constrained_rate
from repro.treedec.slots import SlotContraction
from repro.treedec.tree import TreeDecomposition

from tests.oracles.slots import eliminate
from tests.conftest import (
    check_build_equals_reference,
    float_bits,
    neighbors,
    reference_shortcuts,
    reference_weights,
)

# Building indexes inside hypothesis examples is deliberate: suppress the
# slow-example health check and keep example counts small.
INDEX_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

graph_params = st.tuples(
    st.integers(min_value=5, max_value=30),   # number of vertices
    st.integers(min_value=0, max_value=25),   # extra edges
    st.integers(min_value=0, max_value=10_000),  # seed
)


def make_graph(params) -> Graph:
    n, extra, seed = params
    return random_connected_graph(n, extra, seed=seed)


class TestGraphProperties:
    @given(graph_params)
    @INDEX_SETTINGS
    def test_random_connected_graph_is_connected(self, params):
        graph = make_graph(params)
        assert graph.is_connected()
        assert graph.num_vertices == params[0]

    @given(graph_params)
    @INDEX_SETTINGS
    def test_edge_symmetry(self, params):
        graph = make_graph(params)
        for u, v, w in graph.edges():
            assert graph.edge_weight(v, u) == w
            assert v in neighbors(graph, u)
            assert u in neighbors(graph, v)

    @given(graph_params, st.integers(min_value=0, max_value=100))
    @INDEX_SETTINGS
    def test_subgraph_never_gains_edges(self, params, subset_seed):
        graph = make_graph(params)
        vertices = sorted(graph.vertices())
        keep = vertices[: max(1, len(vertices) // 2)]
        sub = graph.subgraph(keep)
        assert sub.num_edges <= graph.num_edges
        for u, v, w in sub.edges():
            assert graph.edge_weight(u, v) == w


class TestSearchProperties:
    @given(graph_params)
    @INDEX_SETTINGS
    def test_dijkstra_triangle_inequality(self, params):
        graph = make_graph(params)
        vertices = sorted(graph.vertices())
        source = vertices[0]
        dist = dijkstra(graph, source)
        for u, v, w in graph.edges():
            assert dist[u] <= dist[v] + w + 1e-9
            assert dist[v] <= dist[u] + w + 1e-9

    @given(graph_params)
    @INDEX_SETTINGS
    def test_bidijkstra_symmetry_and_agreement(self, params):
        graph = make_graph(params)
        vertices = sorted(graph.vertices())
        s, t = vertices[0], vertices[-1]
        forward = bidijkstra(graph, s, t)
        backward = bidijkstra(graph, t, s)
        assert forward == pytest.approx(backward)
        assert forward == pytest.approx(dijkstra_distance(graph, s, t))


class TestContractionProperties:
    @given(graph_params)
    @INDEX_SETTINGS
    def test_shortcut_values_dominate_distances(self, params):
        """Every shortcut is at least the true shortest distance between its endpoints."""
        graph = make_graph(params)
        order = eliminate(graph)[0]
        for v, row in reference_shortcuts(graph, order).items():
            dist = dijkstra(graph, v, targets=list(row))
            for u, sc in row.items():
                assert sc >= dist.get(u, math.inf) - 1e-9

    @given(graph_params)
    @INDEX_SETTINGS
    def test_tree_decomposition_covers_edges(self, params):
        """Definition 1 (2): every edge appears inside some tree node."""
        graph = make_graph(params)
        tree = TreeDecomposition.from_contraction(SlotContraction.build(graph))
        for u, v, _ in graph.edges():
            low = u if tree.contraction.rank[u] < tree.contraction.rank[v] else v
            high = v if low == u else u
            assert high in tree.neighbors(low)

    @given(graph_params, st.integers(min_value=1, max_value=8), st.integers(0, 1000))
    @INDEX_SETTINGS
    def test_shortcut_maintenance_equals_rebuild(self, params, volume, seed):
        graph = make_graph(params)
        volume = min(volume, graph.num_edges)
        contraction = SlotContraction.build(graph)
        batch = generate_update_batch(graph, volume, seed=seed)
        batch.apply(graph)
        contraction.update(batch)
        rebuilt = reference_shortcuts(graph, contraction.order)
        for v in contraction.order:
            assert contraction.upward(v) == rebuilt[v]
        assert float_bits(contraction.arena["weights"]) == reference_weights(
            graph, contraction.order
        )

    @given(graph_params, st.booleans(), st.integers(0, 1000))
    @INDEX_SETTINGS
    def test_build_equals_the_reference_elimination(self, params, tiered, seed):
        """``SlotContraction.build`` (rows from the symbolic elimination,
        weights from one pass) equals the weighted dict elimination bit for
        bit, under the minimum-degree order, a tiered one or an explicit one."""
        graph = make_graph(params)
        vertices = sorted(graph.vertices())
        random.Random(seed).shuffle(vertices)
        for options in ({"tiers": {v: v % 3 for v in vertices}} if tiered else {},
                        {"order": vertices}):
            check_build_equals_reference(graph, **options)


class TestIndexProperties:
    @given(graph_params)
    @INDEX_SETTINGS
    def test_ch_and_h2h_agree_with_dijkstra(self, params):
        graph = make_graph(params)
        ch = CHIndex(graph)
        ch.build()
        h2h = H2HIndex(graph)
        h2h.build()
        vertices = sorted(graph.vertices())
        probes = [(vertices[0], vertices[-1]), (vertices[len(vertices) // 2], vertices[0])]
        for s, t in probes:
            expected = dijkstra_distance(graph, s, t)
            assert ch.query(s, t) == pytest.approx(expected)
            assert h2h.query(s, t) == pytest.approx(expected)

    @given(graph_params)
    @INDEX_SETTINGS
    def test_two_hop_cover_property(self, params):
        """H2H labels satisfy the 2-hop cover property of Section II-B."""
        graph = make_graph(params)
        index = H2HIndex(graph)
        index.build()
        labels, tree = index.labels, index.tree
        vertices = sorted(graph.vertices())
        s, t = vertices[0], vertices[-1]
        lca = tree.lca(s, t)
        expected = dijkstra_distance(graph, s, t)
        candidates = [
            labels.dis(s)[i] + labels.dis(t)[i] for i in labels.pos(lca)
        ]
        assert min(candidates) == pytest.approx(expected)
        assert all(c >= expected - 1e-9 for c in candidates)


class TestUpdateBatchProperties:
    @given(graph_params, st.integers(min_value=0, max_value=8), st.integers(0, 500))
    @INDEX_SETTINGS
    def test_apply_then_revert_is_identity(self, params, volume, seed):
        graph = make_graph(params)
        volume = min(volume, graph.num_edges)
        before = sorted(graph.edges())
        batch = generate_update_batch(graph, volume, seed=seed)
        batch.apply(graph)
        batch.revert(graph)
        assert sorted(graph.edges()) == pytest.approx(before)

    @given(st.floats(min_value=0.1, max_value=100.0), st.floats(min_value=1.1, max_value=4.0))
    @settings(max_examples=50, deadline=None)
    def test_increase_decrease_classification(self, weight, factor):
        increase = EdgeUpdate(0, 1, weight, weight * factor)
        decrease = EdgeUpdate(0, 1, weight, weight / factor)
        assert increase.is_increase and not increase.is_decrease
        assert decrease.is_decrease and not decrease.is_increase


class TestPartitioningProperties:
    @given(
        st.integers(min_value=4, max_value=9),
        st.integers(min_value=4, max_value=9),
        st.integers(min_value=1, max_value=6),
        st.integers(0, 1000),
    )
    @INDEX_SETTINGS
    def test_bfs_partition_invariants(self, rows, cols, k, seed):
        graph = grid_road_network(rows, cols, seed=seed)
        k = min(k, graph.num_vertices)
        partitioning = bfs_partition(graph, k, seed=seed)
        assert partitioning.num_partitions == k
        assert sum(partitioning.sizes()) == graph.num_vertices
        for pid in range(k):
            for b in partitioning.boundary(pid):
                assert any(
                    partitioning.partition_of(u) != pid for u in neighbors(graph, b)
                )


class TestThroughputProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=0, max_size=20),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_lpt_bounds(self, times, workers):
        makespan = lpt_makespan(times, workers)
        total = sum(t for t in times if t > 0)
        longest = max((t for t in times if t > 0), default=0.0)
        assert makespan <= total + 1e-9
        assert makespan >= longest - 1e-9
        assert makespan >= total / workers - 1e-9

    @given(
        st.floats(min_value=1e-6, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.1),
        st.floats(min_value=1e-3, max_value=5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_qos_rate_nonnegative_and_stable(self, mean, variance, qos):
        rate = qos_constrained_rate(mean, variance, qos)
        assert rate >= 0.0
        if rate > 0:
            # The computed rate never exceeds the stability limit.
            assert rate * mean <= 1.0 + 1e-6
