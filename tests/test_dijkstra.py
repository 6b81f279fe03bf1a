"""Unit tests for the index-free search algorithms (repro.algorithms.dijkstra)."""

import math

import pytest

from repro.algorithms.dijkstra import (
    bidijkstra,
    dijkstra,
    dijkstra_distance,
    dijkstra_path,
)
from repro.exceptions import VertexNotFoundError
from repro.graph.generators import grid_road_network, random_connected_graph
from repro.graph.graph import Graph

from tests.conftest import paper_example_graph, random_query_pairs


class TestDijkstra:
    def test_simple_triangle(self):
        graph = Graph.from_edges([0, 1, 0], [1, 2, 2], [1.0, 1.0, 5.0])
        assert dijkstra_distance(graph, 0, 2) == 2.0

    def test_source_equals_target(self):
        graph = Graph.from_edges([0], [1], [1.0], vertices=range(3))
        assert dijkstra_distance(graph, 0, 0) == 0.0

    def test_unreachable_returns_inf(self):
        graph = Graph.from_edges([0, 2], [1, 3], [1.0, 1.0])
        assert dijkstra_distance(graph, 0, 3) == math.inf

    def test_unknown_source_raises(self):
        graph = Graph.from_edges(vertices=range(2))
        with pytest.raises(VertexNotFoundError):
            dijkstra(graph, 42)

    def test_full_distance_map(self):
        graph = paper_example_graph()
        settled = dijkstra(graph, 0)
        assert settled[0] == 0.0
        assert len(settled) == graph.num_vertices

    def test_early_stop_with_targets(self):
        graph = grid_road_network(8, 8, seed=1)
        full = dijkstra(graph, 0)
        partial = dijkstra(graph, 0, targets=[5, 10])
        assert partial[5] == full[5]
        assert partial[10] == full[10]
        assert len(partial) <= len(full)


class TestDijkstraPath:
    def test_path_endpoints_and_length(self):
        graph = paper_example_graph()
        distance, path = dijkstra_path(graph, 0, 7)
        assert path[0] == 0 and path[-1] == 7
        total = sum(graph.edge_weight(path[i], path[i + 1]) for i in range(len(path) - 1))
        assert total == pytest.approx(distance)

    def test_path_unreachable(self):
        graph = Graph.from_edges([0], [1], [1.0], vertices=[2])
        distance, path = dijkstra_path(graph, 0, 2)
        assert distance == math.inf and path == []

    def test_trivial_path(self):
        graph = Graph.from_edges(vertices=[0])
        assert dijkstra_path(graph, 0, 0) == (0.0, [0])


class TestBiDijkstraAndAStar:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bidijkstra_matches_dijkstra_grid(self, seed):
        graph = grid_road_network(7, 7, seed=seed)
        for s, t in random_query_pairs(graph, 25, seed=seed):
            assert bidijkstra(graph, s, t) == pytest.approx(dijkstra_distance(graph, s, t))

    def test_bidijkstra_matches_dijkstra_random(self):
        graph = random_connected_graph(60, 60, seed=5)
        for s, t in random_query_pairs(graph, 30, seed=5):
            assert bidijkstra(graph, s, t) == pytest.approx(dijkstra_distance(graph, s, t))

    def test_bidijkstra_same_vertex(self):
        graph = paper_example_graph()
        assert bidijkstra(graph, 3, 3) == 0.0
