"""Unit tests for the partitioning package."""

import pytest

from repro.exceptions import PartitioningError
from repro.graph.generators import grid_road_network, random_connected_graph
from repro.partitioning.base import Partitioning, partitioning_from_sets
from repro.partitioning.bfs_grow import bfs_partition, refine_boundary
from repro.partitioning.kdtree import kdtree_partition
from repro.partitioning.natural_cut import natural_cut_partition
from repro.partitioning.ordering import (
    boundary_first_order,
    boundary_first_tiers,
    rank_of,
    restrict_order,
)
from repro.partitioning.td_partition import td_partition
from repro.treedec.slots import SlotContraction
from repro.treedec.tree import TreeDecomposition

from tests.conftest import neighbors


class TestPartitioningBase:
    def test_from_sets(self):
        graph = grid_road_network(4, 4, seed=0)
        groups = [list(range(0, 8)), list(range(8, 16))]
        partitioning = partitioning_from_sets(graph, groups)
        assert partitioning.num_partitions == 2
        assert partitioning.partition_vertices(0) == list(range(0, 8))
        assert partitioning.partition_of(9) == 1

    def test_duplicate_assignment_rejected(self):
        graph = grid_road_network(3, 3, seed=0)
        with pytest.raises(PartitioningError):
            partitioning_from_sets(graph, [[0, 1], [1, 2]])

    def test_missing_vertex_rejected(self):
        graph = grid_road_network(3, 3, seed=0)
        with pytest.raises(PartitioningError):
            Partitioning(graph, {0: 0})

    def test_empty_partition_rejected(self):
        graph = grid_road_network(3, 3, seed=0)
        assignment = {v: 0 for v in graph.vertices()}
        assignment[0] = 2  # ids 0 and 2 used, 1 missing -> non-contiguous
        with pytest.raises(PartitioningError):
            Partitioning(graph, assignment)

    def test_boundary_definition(self):
        graph = grid_road_network(4, 4, seed=0)
        partitioning = partitioning_from_sets(
            graph, [list(range(0, 8)), list(range(8, 16))]
        )
        for pid in range(2):
            for b in partitioning.boundary(pid):
                assert partitioning.partition_of(b) == pid
                assert any(
                    partitioning.partition_of(u) != pid
                    for u in neighbors(graph, b)
                )
        inter = partitioning.inter_edges()
        assert all(
            partitioning.partition_of(u) != partitioning.partition_of(v)
            for u, v, _ in inter
        )
        assert partitioning.edge_cut() == len(inter)

    def test_statistics(self):
        graph = grid_road_network(4, 4, seed=0)
        partitioning = partitioning_from_sets(
            graph, [list(range(0, 8)), list(range(8, 16))]
        )
        assert partitioning.sizes() == [8, 8]
        assert partitioning.imbalance() == pytest.approx(1.0)
        assert partitioning.max_boundary_size() >= 1
        assert partitioning.validate() == []


@pytest.mark.parametrize("partitioner", ["bfs", "kdtree", "natural"])
@pytest.mark.parametrize("k", [2, 4, 8])
class TestPartitioners:
    def _run(self, partitioner, graph, k):
        if partitioner == "bfs":
            return bfs_partition(graph, k, seed=1)
        if partitioner == "kdtree":
            return kdtree_partition(graph, k)
        return natural_cut_partition(graph, k, seed=1)

    def test_cover_and_balance(self, partitioner, k):
        graph = grid_road_network(10, 10, seed=3)
        partitioning = self._run(partitioner, graph, k)
        assert partitioning.num_partitions == k
        assert sum(partitioning.sizes()) == graph.num_vertices
        assert partitioning.validate() == []
        assert partitioning.imbalance() < 2.5

    def test_boundary_not_everything(self, partitioner, k):
        graph = grid_road_network(10, 10, seed=4)
        partitioning = self._run(partitioner, graph, k)
        assert len(partitioning.all_boundary()) < graph.num_vertices


class TestPartitionerEdgeCases:
    def test_single_partition(self):
        graph = grid_road_network(4, 4, seed=0)
        partitioning = bfs_partition(graph, 1, seed=0)
        assert partitioning.num_partitions == 1
        assert partitioning.all_boundary() == set()

    def test_too_many_partitions_rejected(self):
        graph = grid_road_network(2, 2, seed=0)
        with pytest.raises(PartitioningError):
            bfs_partition(graph, 10, seed=0)
        with pytest.raises(PartitioningError):
            kdtree_partition(graph, 10)

    def test_kdtree_requires_coordinates(self):
        graph = random_connected_graph(20, 10, seed=0)
        with pytest.raises(PartitioningError):
            kdtree_partition(graph, 2)

    def test_refinement_never_worse(self):
        graph = grid_road_network(8, 8, seed=5)
        initial = bfs_partition(graph, 4, seed=5)
        refined = refine_boundary(initial)
        assert refined.edge_cut() <= initial.edge_cut()
        assert refined.validate() == []


class TestBoundaryFirstOrdering:
    def test_boundary_ranks_are_highest(self):
        graph = grid_road_network(8, 8, seed=6)
        partitioning = natural_cut_partition(graph, 4, seed=6)
        order = boundary_first_order(graph, partitioning)
        rank = rank_of(order)
        boundary = partitioning.all_boundary()
        max_non_boundary = max(rank[v] for v in graph.vertices() if v not in boundary)
        min_boundary = min(rank[v] for v in boundary)
        assert min_boundary > max_non_boundary

    def test_restrict_order_preserves_relative_order(self):
        order = [5, 3, 8, 1, 2]
        assert restrict_order(order, [1, 8, 5]) == [5, 8, 1]

    def test_tiers(self):
        graph = grid_road_network(6, 6, seed=7)
        partitioning = natural_cut_partition(graph, 4, seed=7)
        tiers = boundary_first_tiers(partitioning)
        for v in graph.vertices():
            assert tiers[v] == (1 if v in partitioning.all_boundary() else 0)


class TestTDPartitioning:
    def _tree(self, rows=10, cols=10, seed=8):
        graph = grid_road_network(rows, cols, seed=seed)
        return graph, TreeDecomposition.from_contraction(SlotContraction.build(graph))

    def test_structure_valid(self):
        graph, tree = self._tree()
        result = td_partition(tree, bandwidth=12, expected_partitions=4)
        assert result.validate() == []
        assert result.num_partitions >= 1
        # Partition = root plus its descendants, boundary = root's neighbour set.
        for pid, root in enumerate(result.roots):
            assert set(result.partition_vertices[pid]) == set(tree.subtree(root))
            assert result.boundary[pid] == sorted(tree.neighbors(root))
            assert len(result.boundary[pid]) <= 12

    def test_boundary_vertices_are_overlay(self):
        graph, tree = self._tree(seed=9)
        result = td_partition(tree, bandwidth=12, expected_partitions=4)
        for boundary in result.boundary:
            for b in boundary:
                assert b in result.overlay_vertices

    def test_partition_sizes_within_bounds(self):
        graph, tree = self._tree(seed=10)
        ke = 4
        result = td_partition(tree, bandwidth=12, expected_partitions=ke,
                              beta_lower=0.1, beta_upper=2.0)
        ideal = tree.num_vertices / ke
        for size in result.sizes():
            assert 0.1 * ideal <= size <= 2.0 * ideal

    def test_subtrees_are_disjoint(self):
        graph, tree = self._tree(seed=11)
        result = td_partition(tree, bandwidth=12, expected_partitions=6)
        seen = set()
        for members in result.partition_vertices:
            assert not (seen & set(members))
            seen.update(members)

    def test_invalid_parameters(self):
        graph, tree = self._tree(4, 4, seed=0)
        with pytest.raises(PartitioningError):
            td_partition(tree, bandwidth=0, expected_partitions=2)
        with pytest.raises(PartitioningError):
            td_partition(tree, bandwidth=5, expected_partitions=0)
        with pytest.raises(PartitioningError):
            td_partition(tree, bandwidth=5, expected_partitions=2, beta_lower=3, beta_upper=2)

    def test_impossible_constraints_give_no_partitions(self):
        graph, tree = self._tree(5, 5, seed=1)
        result = td_partition(tree, bandwidth=1, expected_partitions=2,
                              beta_lower=0.99, beta_upper=1.0)
        assert result.num_partitions == 0
        assert result.overlay_vertices == set(graph.vertices())
