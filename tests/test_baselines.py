"""Tests for the TOAIN and BiDijkstra baselines and the cross-boundary aggregation."""

import pytest

from repro.algorithms.dijkstra import dijkstra_distance
from repro.baselines.bidijkstra_index import BiDijkstraIndex
from repro.baselines.toain import TOAINIndex
from repro.core.cross_boundary import (
    build_cross_boundary_index,
    compose_cross_boundary_contraction,
)
from repro.exceptions import IndexNotBuiltError
from repro.graph.generators import grid_road_network
from repro.graph.updates import generate_update_batch
from repro.partitioning.natural_cut import natural_cut_partition
from repro.partitioning.ordering import boundary_first_order
from repro.psp.overlay import OverlayIndex
from repro.psp.partition_family import PartitionIndexFamily

from tests.conftest import (
    BATCH_SEQUENCES,
    check_slot_maintenance,
    random_query_pairs,
    reference_shortcuts,
)


class TestBiDijkstraIndex:
    def test_query_and_update(self):
        graph = grid_road_network(6, 6, seed=0)
        index = BiDijkstraIndex(graph)
        index.build()
        assert index.index_size() == 0
        batch = generate_update_batch(graph, volume=5, seed=0)
        report = index.apply_batch(batch)
        assert [s.name for s in report.stages] == ["edge_update"]
        for s, t in random_query_pairs(graph, 20, seed=0):
            assert index.query(s, t) == pytest.approx(dijkstra_distance(graph, s, t))


class TestTOAIN:
    def test_invalid_fraction(self):
        graph = grid_road_network(4, 4, seed=0)
        with pytest.raises(ValueError):
            TOAINIndex(graph, checkin_fraction=0.0)

    def test_not_built(self):
        graph = grid_road_network(4, 4, seed=0)
        with pytest.raises(IndexNotBuiltError):
            TOAINIndex(graph).query(0, 1)

    @pytest.mark.parametrize("fraction", [0.1, 0.3, 1.0])
    def test_queries_match_dijkstra(self, fraction):
        graph = grid_road_network(7, 7, seed=1)
        index = TOAINIndex(graph, checkin_fraction=fraction)
        index.build()
        for s, t in random_query_pairs(graph, 30, seed=1):
            assert index.query(s, t) == pytest.approx(dijkstra_distance(graph, s, t))

    def test_queries_after_update(self):
        graph = grid_road_network(6, 6, seed=2)
        index = TOAINIndex(graph, checkin_fraction=0.25)
        index.build()
        report = index.apply_batch(generate_update_batch(graph, volume=10, seed=2))
        assert [s.name for s in report.stages] == [
            "edge_update",
            "shortcut_update",
            "label_rebuild",
        ]
        for s, t in random_query_pairs(graph, 25, seed=2):
            assert index.query(s, t) == pytest.approx(dijkstra_distance(graph, s, t))

    def test_larger_core_means_larger_index(self):
        graph = grid_road_network(6, 6, seed=3)
        small = TOAINIndex(graph.copy(), checkin_fraction=0.1)
        small.build()
        large = TOAINIndex(graph.copy(), checkin_fraction=0.5)
        large.build()
        assert large.index_size() > small.index_size()


class TestCrossBoundaryAggregation:
    def _build_parts(self, graph, k=4, seed=0):
        partitioning = natural_cut_partition(graph, k, seed=seed)
        order = boundary_first_order(graph, partitioning)
        family = PartitionIndexFamily(partitioning, order, with_labels=True)
        family.build()
        overlay = OverlayIndex(partitioning, family, order, with_labels=True)
        overlay.build()
        return partitioning, order, family, overlay

    def test_composed_contraction_covers_all_vertices(self):
        graph = grid_road_network(7, 7, seed=4)
        partitioning, order, family, overlay = self._build_parts(graph)
        composed = compose_cross_boundary_contraction(partitioning, order, family, overlay)
        assert sorted(composed.order) == sorted(graph.vertices())
        boundary = partitioning.all_boundary()
        for v in composed.order:
            source = (
                overlay.contraction
                if v in boundary
                else family.contractions[partitioning.partition_of(v)]
            )
            # Gathered through the union's maps: maintenance of the parts
            # keeps L* shortcuts fresh.
            assert composed.upward(v) == source.upward(v)
        batch = generate_update_batch(graph, volume=6, seed=4)
        touched = family.contractions[0]
        inner = [u for u in batch if partitioning.partition_of(u.u) == 0 == partitioning.partition_of(u.v)]
        assert inner and len(touched.update(inner))
        composed.gather()
        for v in composed.order:
            if v not in boundary and partitioning.partition_of(v) == 0:
                assert composed.upward(v) == touched.upward(v)

    def test_cross_boundary_labels_are_global_distances(self):
        graph = grid_road_network(7, 7, seed=5)
        partitioning, order, family, overlay = self._build_parts(graph, seed=5)
        _, tree, labels = build_cross_boundary_index(partitioning, order, family, overlay)
        for s, t in random_query_pairs(graph, 40, seed=5):
            assert labels.query(s, t) == pytest.approx(dijkstra_distance(graph, s, t))

    def test_composed_equals_global_tiered_contraction(self):
        """The aggregation equals a genuine global contraction under the same order."""
        from tests.oracles.slots import eliminate

        graph = grid_road_network(6, 6, seed=6)
        partitioning, order, family, overlay = self._build_parts(graph, seed=6)
        composed = compose_cross_boundary_contraction(partitioning, order, family, overlay)
        rows = dict(zip(*eliminate(graph, order=order)))
        shortcuts = reference_shortcuts(graph, order)
        for v in order:
            assert composed.neighbors[v] == rows[v]
            assert composed.upward(v) == pytest.approx(shortcuts[v])


class TestSlotMaintenance:
    """TOAIN's contraction through the C shortcut pass and through its
    oracle: after every kind of batch its arena
    and graph weights equal a fresh build's byte for byte, and so do the
    core labels rebuilt from them."""

    @pytest.mark.parametrize("rung", ("native", "oracle"))
    @pytest.mark.parametrize("kind", sorted(BATCH_SEQUENCES))
    def test_arenas_equal_a_fresh_build(self, kind, rung, oracle_maintenance):
        from repro.registry import create_index

        if rung == "oracle":
            oracle_maintenance()
        graph = grid_road_network(8, 8, seed=4)
        index = check_slot_maintenance("TOAIN", graph, kind)
        fresh = create_index("TOAIN", graph.copy())
        fresh.build()
        assert index.core_labels == fresh.core_labels
        for s, t in random_query_pairs(graph, 20, seed=4):
            assert index.query(s, t) == pytest.approx(dijkstra_distance(graph, s, t))

