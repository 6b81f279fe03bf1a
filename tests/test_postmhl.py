"""Unit and integration tests for the PostMHL index (the paper's Section VI)."""

import pytest

from repro.algorithms.dijkstra import dijkstra_distance
from repro.core.postmhl import PostMHLIndex
from repro.core.stages import POSTMHL_UPDATE_STAGES
from repro.exceptions import IndexNotBuiltError, VertexNotFoundError
from repro.graph.generators import grid_road_network, highway_network
from repro.graph.updates import generate_update_batch, generate_update_stream

from tests.conftest import (
    BATCH_SEQUENCES,
    NEEDS_NATIVE,
    check_label_maintenance,
    random_query_pairs,
)


def build_postmhl(graph, bandwidth=12, ke=4):
    index = PostMHLIndex(graph, bandwidth=bandwidth, expected_partitions=ke)
    index.build()
    return index


class TestPostMHLConstruction:
    def test_not_built_raises(self):
        graph = grid_road_network(5, 5, seed=0)
        with pytest.raises(IndexNotBuiltError):
            PostMHLIndex(graph).query(0, 1)

    def test_unknown_vertex(self):
        graph = grid_road_network(5, 5, seed=0)
        index = build_postmhl(graph)
        with pytest.raises(VertexNotFoundError):
            index.query(0, 999)

    def test_partitions_created_on_reasonable_inputs(self):
        graph = grid_road_network(10, 10, seed=1)
        index = build_postmhl(graph, bandwidth=14, ke=4)
        assert index.td.num_partitions >= 1
        assert index.td.validate() == []
        assert index.overlay_vertex_count < graph.num_vertices

    def test_boundary_arrays_match_global_distances(self):
        graph = grid_road_network(8, 8, seed=2)
        index = build_postmhl(graph, bandwidth=12, ke=4)
        for pid in range(index.td.num_partitions):
            boundary = index.td.boundary[pid]
            for v in index.td.partition_vertices[pid][:5]:
                for j, b in enumerate(boundary):
                    assert index.disB[v][j] == pytest.approx(
                        dijkstra_distance(graph, v, b)
                    )

    def test_index_size_larger_than_h2h_labels(self):
        graph = grid_road_network(7, 7, seed=3)
        index = build_postmhl(graph)
        assert index.index_size() > index.labels.label_entry_count()

    def test_degenerate_no_partitions(self):
        """Impossible TD-partitioning constraints degrade PostMHL to plain H2H."""
        graph = grid_road_network(5, 5, seed=4)
        index = PostMHLIndex(graph, bandwidth=1, expected_partitions=2,
                             beta_lower=0.99, beta_upper=1.0)
        index.build()
        assert index.td.num_partitions == 0
        for s, t in random_query_pairs(graph, 15, seed=4):
            expected = dijkstra_distance(graph, s, t)
            for stage in index.stage_catalog():
                assert stage.query(s, t) == pytest.approx(expected)


class TestPostMHLQueryStages:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_stages_match_dijkstra(self, seed):
        graph = grid_road_network(8, 8, seed=seed)
        index = build_postmhl(graph, bandwidth=12, ke=4)
        for s, t in random_query_pairs(graph, 30, seed=seed):
            expected = dijkstra_distance(graph, s, t)
            for stage in index.stage_catalog():
                assert stage.query(s, t) == pytest.approx(expected), (s, t, stage.name)

    def test_highway_network(self):
        graph = highway_network(clusters=4, cluster_size=20, seed=5)
        index = build_postmhl(graph, bandwidth=14, ke=4)
        for s, t in random_query_pairs(graph, 30, seed=5):
            assert index.query(s, t) == pytest.approx(dijkstra_distance(graph, s, t))

    def test_same_partition_post_boundary_queries(self):
        graph = grid_road_network(9, 9, seed=6)
        index = build_postmhl(graph, bandwidth=14, ke=4)
        for pid in range(index.td.num_partitions):
            members = index.td.partition_vertices[pid]
            for s in members[:4]:
                for t in members[-4:]:
                    assert index.query_post_boundary(s, t) == pytest.approx(
                        dijkstra_distance(graph, s, t)
                    )

    def test_overlay_to_partition_queries(self):
        graph = grid_road_network(8, 8, seed=7)
        index = build_postmhl(graph, bandwidth=12, ke=4)
        if index.td.num_partitions == 0:
            pytest.skip("no partitions produced on this input")
        overlay = sorted(index.td.overlay_vertices)[:5]
        inner = index.td.partition_vertices[0][:5]
        for s in overlay:
            for t in inner:
                assert index.query_post_boundary(s, t) == pytest.approx(
                    dijkstra_distance(graph, s, t)
                )


class TestPostMHLMaintenance:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_stages_correct_after_batch(self, seed):
        graph = grid_road_network(8, 8, seed=seed)
        index = build_postmhl(graph, bandwidth=12, ke=4)
        batch = generate_update_batch(graph, volume=15, seed=seed)
        report = index.apply_batch(batch)
        assert [s.name for s in report.stages] == list(POSTMHL_UPDATE_STAGES)
        for s, t in random_query_pairs(graph, 25, seed=seed):
            expected = dijkstra_distance(graph, s, t)
            for stage in index.stage_catalog():
                assert stage.query(s, t) == pytest.approx(expected), (s, t, stage.name)

    def test_labels_match_rebuild_after_update(self):
        graph = grid_road_network(7, 7, seed=8)
        index = build_postmhl(graph, bandwidth=12, ke=4)
        batch = generate_update_batch(graph, volume=12, seed=8)
        index.apply_batch(batch)

        from repro.labeling.h2h import H2HIndex

        rebuilt = H2HIndex(graph, order=list(index.contraction.order))
        rebuilt.build()
        for v in index.contraction.order:
            assert index.labels.dis(v).tolist() == pytest.approx(rebuilt.labels.dis(v).tolist())

    def test_update_stream_stays_correct(self):
        graph = grid_road_network(7, 7, seed=9)
        index = build_postmhl(graph, bandwidth=12, ke=4)
        for batch in generate_update_stream(graph, num_batches=3, volume=10, seed=9):
            index.apply_batch(batch)
            for s, t in random_query_pairs(graph, 15, seed=9):
                expected = dijkstra_distance(graph, s, t)
                assert index.query_cross_boundary(s, t) == pytest.approx(expected)
                assert index.query_post_boundary(s, t) == pytest.approx(expected)

    def test_decrease_and_increase_only(self):
        for fraction in (0.0, 1.0):
            graph = grid_road_network(6, 6, seed=10)
            index = build_postmhl(graph, bandwidth=10, ke=4)
            batch = generate_update_batch(graph, volume=10, seed=10,
                                          decrease_fraction=fraction)
            index.apply_batch(batch)
            for s, t in random_query_pairs(graph, 15, seed=10):
                assert index.query(s, t) == pytest.approx(
                    dijkstra_distance(graph, s, t)
                )

    def test_boundary_arrays_fresh_after_update(self):
        graph = grid_road_network(8, 8, seed=11)
        index = build_postmhl(graph, bandwidth=12, ke=4)
        batch = generate_update_batch(graph, volume=15, seed=11)
        index.apply_batch(batch)
        for pid in range(index.td.num_partitions):
            boundary = index.td.boundary[pid]
            for v in index.td.partition_vertices[pid][:4]:
                for j, b in enumerate(boundary):
                    assert index.disB[v][j] == pytest.approx(
                        dijkstra_distance(graph, v, b)
                    )


class TestFlatLabelMaintenance:
    """PostMHL's one amalgamated label arena on both rungs: after every kind
    of batch it equals a fresh build on the updated graph, and every pass —
    U-Stage 3's overlay rows, U-Stage 5's cross-boundary columns — equals
    the dict path step for step."""

    @pytest.mark.parametrize("rung", ("native", "pure"))
    @pytest.mark.parametrize("kind", sorted(BATCH_SEQUENCES))
    def test_arenas_equal_a_fresh_build_and_the_dict_path(
        self, kind, rung, pure_maintenance, container_oracle
    ):
        if rung == "pure":
            pure_maintenance()
        graph = grid_road_network(9, 9, seed=4)
        index = check_label_maintenance(
            "PostMHL", graph, kind, bandwidth=10, expected_partitions=4
        )
        assert index.td.num_partitions > 1 and index.labels in container_oracle
        for s, t in random_query_pairs(graph, 30, seed=4):
            expected = dijkstra_distance(graph, s, t)
            for stage in index.stage_catalog():
                assert stage.query(s, t) == pytest.approx(expected), (s, t, stage.name)

    @NEEDS_NATIVE
    def test_store_frozen_after_u_stage_3_is_unchanged_by_u_stages_4_and_5(self):
        from repro.kernels.label_store import LabelStore

        graph = grid_road_network(10, 10, seed=3)
        index = build_postmhl(graph, bandwidth=10, ke=4)
        pairs = random_query_pairs(graph, 40, seed=3)
        held = {}

        def listener(timing):
            if timing.name == "overlay_label_update":
                store = LabelStore.freeze(index.labels)
                held.update(
                    store=store, bytes=bytes(store.arena.buffer),
                    answers=store.query_pairs(pairs),
                )

        index.set_stage_listener(listener)
        index.apply_batch(generate_update_batch(graph, volume=20, seed=4))
        store = held["store"]
        assert bytes(store.arena.buffer) == held["bytes"]
        assert store.query_pairs(pairs) == held["answers"]
        # U-Stages 4 and 5 wrote in-partition columns into a copy.
        assert index.labels.arena is not store.arena
        assert bytes(index.labels.arena.buffer) != held["bytes"]
        for s, t in pairs:
            assert index.query(s, t) == pytest.approx(dijkstra_distance(graph, s, t))
