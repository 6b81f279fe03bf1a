"""Unit tests for H2H, DH2H and MHL."""

import pytest

from repro.algorithms.dijkstra import dijkstra_distance
from repro.exceptions import IndexNotBuiltError
from repro.graph.generators import grid_road_network, random_connected_graph
from repro.graph.updates import UpdateBatch, generate_update_batch, generate_update_stream
from repro.labeling.h2h import DH2HIndex, H2HIndex
from repro.labeling.mhl import MHLIndex

from tests.conftest import float_bits, paper_example_graph, random_query_pairs


def assert_matches_dijkstra(query_fn, graph, pairs):
    for s, t in pairs:
        assert query_fn(s, t) == pytest.approx(dijkstra_distance(graph, s, t)), (s, t)


class TestH2HConstruction:
    def test_not_built_raises(self):
        index = H2HIndex(paper_example_graph())
        with pytest.raises(IndexNotBuiltError):
            index.query(0, 1)

    def test_example_graph_all_pairs(self):
        graph = paper_example_graph()
        index = H2HIndex(graph)
        index.build()
        pairs = [(s, t) for s in graph.vertices() for t in graph.vertices()]
        assert_matches_dijkstra(index.query, graph, pairs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grid_correct(self, seed):
        graph = grid_road_network(7, 7, seed=seed)
        index = H2HIndex(graph)
        index.build()
        assert_matches_dijkstra(index.query, graph, random_query_pairs(graph, 40, seed=seed))

    def test_random_graph_correct(self):
        graph = random_connected_graph(50, 60, seed=13)
        index = H2HIndex(graph)
        index.build()
        assert_matches_dijkstra(index.query, graph, random_query_pairs(graph, 40, seed=13))

    def test_label_invariants(self):
        graph = grid_road_network(6, 6, seed=3)
        index = H2HIndex(graph)
        index.build()
        labels = index.labels
        tree = index.tree
        for v in tree.top_down_order():
            assert len(labels.dis[v]) == tree.depth[v] + 1
            assert labels.dis[v][-1] == 0.0
            # Distance entries are true shortest distances to ancestors.
            for j, ancestor in enumerate(tree.ancestors[v]):
                assert labels.dis[v][j] == pytest.approx(
                    dijkstra_distance(graph, v, ancestor)
                )

    def test_index_size_and_metadata(self):
        graph = grid_road_network(5, 5, seed=0)
        index = H2HIndex(graph)
        index.build()
        assert index.index_size() > 0
        assert index.tree_height >= 1
        assert index.treewidth >= 1

    def test_static_h2h_rejects_updates(self):
        graph = grid_road_network(4, 4, seed=0)
        index = H2HIndex(graph)
        index.build()
        with pytest.raises(NotImplementedError):
            index.apply_batch(generate_update_batch(graph, volume=2, seed=0))


class TestDH2HMaintenance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_queries_correct_after_batch(self, seed):
        graph = grid_road_network(7, 7, seed=seed)
        index = DH2HIndex(graph)
        index.build()
        batch = generate_update_batch(graph, volume=15, seed=seed)
        report = index.apply_batch(batch)
        assert [s.name for s in report.stages] == [
            "edge_update",
            "shortcut_update",
            "label_update",
        ]
        assert_matches_dijkstra(index.query, graph, random_query_pairs(graph, 40, seed=seed))

    def test_update_stream_stays_correct(self):
        graph = grid_road_network(6, 6, seed=8)
        index = DH2HIndex(graph)
        index.build()
        for batch in generate_update_stream(graph, num_batches=4, volume=8, seed=8):
            index.apply_batch(batch)
            assert_matches_dijkstra(index.query, graph, random_query_pairs(graph, 20, seed=8))

    def test_labels_match_rebuild_after_update(self):
        graph = grid_road_network(6, 6, seed=9)
        index = DH2HIndex(graph)
        index.build()
        order = list(index.contraction.order)
        batch = generate_update_batch(graph, volume=10, seed=9)
        index.apply_batch(batch)

        rebuilt = H2HIndex(graph, order=order)
        rebuilt.build()
        for v in order:
            assert index.labels.dis[v] == pytest.approx(rebuilt.labels.dis[v])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_native_and_pure_rungs_agree_bit_for_bit(self, seed, pure_maintenance):
        """Build plus mixed increase / decrease batches through the native
        maintenance kernels and through the pure loops they port: same label
        and shortcut bits, same positions, same changed sets."""

        def maintain():
            graph = grid_road_network(9, 9, seed=seed)
            index = DH2HIndex(graph)
            index.build()
            changed = []
            for step in range(3):
                index.apply_batch(
                    generate_update_batch(graph, volume=12, seed=10 * seed + step)
                )
                changed.append((index.last_changed_shortcuts, index.last_changed_labels))
            contraction = index.contraction
            return (
                {v: float_bits(row) for v, row in index.labels.dis.items()},
                dict(index.labels.pos),
                {
                    v: float_bits(contraction.shortcuts[v][u] for u in contraction.neighbors[v])
                    for v in contraction.order
                },
                changed,
            )

        native = maintain()
        pure_maintenance()
        assert maintain() == native
        assert all(labels for _, labels in native[3])

    def test_empty_batch(self):
        graph = grid_road_network(5, 5, seed=1)
        index = DH2HIndex(graph)
        index.build()
        report = index.apply_batch(UpdateBatch([]))
        assert report.total_seconds >= 0.0
        assert index.last_changed_labels == set()


class TestMHL:
    def test_all_stages_agree_with_dijkstra(self):
        graph = grid_road_network(6, 6, seed=12)
        index = MHLIndex(graph)
        index.build()
        pairs = random_query_pairs(graph, 25, seed=12)
        assert_matches_dijkstra(index.query_bidijkstra, graph, pairs)
        assert_matches_dijkstra(index.query_ch, graph, pairs)
        assert_matches_dijkstra(index.query_h2h, graph, pairs)

    def test_stage_dispatch(self):
        graph = grid_road_network(5, 5, seed=2)
        index = MHLIndex(graph)
        index.build()
        for stage in index.stage_catalog():
            assert stage.query(0, 24) == pytest.approx(dijkstra_distance(graph, 0, 24))

    def test_stages_after_update(self):
        graph = grid_road_network(6, 6, seed=14)
        index = MHLIndex(graph)
        index.build()
        batch = generate_update_batch(graph, volume=12, seed=14)
        index.apply_batch(batch)
        pairs = random_query_pairs(graph, 25, seed=14)
        for stage in index.stage_catalog():
            for s, t in pairs:
                assert stage.query(s, t) == pytest.approx(dijkstra_distance(graph, s, t))

    def test_stage_catalog_structure(self):
        graph = grid_road_network(4, 4, seed=0)
        index = MHLIndex(graph)
        index.build()
        catalog = index.stage_catalog()
        assert [stage.released_after for stage in catalog] == [
            "edge_update",
            "shortcut_update",
            "label_update",
        ]
        assert [stage.name for stage in catalog] == ["BIDIJKSTRA", "CH", "H2H"]
        assert [stage.query for stage in catalog] == [
            index.query_bidijkstra, index.query_ch, index.query_h2h
        ]
