"""Tests for graph I/O, synthetic generators, update batches and validation."""

import pytest

from repro.exceptions import DisconnectedGraphError, GraphError
from repro.graph.generators import (
    DATASET_SPECS,
    dataset_names,
    grid_road_network,
    highway_network,
    load_dataset,
    random_connected_graph,
)
from repro.graph.graph import Graph
from repro.graph.io import (
    read_dimacs_co,
    read_dimacs_gr,
    read_edge_list,
    write_dimacs_co,
    write_dimacs_gr,
    write_edge_list,
)
from repro.graph.updates import (
    EdgeUpdate,
    UpdateBatch,
    generate_update_batch,
    generate_update_stream,
    split_intra_inter,
)
from repro.graph.validation import assert_valid, graph_stats, validate_graph
from repro.partitioning.natural_cut import natural_cut_partition


class TestGenerators:
    def test_grid_network_is_connected_and_planarish(self):
        graph = grid_road_network(10, 12, seed=1)
        assert graph.num_vertices == 120
        assert graph.is_connected()
        assert graph.has_coordinates()
        stats = graph_stats(graph)
        assert 1.5 <= stats.avg_degree <= 4.5

    def test_grid_network_deterministic(self):
        a = grid_road_network(6, 6, seed=3)
        b = grid_road_network(6, 6, seed=3)
        assert sorted(a.edges()) == sorted(b.edges())
        c = grid_road_network(6, 6, seed=4)
        assert sorted(a.edges()) != sorted(c.edges())

    def test_grid_invalid_dimensions(self):
        with pytest.raises(GraphError):
            grid_road_network(0, 5)

    def test_random_connected_graph(self):
        graph = random_connected_graph(30, 20, seed=2)
        assert graph.num_vertices == 30
        assert graph.is_connected()
        with pytest.raises(GraphError):
            random_connected_graph(0, 5)

    def test_highway_network_structure(self):
        graph = highway_network(clusters=3, cluster_size=16, seed=5)
        assert graph.is_connected()
        assert graph.num_vertices >= 3 * 16
        with pytest.raises(GraphError):
            highway_network(clusters=0, cluster_size=4)

    def test_dataset_specs_and_loading(self):
        assert dataset_names() == ["NY", "GD", "FLA", "SC", "EC", "W", "CTR", "USA"]
        assert dataset_names(small_only=True) == ["NY", "GD", "FLA", "SC"]
        sizes = [DATASET_SPECS[name].num_vertices for name in dataset_names()]
        assert sizes == sorted(sizes)
        ny = load_dataset("ny")
        assert ny.num_vertices == DATASET_SPECS["NY"].num_vertices
        with pytest.raises(GraphError):
            load_dataset("MARS")


class TestDimacsIO:
    def test_gr_roundtrip(self, tmp_path):
        graph = grid_road_network(5, 5, seed=1)
        path = tmp_path / "net.gr"
        write_dimacs_gr(graph, path, comment="test network")
        loaded = read_dimacs_gr(path)
        assert loaded.num_vertices == graph.num_vertices
        assert sorted(loaded.edges()) == pytest.approx(sorted(graph.edges()))

    def test_gzip_roundtrip(self, tmp_path):
        graph = grid_road_network(4, 4, seed=2)
        path = tmp_path / "net.gr.gz"
        write_dimacs_gr(graph, path)
        loaded = read_dimacs_gr(path)
        assert loaded.num_edges == graph.num_edges

    def test_co_roundtrip(self, tmp_path):
        graph = grid_road_network(4, 4, seed=3)
        gr, co = tmp_path / "net.gr", tmp_path / "net.co"
        write_dimacs_gr(graph, gr)
        write_dimacs_co(graph, co)
        loaded = read_dimacs_gr(gr)
        read_dimacs_co(co, loaded)
        assert loaded.coordinate(0) == graph.coordinate(0)

    def test_malformed_gr_rejected(self, tmp_path):
        path = tmp_path / "bad.gr"
        path.write_text("p sp 2 2\na 1 2\n")
        with pytest.raises(GraphError):
            read_dimacs_gr(path)
        path.write_text("a 1 2 5\n")
        with pytest.raises(GraphError):
            read_dimacs_gr(path)

    def test_edge_list_roundtrip(self, tmp_path):
        graph = grid_road_network(4, 4, seed=4)
        path = tmp_path / "net.edges"
        write_edge_list(graph, path)
        loaded = read_edge_list(path)
        assert sorted(loaded.edges()) == pytest.approx(sorted(graph.edges()))

    def test_malformed_edge_list(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("1 2\n")
        with pytest.raises(GraphError):
            read_edge_list(path)


class TestUpdateBatches:
    def test_generate_batch_respects_volume_and_factors(self):
        graph = grid_road_network(6, 6, seed=5)
        before = {(u, v): w for u, v, w in graph.edges()}
        batch = generate_update_batch(graph, volume=10, seed=5)
        assert len(batch) == 10
        keys = {u.key() for u in batch}
        assert len(keys) == 10
        for update in batch:
            assert update.old_weight == before[update.key()]
            assert update.new_weight in (
                pytest.approx(update.old_weight * 0.5),
                pytest.approx(update.old_weight * 2.0),
            )

    def test_volume_bounds(self):
        graph = grid_road_network(3, 3, seed=0)
        with pytest.raises(GraphError):
            generate_update_batch(graph, volume=-1)
        with pytest.raises(GraphError):
            generate_update_batch(graph, volume=graph.num_edges + 1)

    def test_apply_and_revert(self):
        graph = grid_road_network(5, 5, seed=6)
        snapshot = sorted(graph.edges())
        batch = generate_update_batch(graph, volume=8, seed=6)
        batch.apply(graph)
        assert sorted(graph.edges()) != snapshot
        batch.revert(graph)
        assert sorted(graph.edges()) == pytest.approx(snapshot)

    def test_increase_decrease_views(self):
        graph = grid_road_network(5, 5, seed=7)
        batch = generate_update_batch(graph, volume=10, seed=7)
        assert len(batch.increases) + len(batch.decreases) == len(batch)

    def test_update_stream_tracks_evolution(self):
        graph = grid_road_network(5, 5, seed=8)
        stream = generate_update_stream(graph, num_batches=3, volume=5, seed=8)
        assert len(stream) == 3
        # The original graph is untouched by stream generation.
        evolved = graph.copy()
        for batch in stream:
            for update in batch:
                assert update.old_weight == pytest.approx(
                    evolved.edge_weight(update.u, update.v)
                )
            batch.apply(evolved)

    def test_split_intra_inter(self):
        graph = grid_road_network(6, 6, seed=9)
        partitioning = natural_cut_partition(graph, 4, seed=9)
        batch = generate_update_batch(graph, volume=12, seed=9)
        intra, inter = split_intra_inter(batch, partitioning.vertex_partition)
        assert len(intra) + len(inter) == len(batch)
        for update in intra:
            assert partitioning.partition_of(update.u) == partitioning.partition_of(update.v)
        for update in inter:
            assert partitioning.partition_of(update.u) != partitioning.partition_of(update.v)

    def test_apply_missing_edge_raises(self):
        graph = Graph(3)
        graph.add_edge(0, 1, 1.0)
        batch = UpdateBatch([EdgeUpdate(1, 2, 1.0, 2.0)])
        from repro.exceptions import EdgeNotFoundError

        with pytest.raises(EdgeNotFoundError):
            batch.apply(graph)

    @pytest.mark.parametrize("bad", [(1, 2, 5.0), (0, 1, 0.0), (0, 1, float("nan"))])
    def test_rejected_batch_writes_nothing(self, bad):
        from repro.exceptions import GraphError

        graph = Graph(3)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(0, 2, 4.0)
        version = graph.version
        u, v, weight = bad
        batch = UpdateBatch([EdgeUpdate(0, 2, 4.0, 2.0), EdgeUpdate(u, v, 1.0, weight)])
        with pytest.raises(GraphError):
            batch.apply(graph)
        assert graph.edge_weight(0, 2) == 4.0
        assert graph.version == version


class TestValidation:
    def test_stats(self):
        graph = grid_road_network(4, 4, seed=0)
        stats = graph_stats(graph)
        assert stats.num_vertices == 16
        assert stats.is_connected
        assert stats.min_weight > 0

    def test_validate_connected_graph(self):
        graph = grid_road_network(4, 4, seed=0)
        assert validate_graph(graph) == []
        assert_valid(graph)

    def test_disconnected_rejected(self):
        graph = Graph()
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(2, 3, 1.0)
        with pytest.raises(DisconnectedGraphError):
            validate_graph(graph)
        assert validate_graph(graph, require_connected=False) == []

    def test_isolated_vertices_reported(self):
        graph = Graph(3)
        graph.add_edge(0, 1, 1.0)
        problems = validate_graph(graph, require_connected=False)
        assert any("isolated" in p for p in problems)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            validate_graph(Graph())
