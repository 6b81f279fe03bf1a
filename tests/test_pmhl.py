"""Unit and integration tests for the PMHL index (the paper's Section V)."""

import pytest

from repro.algorithms.dijkstra import dijkstra_distance
from repro.core.pmhl import PMHLIndex
from repro.core.stages import PMHL_UPDATE_STAGES
from repro.exceptions import IndexNotBuiltError, VertexNotFoundError
from repro.graph.generators import grid_road_network, highway_network
from repro.graph.updates import generate_update_batch, generate_update_stream
from repro.partitioning.base import Partitioning
from repro.partitioning.natural_cut import natural_cut_partition
from repro.psp.no_boundary import NoBoundaryPSPIndex
from repro.psp.post_boundary import PTDPIndex
from repro.store import load_index, save_index

from tests.conftest import (
    BATCH_SEQUENCES,
    check_label_maintenance,
    inverse,
    label_sets,
    random_query_pairs,
)


def build_pmhl(graph, k=4, seed=0):
    index = PMHLIndex(graph, num_partitions=k, seed=seed)
    index.build()
    return index


class TestPMHLConstruction:
    def test_not_built_raises(self):
        graph = grid_road_network(5, 5, seed=0)
        with pytest.raises(IndexNotBuiltError):
            PMHLIndex(graph).query(0, 1)

    def test_unknown_vertex(self):
        graph = grid_road_network(5, 5, seed=0)
        index = build_pmhl(graph)
        with pytest.raises(VertexNotFoundError):
            index.query(0, 999)

    def test_build_breakdown_and_size(self):
        graph = grid_road_network(6, 6, seed=1)
        index = build_pmhl(graph)
        assert set(index.build_breakdown) == {
            "partitioning_and_ordering",
            "no_boundary",
            "post_boundary",
            "cross_boundary",
        }
        assert index.index_size() > 0
        assert index.build_seconds > 0.0

    def test_stage_catalog_order(self):
        graph = grid_road_network(5, 5, seed=2)
        index = build_pmhl(graph)
        catalog = index.stage_catalog()
        assert [stage.name for stage in catalog] == [
            "BIDIJKSTRA", "PCH", "NO_BOUNDARY", "POST_BOUNDARY", "CROSS_BOUNDARY"
        ]


class TestPMHLQueryStages:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_stages_match_dijkstra(self, seed):
        graph = grid_road_network(8, 8, seed=seed)
        index = build_pmhl(graph, k=4, seed=seed)
        pairs = random_query_pairs(graph, 30, seed=seed)
        for s, t in pairs:
            expected = dijkstra_distance(graph, s, t)
            for stage in index.stage_catalog():
                assert stage.query(s, t) == pytest.approx(expected), (s, t, stage.name)

    def test_highway_network_cross_partition_queries(self):
        graph = highway_network(clusters=4, cluster_size=20, seed=3)
        index = build_pmhl(graph, k=4, seed=3)
        pairs = random_query_pairs(graph, 30, seed=3)
        for s, t in pairs:
            assert index.query(s, t) == pytest.approx(dijkstra_distance(graph, s, t))

    def test_same_partition_queries_each_stage(self):
        graph = grid_road_network(8, 8, seed=4)
        index = build_pmhl(graph, k=4, seed=4)
        partitioning = index.partitioning
        for pid in range(partitioning.num_partitions):
            members = partitioning.partition_vertices(pid)
            for s in members[:3]:
                for t in members[-3:]:
                    expected = dijkstra_distance(graph, s, t)
                    for stage in index.stage_catalog():
                        assert stage.query(s, t) == pytest.approx(expected)


class TestPMHLMaintenance:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_stages_correct_after_batch(self, seed):
        graph = grid_road_network(7, 7, seed=seed)
        index = build_pmhl(graph, k=4, seed=seed)
        batch = generate_update_batch(graph, volume=12, seed=seed)
        report = index.apply_batch(batch)
        assert [s.name for s in report.stages] == list(PMHL_UPDATE_STAGES)
        for s, t in random_query_pairs(graph, 25, seed=seed):
            expected = dijkstra_distance(graph, s, t)
            for stage in index.stage_catalog():
                assert stage.query(s, t) == pytest.approx(expected), (s, t, stage.name)

    def test_update_stream_stays_correct(self):
        graph = grid_road_network(6, 6, seed=5)
        index = build_pmhl(graph, k=4, seed=5)
        for batch in generate_update_stream(graph, num_batches=3, volume=8, seed=5):
            index.apply_batch(batch)
            for s, t in random_query_pairs(graph, 15, seed=5):
                expected = dijkstra_distance(graph, s, t)
                assert index.query_cross_boundary(s, t) == pytest.approx(expected)
                assert index.query_post_boundary(s, t) == pytest.approx(expected)

    def test_decrease_only_batch(self):
        graph = grid_road_network(6, 6, seed=6)
        index = build_pmhl(graph, k=4, seed=6)
        batch = generate_update_batch(graph, volume=10, seed=6, decrease_fraction=1.0)
        index.apply_batch(batch)
        for s, t in random_query_pairs(graph, 20, seed=6):
            assert index.query(s, t) == pytest.approx(dijkstra_distance(graph, s, t))

    def test_increase_only_batch(self):
        graph = grid_road_network(6, 6, seed=7)
        index = build_pmhl(graph, k=4, seed=7)
        batch = generate_update_batch(graph, volume=10, seed=7, decrease_fraction=0.0)
        index.apply_batch(batch)
        for s, t in random_query_pairs(graph, 20, seed=7):
            assert index.query(s, t) == pytest.approx(dijkstra_distance(graph, s, t))

    def test_parallel_times_recorded(self):
        graph = grid_road_network(7, 7, seed=8)
        index = build_pmhl(graph, k=4, seed=8)
        report = index.apply_batch(generate_update_batch(graph, volume=10, seed=8))
        by_name = {s.name: s for s in report.stages}
        assert by_name["partition_shortcut_update"].parallel_times is not None
        assert by_name["post_boundary_update"].parallel_times is not None
        assert by_name["cross_boundary_update"].parallel_times is not None


PARALLEL_STAGES = {
    "partition_shortcut_update",
    "partition_label_update",
    "post_boundary_update",
    "cross_boundary_update",
}


@pytest.mark.parametrize("use_kernels", [True, False])
@pytest.mark.parametrize("seed", [0, 1])
class TestPMHLAggregatesPSP:
    """PMHL's Q3/Q4 *are* the PSP classes' queries: same bits in every state."""

    def test_stage_queries_equal_psp_indexes(self, seed, use_kernels, tmp_path):
        base = grid_road_network(9, 9, seed=seed)
        assignment = natural_cut_partition(base, 4, seed=seed).vertex_partition
        pairs = random_query_pairs(base, 60, seed=seed)

        def build(cls, **kwargs):
            graph = base.copy()
            index = cls(
                graph,
                num_partitions=4,
                partitioning=Partitioning(graph, dict(assignment)),
                **kwargs,
            )
            index.use_kernels = use_kernels
            index.build()
            return index

        pmhl = build(PMHLIndex)
        no_boundary = build(NoBoundaryPSPIndex, underlying="h2h")
        post_boundary = build(PTDPIndex)

        def check():
            q3 = [pmhl.query_no_boundary(s, t) for s, t in pairs]
            q4 = [pmhl.query_post_boundary(s, t) for s, t in pairs]
            expected = [dijkstra_distance(pmhl.graph, s, t) for s, t in pairs]
            assert q3 == pytest.approx(expected)
            assert q4 == pytest.approx(expected)
            assert [d.hex() for d in q3] == [
                no_boundary.query(s, t).hex() for s, t in pairs
            ]
            assert [d.hex() for d in q4] == [
                post_boundary.query(s, t).hex() for s, t in pairs
            ]

        def apply(batch_seed, decrease_fraction):
            for index in (pmhl, no_boundary, post_boundary):
                # Same seed on equal graphs -> the same batch for every index.
                batch = generate_update_batch(
                    index.graph, volume=10, seed=batch_seed,
                    decrease_fraction=decrease_fraction,
                )
                report = index.apply_batch(batch)
                if index is pmhl:
                    assert [s.name for s in report.stages] == list(PMHL_UPDATE_STAGES)
                    assert {
                        s.name for s in report.stages if s.parallel_times is not None
                    } == PARALLEL_STAGES

        check()
        for i, decrease_fraction in enumerate((0.0, 1.0, 0.5)):
            apply(seed * 10 + i, decrease_fraction)
        check()

        # Snapshot round trip (N-PSP has no registry spec; it stays live).
        save_index(pmhl, str(tmp_path / "pmhl"))
        save_index(post_boundary, str(tmp_path / "ptdp"))
        pmhl = load_index(str(tmp_path / "pmhl"), use_kernels=use_kernels)
        post_boundary = load_index(str(tmp_path / "ptdp"), use_kernels=use_kernels)
        check()
        apply(seed * 10 + 3, 0.5)
        check()


class TestFlatLabelMaintenance:
    """Every label set of PMHL and P-TD-P (partitions, overlay, extended
    partitions, L*) on both rungs: after every kind of batch each arena
    equals a fresh build on the updated graph, and every pass equals the
    dict path step for step."""

    @pytest.mark.parametrize("rung", ("native", "pure"))
    @pytest.mark.parametrize("kind", sorted(BATCH_SEQUENCES))
    @pytest.mark.parametrize("method", ("PMHL", "P-TD-P"))
    def test_arenas_equal_a_fresh_build_and_the_dict_path(
        self, method, kind, rung, pure_maintenance, container_oracle
    ):
        if rung == "pure":
            pure_maintenance()
        graph = grid_road_network(9, 9, seed=4)
        index = check_label_maintenance(method, graph, kind, num_partitions=4)
        checked = {id(labels) for labels in container_oracle}
        assert {id(labels) for _, labels in label_sets(index)} <= checked
        for s, t in random_query_pairs(graph, 30, seed=4):
            assert index.query(s, t) == pytest.approx(dijkstra_distance(graph, s, t))

    def test_work_counters_match_on_both_rungs_and_for_a_batch_and_its_inverse(
        self, pure_maintenance
    ):
        """The benchmark stack's PMHL window (48x48 grid, seed 7, 8
        partitions, a 20-edge batch A then A^-1) counts the same label work
        on both rungs, and the same for A as for A^-1."""

        def windows():
            graph = grid_road_network(48, 48, seed=7)
            batch = generate_update_batch(graph.copy(), 20, seed=1)
            index = PMHLIndex(graph, num_partitions=8)
            index.build()
            return [
                (report.vertices_visited, report.columns_recomputed, report.columns_changed)
                for report in (index.apply_batch(batch), index.apply_batch(inverse(batch)))
            ]

        native = windows()
        pure_maintenance()
        assert windows() == native
        assert native[0] == native[1]
        assert native[0][:2] == (6320, 561997)
