"""Unit and integration tests for the PMHL index (the paper's Section V)."""

import json
import os

import numpy
import pytest

from repro.algorithms.dijkstra import dijkstra_distance
from repro.core.cross_boundary import compose_cross_boundary_contraction
from repro.core.pmhl import PMHLIndex
from repro.core.stages import PMHL_UPDATE_STAGES
from repro.exceptions import IndexNotBuiltError, SnapshotFormatError, VertexNotFoundError
from repro.graph.generators import grid_road_network, highway_network
from repro.graph.updates import generate_update_batch, generate_update_stream
from repro.partitioning.base import Partitioning
from repro.partitioning.natural_cut import natural_cut_partition
from repro.psp.no_boundary import NoBoundaryPSPIndex
from repro.psp.post_boundary import PTDPIndex
from repro.store import load_index, save_index

from tests.conftest import (
    BATCH_SEQUENCES,
    arena_bytes,
    check_label_maintenance,
    check_slot_maintenance,
    inverse,
    label_sets,
    random_query_pairs,
)
from tests.oracles.queries import reference_rung


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


class TestPCHFreezeRace:
    """PCH's store wraps the cross-boundary union, which the maintainer
    gathers before it releases the stage.  A union gathered lazily by the
    first reader let a second reader wrap a copy that a third had not
    gathered into yet: wrong distances from a released stage."""

    def test_interleaved_freezes_wrap_the_gathered_union(self, monkeypatch):
        from repro.treedec import slots

        graph = grid_road_network(10, 10, seed=3)
        index = build_pmhl(graph, k=4, seed=3)
        index._pch_store()  # the epoch-0 store holds the union's arena
        union = index.cross_tree.contraction
        pairs = random_query_pairs(graph, 30, seed=3)
        old_weights = union.arena["weights"].copy()
        seen = {}
        frozen = []

        def freeze():
            store = index._pch_store()
            frozen.append((store.arena["weights"].copy(), [store.query(s, t) for s, t in pairs]))

        # Readers C and B, each run once: C as soon as a freeze copies an
        # arena, B on that copy's first read of its weights.
        script = {"copy": lambda: union.upward(union.order[0]), "read": freeze}

        def fire(event):
            action = script.pop(event, None)
            if action is not None:
                action()

        class Interleaved(slots.Arena):
            def __init__(self, buffer, toc):
                super().__init__(buffer, toc)
                self.first = "copy" in script
                fire("copy")

            def __getitem__(self, name):
                if name == "weights" and self.first:
                    self.first = False
                    fire("read")
                return super().__getitem__(name)

        def on_stage(timing):
            if timing.name != "overlay_shortcut_update":
                return
            seen["expected"] = compose_cross_boundary_contraction(
                index.partitioning, index.order, index.family, index.overlay
            ).arena["weights"].copy()
            seen["distances"] = [dijkstra_distance(graph, s, t) for s, t in pairs]
            with monkeypatch.context() as patch:
                patch.setattr(slots, "Arena", Interleaved)
                freeze()  # reader A
                fire("copy")
                fire("read")

        index.set_stage_listener(on_stage)
        index.apply_batch(generate_update_batch(graph, volume=20, seed=3))
        expected = seen["expected"]
        assert not numpy.array_equal(expected, old_weights)
        assert len(frozen) == 2
        for weights, answers in frozen:
            assert numpy.array_equal(weights, expected)
            assert answers == pytest.approx(seen["distances"])


PARALLEL_STAGES = {
    "partition_shortcut_update",
    "partition_label_update",
    "post_boundary_update",
    "cross_boundary_update",
}


@pytest.mark.parametrize("rung", ["native", "reference"])
@pytest.mark.parametrize("seed", [0, 1])
class TestPMHLAggregatesPSP:
    """PMHL's Q3/Q4 *are* the PSP classes' queries: same bits in every state,
    with the stores and on the reference rung (``tests/oracles/queries``)."""

    def test_stage_queries_equal_psp_indexes(self, seed, rung, tmp_path):
        def on_rung(index):
            return reference_rung(index) if rung == "reference" else index

        base = grid_road_network(9, 9, seed=seed)
        assignment = natural_cut_partition(base, 4, seed=seed).part
        pairs = random_query_pairs(base, 60, seed=seed)

        def build(cls, **kwargs):
            graph = base.copy()
            index = cls(
                graph,
                num_partitions=4,
                partitioning=Partitioning(graph, assignment),
                **kwargs,
            )
            on_rung(index).build()
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
        pmhl = on_rung(load_index(str(tmp_path / "pmhl")))
        post_boundary = on_rung(load_index(str(tmp_path / "ptdp")))
        check()
        apply(seed * 10 + 3, 0.5)
        check()


class TestFlatLabelMaintenance:
    """Every label set of PMHL and P-TD-P (partitions, overlay, extended
    partitions, L*), in C and through the oracles: after every kind of
    batch each arena
    equals a fresh build on the updated graph, and every pass equals the
    dict path step for step."""

    @pytest.mark.parametrize("rung", ("native", "oracle"))
    @pytest.mark.parametrize("kind", sorted(BATCH_SEQUENCES))
    @pytest.mark.parametrize("method", ("PMHL", "P-TD-P"))
    def test_arenas_equal_a_fresh_build_and_the_dict_path(
        self, method, kind, rung, oracle_maintenance, container_oracle
    ):
        if rung == "oracle":
            oracle_maintenance()
        graph = grid_road_network(9, 9, seed=4)
        index = check_label_maintenance(method, graph, kind, num_partitions=4)
        checked = {id(labels) for labels in container_oracle}
        assert {id(labels) for _, labels in label_sets(index)} <= checked
        for s, t in random_query_pairs(graph, 30, seed=4):
            assert index.query(s, t) == pytest.approx(dijkstra_distance(graph, s, t))

    def test_work_counters_match_the_oracles_and_for_a_batch_and_its_inverse(
        self, oracle_maintenance
    ):
        """The benchmark stack's PMHL window (48x48 grid, seed 7, 8
        partitions, a 20-edge batch A then A^-1) counts the same label and
        shortcut work in C and through the oracles, and the same for A as
        for A^-1: both
        directions move the same slots between the same two values."""

        def windows():
            graph = grid_road_network(48, 48, seed=7)
            batch = generate_update_batch(graph.copy(), 20, seed=1)
            index = PMHLIndex(graph, num_partitions=8)
            index.build()
            return [
                (report.vertices_visited, report.columns_recomputed, report.columns_changed,
                 report.shortcut_rows_visited, report.shortcuts_relaxed,
                 report.shortcuts_changed)
                for report in (index.apply_batch(batch), index.apply_batch(inverse(batch)))
            ]

        native = windows()
        oracle_maintenance()
        assert windows() == native
        assert native[0] == native[1]
        assert native[0] == (6320, 561997, 96748, 1163, 542068, 3637)


class TestSlotMaintenance:
    """PMHL's shortcut passes (partitions, overlay, extended partitions) and
    the cross-boundary union gathered from them, in C and through the
    oracle: after every
    kind of batch every contraction, union and label arena equals a fresh
    build's byte for byte."""

    @pytest.mark.parametrize("rung", ("native", "oracle"))
    @pytest.mark.parametrize("kind", sorted(BATCH_SEQUENCES))
    def test_arenas_equal_a_fresh_build(self, kind, rung, oracle_maintenance):
        if rung == "oracle":
            oracle_maintenance()
        graph = grid_road_network(9, 9, seed=4)
        index = check_slot_maintenance("PMHL", graph, kind, num_partitions=4)
        for s, t in random_query_pairs(graph, 20, seed=4):
            assert index.query_pch(s, t) == pytest.approx(dijkstra_distance(graph, s, t))

    def test_old_epoch_stores_survive_two_windows(self):
        """The PCH store (the union's gathered arena), the partition and
        overlay label stores, and a store over every partition and overlay
        contraction, all taken before two windows: each keeps its bytes and
        its answers, while the maintained arenas — L*'s shortcuts read
        through the gather maps after those contractions were copied —
        equal a fresh build's."""
        graph = grid_road_network(10, 10, seed=5)
        index = build_pmhl(graph.copy(), k=4)
        pairs = random_query_pairs(graph, 40, seed=5)
        family, overlay = index.family, index.overlay
        stores = {"pch": index._pch_store(), "overlay": index._overlay_store()}
        for pid in range(family.num_partitions):
            stores[f"partition_{pid}"] = index._family_store(family, pid)
            stores[f"contraction_{pid}"] = family.contractions[pid].store()
        stores["overlay_contraction"] = overlay.contraction.store()
        held = {key: (bytes(store.arena.buffer), store.query_pairs(
            [(s, t) for s, t in pairs if s in store.row and t in store.row]
        )) for key, store in stores.items()}
        for seed in (1, 2):
            batch = generate_update_batch(graph, volume=20, seed=seed)
            index.apply_batch(batch)
            batch.apply(graph)
            assert index._pch_store() is not stores["pch"]
            for s, t in pairs:
                assert index.query_pch(s, t) == pytest.approx(dijkstra_distance(graph, s, t))
        fresh = build_pmhl(graph.copy(), k=4)
        assert arena_bytes(index) == arena_bytes(fresh)
        for key, store in stores.items():
            known = [(s, t) for s, t in pairs if s in store.row and t in store.row]
            assert (bytes(store.arena.buffer), store.query_pairs(known)) == held[key], key

    def test_snapshot_round_trip_after_updates(self, tmp_path):
        """Saved after two batches, the loaded index holds the same arenas,
        and one more batch keeps both byte for byte equal."""
        graph = grid_road_network(9, 9, seed=6)
        index = build_pmhl(graph, k=4)
        for seed in (1, 2):
            index.apply_batch(generate_update_batch(index.graph, volume=12, seed=seed))
        save_index(index, str(tmp_path / "snap"))
        loaded = load_index(str(tmp_path / "snap"))
        assert arena_bytes(loaded) == arena_bytes(index)
        for held in (index, loaded):
            held.apply_batch(generate_update_batch(held.graph, volume=12, seed=3))
        assert arena_bytes(loaded) == arena_bytes(index)
        pairs = random_query_pairs(index.graph, 30, seed=6)
        assert loaded.query_many(pairs) == index.query_many(pairs)
        assert [loaded.query_pch(s, t) for s, t in pairs] == [
            index.query_pch(s, t) for s, t in pairs
        ]

    def test_snapshot_without_slot_contractions_is_refused(self, tmp_path):
        """A snapshot whose contractions are not stored under ``slots`` (the
        layout before every contraction was flat stored them as
        ``contraction`` / ``contractions``) is a typed format error."""
        path = str(tmp_path / "snap")
        save_index(build_pmhl(grid_road_network(6, 6, seed=1), k=2), path)
        state_path = os.path.join(path, "state.json")
        with open(state_path) as handle:
            text = handle.read()
        with open(state_path, "w") as handle:
            handle.write(json.dumps(json.loads(text.replace('"slots"', '"contractions"'))))
        with pytest.raises(SnapshotFormatError):
            load_index(path)
