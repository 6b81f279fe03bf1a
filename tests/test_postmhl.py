"""Unit and integration tests for the PostMHL index (the paper's Section VI)."""

import json
import math
import os

import pytest

from repro.algorithms.dijkstra import dijkstra_distance
from repro.core.postmhl import PostMHLIndex
from repro.core.stages import POSTMHL_UPDATE_STAGES
from repro.exceptions import IndexNotBuiltError, SnapshotVersionError, VertexNotFoundError
from repro.graph.generators import grid_road_network, highway_network
from repro.graph.updates import EdgeUpdate, UpdateBatch, generate_update_batch, generate_update_stream
from repro.store import load_index, save_index

from tests.conftest import (
    BATCH_SEQUENCES,
    check_label_maintenance,
    check_slot_maintenance,
    container_label_pass,
    float_bits,
    label_rows,
    random_query_pairs,
)

INF = math.inf


def build_postmhl(graph, bandwidth=12, ke=4):
    index = PostMHLIndex(graph, bandwidth=bandwidth, expected_partitions=ke)
    index.build()
    return index


def root_depth(index, pid):
    return int(index.tree.depth[index.tree.row[index.td.roots[pid]]])


class ReferencePostBoundary:
    """The dict-of-lists post-boundary index the ``disB`` matrices replaced,
    kept as their oracle: ``disB[v]`` lists, a position dict per partition,
    U-Stage 4 as the per-entry loop over a dict copy of the label rows
    (``rows``, :func:`label_rows`), and the four POST_BOUNDARY query kinds
    over them.  It shares with the index only the tree, the contraction's
    shortcuts, the boundary tables and the label positions."""

    def __init__(self, index):
        self.index = index
        tree, td = index.tree, index.td
        self.rows = label_rows(index.labels)
        self.position = [{b: j for j, b in enumerate(boundary)} for boundary in td.boundary]
        self.disB = {}
        for pid, boundary in enumerate(td.boundary):
            columns = [int(tree.depth[tree.row[b]]) for b in boundary]
            for v in td.partition_vertices[pid]:
                self.disB[v] = [self.rows[v][c] for c in columns]

    def update_partition(self, pid):
        """U-Stage 4 on one partition: a preorder walk carrying the
        in-partition part of ``X(v).A`` (``path[j - root_depth]`` is ``v``'s
        ancestor at depth ``j``)."""
        index = self.index
        tree, td, rows = index.tree, index.td, self.rows
        boundary, position = td.boundary[pid], self.position[pid]
        distances = index.boundary_distances[pid].tolist()
        overlay = td.overlay_vertices
        depth, row_of = tree.depth.tolist(), tree.row
        top = root_depth(index, pid)
        path = []
        for v in tree.subtree(td.roots[pid]):
            neighbors = tree.neighbors(v)
            columns = [depth[row_of[x]] for x in neighbors]
            depth_v = depth[row_of[v]]
            del path[depth_v - top :]
            path.append(v)
            sc = index.contraction.upward(v)
            new_disB = []
            for j in range(len(boundary)):
                best = INF
                for x in neighbors:
                    d = distances[position[x]][j] if x in overlay else self.disB[x][j]
                    if sc[x] + d < best:
                        best = sc[x] + d
                new_disB.append(best)
            self.disB[v] = new_disB
            dis_v = rows[v]
            for j in range(top, depth_v):
                ancestor = path[j - top]
                best = INF
                for x, px in zip(neighbors, columns):
                    if x in overlay:
                        d = self.disB[ancestor][position[x]]
                    elif px > j:
                        d = rows[x][j]
                    else:
                        d = rows[ancestor][px]
                    if sc[x] + d < best:
                        best = sc[x] + d
                dis_v[j] = best
            dis_v[depth_v] = 0.0

    def two_hop(self, source, target):
        tree = self.index.tree
        if source == target:
            return 0.0
        if not tree.same_component(source, target):
            return INF
        hubs = self.index.labels.pos(tree.lca(source, target)).tolist()
        return min(self.rows[source][i] + self.rows[target][i] for i in hubs)

    def query(self, source, target):
        """POST_BOUNDARY: overlay pairs by the 2-hop query, the rest through
        the boundary arrays."""
        td = self.index.td
        if source == target:
            return 0.0
        pid_s, pid_t = td.partition_of(source), td.partition_of(target)
        if pid_s is None and pid_t is None:
            return self.two_hop(source, target)
        if pid_s is not None and pid_s == pid_t:
            return self.same_partition(pid_s, source, target)
        if pid_s is None:
            return self.overlay_to_partition(source, pid_t, target)
        if pid_t is None:
            return self.overlay_to_partition(target, pid_s, source)
        return self.cross_partition(pid_s, source, pid_t, target)

    def same_partition(self, pid, source, target):
        tree = self.index.tree
        lca = tree.lca(source, target)
        columns = self.index.labels.pos(lca).tolist()
        overlay, position = self.index.td.overlay_vertices, self.position[pid]
        dis_s, dis_t = self.rows[source], self.rows[target]
        best = dis_s[columns[-1]] + dis_t[columns[-1]]
        for x, column in zip(tree.neighbors(lca), columns):
            if x in overlay:
                candidate = self.disB[source][position[x]] + self.disB[target][position[x]]
            else:
                candidate = dis_s[column] + dis_t[column]
            best = min(best, candidate)
        return best

    def overlay_to_partition(self, overlay_vertex, pid, inner):
        best = INF
        for j, b in enumerate(self.index.td.boundary[pid]):
            best = min(best, self.two_hop(overlay_vertex, b) + self.disB[inner][j])
        return best

    def cross_partition(self, pid_s, source, pid_t, target):
        best = INF
        td = self.index.td
        for i, bp in enumerate(td.boundary[pid_s]):
            for j, bq in enumerate(td.boundary[pid_t]):
                candidate = self.disB[source][i] + self.two_hop(bp, bq) + self.disB[target][j]
                best = min(best, candidate)
        return best


def query_kind(td, source, target):
    pid_s, pid_t = td.partition_of(source), td.partition_of(target)
    if pid_s is None and pid_t is None:
        return "overlay"
    if pid_s is None or pid_t is None:
        return "overlay-partition"
    return "same" if pid_s == pid_t else "cross"


def post_boundary_pairs(index):
    """Pairs over a few overlay vertices and a few members of every
    partition: every POST_BOUNDARY query kind, both orders."""
    td = index.td
    sample = sorted(td.overlay_vertices)[:3]
    for members in td.partition_vertices:
        sample += members[:: max(1, len(members) // 3)][:3]
    return [(s, t) for s in sample for t in sample if s != t]


def disB_bits(index):
    """``{v: bits of X(v).disB}`` of every in-partition vertex."""
    td = index.td
    return {
        v: float_bits(row)
        for pid, members in enumerate(td.partition_vertices)
        for v, row in zip(members, index.disB[pid].tolist())
    }


def post_boundary_entries(index, rows):
    """Each row's entries that POST_BOUNDARY may read: an overlay row whole,
    an in-partition row from its partition root's depth on."""
    td = index.td
    return {
        v: float_bits(row[0 if pid is None else root_depth(index, pid) :])
        for v, row in rows.items()
        for pid in (td.partition_of(v),)
    }


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
            assert index.disB[pid].shape == (
                len(index.td.partition_vertices[pid]), len(boundary)
            )
            for i, v in enumerate(index.td.partition_vertices[pid][:5]):
                for j, b in enumerate(boundary):
                    assert index.disB[pid][i, j] == pytest.approx(
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
            for i, v in enumerate(index.td.partition_vertices[pid][:4]):
                for j, b in enumerate(boundary):
                    assert index.disB[pid][i, j] == pytest.approx(
                        dijkstra_distance(graph, v, b)
                    )

    def test_u_stage_4_work_joins_the_report(self):
        """A batch that changes one partition's interior counts at least
        that partition's rows in the label passes of
        ``post_boundary_update`` (U-Stage 4 relabels every row of an
        affected partition), and the report carries them."""
        graph = grid_road_network(10, 10, seed=3)
        index = build_postmhl(graph, bandwidth=10, ke=4)
        td = index.td
        members = set(td.partition_vertices[0])
        u, v, w = next(
            (u, v, w) for u, v, w in graph.edges() if u in members and v in members
        )
        work = {}
        index.set_stage_listener(lambda timing: work.update({timing.name: index.labels.work.copy()}))
        report = index.apply_batch(UpdateBatch([EdgeUpdate(u, v, w, w / 1000)]))
        post = work["post_boundary_update"] - work["overlay_label_update"]
        assert post[0] >= len(members) and post[1] > 0
        assert report.vertices_visited >= post[0] + len(members)
        assert report.columns_recomputed >= post[1]


class TestFlatLabelMaintenance:
    """PostMHL's one amalgamated label arena, in C and through the oracles:
    after every kind of batch it equals a fresh build on the updated graph, and every pass —
    U-Stage 3's overlay rows, U-Stage 4's in-partition columns from the
    partition root's depth on (over the boundary columns it filled from
    ``disB``), U-Stage 5's cross-boundary columns — equals the dict path
    step for step."""

    @pytest.mark.parametrize("rung", ("native", "oracle"))
    @pytest.mark.parametrize("kind", sorted(BATCH_SEQUENCES))
    def test_arenas_equal_a_fresh_build_and_the_dict_path(
        self, kind, rung, oracle_maintenance, container_oracle
    ):
        if rung == "oracle":
            oracle_maintenance()
        graph = grid_road_network(9, 9, seed=4)
        index = check_label_maintenance(
            "PostMHL", graph, kind, bandwidth=10, expected_partitions=4
        )
        assert index.td.num_partitions > 1 and index.labels in container_oracle
        for s, t in random_query_pairs(graph, 30, seed=4):
            expected = dijkstra_distance(graph, s, t)
            for stage in index.stage_catalog():
                assert stage.query(s, t) == pytest.approx(expected), (s, t, stage.name)

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


class TestSlotMaintenance:
    """PostMHL's one contraction, maintained by per-partition passes confined
    to their rows and an overlay pass seeded by what escaped them, in C and
    through the oracle: after every kind of batch its arena, graph weights and labels
    equal a fresh build's byte for byte."""

    @pytest.mark.parametrize("rung", ("native", "oracle"))
    @pytest.mark.parametrize("kind", sorted(BATCH_SEQUENCES))
    def test_arenas_equal_a_fresh_build(self, kind, rung, oracle_maintenance):
        if rung == "oracle":
            oracle_maintenance()
        graph = grid_road_network(9, 9, seed=4)
        index = check_slot_maintenance(
            "PostMHL", graph, kind, bandwidth=10, expected_partitions=4
        )
        for s, t in random_query_pairs(graph, 20, seed=4):
            assert index.query_pch(s, t) == pytest.approx(dijkstra_distance(graph, s, t))

    @pytest.mark.parametrize("rung", ("native", "oracle"))
    def test_restricted_passes_equal_one_unrestricted_pass(
        self, rung, oracle_maintenance, monkeypatch
    ):
        """U-Stage 2's per-partition passes plus the overlay pass their
        escaped rows seed leave the same weights as one pass over the whole
        contraction, and some partition pass did hand rows to the overlay."""
        from repro.treedec.slots import SlotContraction

        if rung == "oracle":
            oracle_maintenance()
        graph = grid_road_network(12, 12, seed=2)
        index = build_postmhl(graph, bandwidth=10, ke=4)
        twin = SlotContraction.build(graph.copy())
        assert twin.order == index.contraction.order
        escaped_rows = []
        run = SlotContraction.run

        def recording_run(self, seeds, mask=None, escaped=None):
            if mask is None:
                return run(self, seeds)
            changed = run(self, seeds, mask, *(() if escaped is None else (escaped,)))
            if escaped is not None and len(escaped):
                escaped_rows.append(int(escaped.sum()))
            return changed

        for seed in (1, 2, 3):
            batch = generate_update_batch(index.graph, volume=15, seed=seed)
            monkeypatch.setattr(SlotContraction, "run", recording_run)
            index.apply_batch(batch)
            monkeypatch.setattr(SlotContraction, "run", run)
            twin.update(batch)
            assert float_bits(index.contraction.arena["weights"]) == float_bits(
                twin.arena["weights"]
            )
        assert max(escaped_rows) > 0



class TestPostBoundaryReference:
    """The ``disB`` matrices and U-Stage 4's level recurrence plus label
    pass, against :class:`ReferencePostBoundary`, in C and through the
    oracles: after the
    build, at ``post_boundary_update`` of every batch (``disB``, the label
    entries POST_BOUNDARY reads, and its answers of every kind) and after
    the batch (the whole arena, the reference finishing with U-Stage 5's
    dict pass), bit for bit."""

    GRAPHS = {
        "grid": lambda: grid_road_network(12, 12, seed=3),
        "highway": lambda: highway_network(4, 25, seed=5),
    }

    @pytest.mark.parametrize("rung", ("native", "oracle"))
    @pytest.mark.parametrize("bandwidth", (12, 24, 48))
    @pytest.mark.parametrize("kind", sorted(BATCH_SEQUENCES))
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_bit_identical_to_the_dict_path(
        self, graph_name, kind, bandwidth, rung, oracle_maintenance, monkeypatch
    ):
        if rung == "oracle":
            oracle_maintenance()
        graph = self.GRAPHS[graph_name]()
        index = build_postmhl(graph.copy(), bandwidth=bandwidth, ke=4)
        td = index.td
        assert td.num_partitions > 1
        reference = ReferencePostBoundary(index)
        pairs = post_boundary_pairs(index)
        assert {query_kind(td, s, t) for s, t in pairs} == {
            "overlay", "overlay-partition", "same", "cross"
        }

        def check_post_boundary():
            assert disB_bits(index) == {v: float_bits(row) for v, row in reference.disB.items()}
            assert post_boundary_entries(index, label_rows(index.labels)) == (
                post_boundary_entries(index, reference.rows)
            )
            assert float_bits(index.query_post_boundary(s, t) for s, t in pairs) == float_bits(
                reference.query(s, t) for s, t in pairs
            )

        check_post_boundary()
        touched = {"post": [], "cross": []}
        for stage, name in (("post", "_update_post_boundary_partition"),
                            ("cross", "_update_cross_boundary_partition")):
            original = getattr(PostMHLIndex, name)

            def spy(self, pid, _original=original, _seen=touched[stage]):
                _seen.append(pid)
                return _original(self, pid)

            monkeypatch.setattr(PostMHLIndex, name, spy)

        def listener(timing):
            if timing.name == "overlay_label_update":
                reference.rows = label_rows(index.labels)
            elif timing.name == "post_boundary_update":
                for pid in touched["post"]:
                    reference.update_partition(pid)
                check_post_boundary()

        index.set_stage_listener(listener)
        for batch in BATCH_SEQUENCES[kind](graph):
            for seen in touched.values():
                seen.clear()
            index.apply_batch(batch)
            batch.apply(graph)
            for pid in touched["cross"]:
                container_label_pass(
                    index.labels, reference.rows, td.partition_vertices[pid],
                    columns=(0, root_depth(index, pid)),
                )
            assert {v: float_bits(row) for v, row in label_rows(index.labels).items()} == {
                v: float_bits(row) for v, row in reference.rows.items()
            }
            assert set(touched["post"]) <= set(touched["cross"])
            check_post_boundary()
        for s, t in pairs:
            assert index.query_post_boundary(s, t) == pytest.approx(dijkstra_distance(graph, s, t))


class TestSnapshot:
    def test_boundary_arrays_survive_a_round_trip_after_a_batch(self, tmp_path):
        """``disB`` is saved as one array and reshaped on load: bit-equal
        matrices, and bit-equal POST_BOUNDARY answers."""
        graph = grid_road_network(10, 10, seed=3)
        index = build_postmhl(graph, bandwidth=10, ke=4)
        index.apply_batch(generate_update_batch(graph, volume=15, seed=3))
        path = str(tmp_path / "snap")
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.td.roots == index.td.roots
        assert [m.shape for m in loaded.disB] == [m.shape for m in index.disB]
        assert disB_bits(loaded) == disB_bits(index)
        pairs = post_boundary_pairs(index)
        assert float_bits(loaded.query_post_boundary(s, t) for s, t in pairs) == float_bits(
            index.query_post_boundary(s, t) for s, t in pairs
        )

    def test_schema_2_snapshot_is_refused(self, tmp_path):
        """Schema 2 stored ``disB`` per vertex: such a snapshot raises,
        typed, and never loads."""
        index = build_postmhl(grid_road_network(8, 8, seed=1), bandwidth=10, ke=4)
        path = str(tmp_path / "snap")
        save_index(index, path)
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["schema_version"] = 2
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(SnapshotVersionError) as excinfo:
            load_index(path)
        assert excinfo.value.found == 2
