"""Unit tests for H2H, DH2H and MHL."""

import numpy
import pytest

import repro.labeling.h2h as h2h_module
from repro.algorithms.dijkstra import dijkstra_distance
from repro.exceptions import IndexNotBuiltError
from repro.graph.generators import grid_road_network, random_connected_graph
from repro.graph.updates import UpdateBatch, generate_update_batch, generate_update_stream
from repro.labeling.h2h import DH2HIndex, H2HIndex
from repro.labeling.mhl import MHLIndex
from repro.kernels.native import native_kernel
from repro.registry import create_index

from tests.conftest import (
    BATCH_SEQUENCES,
    NEEDS_NATIVE,
    check_label_maintenance,
    check_slot_maintenance,
    float_bits,
    label_rows,
    paper_example_graph,
    random_query_pairs,
)


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
        for v in tree.keys:
            assert len(labels.dis(v)) == tree.depth[tree.row[v]] + 1
            assert labels.dis(v)[-1] == 0.0
            # Distance entries are true shortest distances to ancestors,
            # read through a parent walk.
            for j, ancestor in enumerate(tree.chain(v)):
                assert labels.dis(v)[j] == pytest.approx(
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
            assert index.labels.dis(v).tolist() == pytest.approx(rebuilt.labels.dis(v).tolist())

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
                changed.append((index.last_changed_slots.tolist(), index.last_changed_labels))
            contraction = index.contraction
            return (
                {v: float_bits(row) for v, row in label_rows(index.labels).items()},
                {v: index.labels.pos(v).tolist() for v in contraction.order},
                float_bits(contraction.arena["weights"]),
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


class TestFlatLabelMaintenance:
    """The label pass on both rungs: after every kind of batch each arena
    equals a fresh build on the updated graph, and every pass equals the
    dict path (``container_row`` over a dict copy) step for step."""

    @pytest.mark.parametrize("rung", ("native", "pure"))
    @pytest.mark.parametrize("kind", sorted(BATCH_SEQUENCES))
    @pytest.mark.parametrize("method", ("DH2H", "MHL"))
    def test_arenas_equal_a_fresh_build_and_the_dict_path(
        self, method, kind, rung, pure_maintenance, container_oracle
    ):
        if rung == "pure":
            pure_maintenance()
        graph = grid_road_network(8, 8, seed=4)
        index = check_label_maintenance(method, graph, kind)
        assert index.labels in container_oracle
        assert_matches_dijkstra(index.query, graph, random_query_pairs(graph, 30, seed=4))

    def test_report_counts_the_label_pass(self):
        graph = grid_road_network(8, 8, seed=2)
        index = DH2HIndex(graph)
        index.build()
        report = index.apply_batch(generate_update_batch(graph, volume=10, seed=2))
        assert report.vertices_visited >= len(index.last_changed_labels) > 0
        assert report.columns_recomputed >= report.columns_changed > 0
        empty = index.apply_batch(UpdateBatch([]))
        work = (empty.vertices_visited, empty.columns_recomputed, empty.columns_changed)
        assert work == (0, 0, 0)

    @NEEDS_NATIVE
    @pytest.mark.parametrize("method", ("DH2H", "PMHL"))
    def test_old_epoch_store_survives_two_windows(self, method):
        index = create_index(method, grid_road_network(10, 10, seed=5))
        index.build()
        pairs = random_query_pairs(index.graph, 40, seed=5)
        (key, freeze), = index._kernel_exports().items()
        old = freeze()
        old_bytes = bytes(old.arena.buffer)
        answers = old.query_pairs(pairs)
        for seed in (1, 2):
            index.apply_batch(generate_update_batch(index.graph, volume=20, seed=seed))
            new = freeze()
            assert new is not old
            assert not numpy.shares_memory(new.arena.buffer, old.arena.buffer)
            assert_matches_dijkstra(index.query, index.graph, pairs)
        assert bytes(old.arena.buffer) == old_bytes
        assert old.query_pairs(pairs) == answers
        assert [old.query(s, t) for s, t in pairs] == answers

    @NEEDS_NATIVE
    def test_a_store_wraps_the_arena_and_a_write_copies_it(self):
        index = DH2HIndex(grid_road_network(6, 6, seed=1))
        index.build()
        store = index._label_store()
        assert store.arena is index.labels.arena
        index.apply_batch(UpdateBatch([]))
        assert index.labels.arena is store.arena  # no pass ran: nothing copied
        index.apply_batch(generate_update_batch(index.graph, volume=6, seed=1))
        assert index.labels.arena is not store.arena
        assert index._label_store().arena is index.labels.arena


def _labels_of(method="DH2H"):
    index = create_index(method, grid_road_network(6, 6, seed=2))
    index.build()
    return index.labels


def _label_arrays():
    """Copies of a built DH2H's pass arguments, every row a seed."""
    labels = _labels_of()
    arena, n = labels.arena, len(labels.keys)
    return {
        "parent": labels.parent.copy(), "depth": labels.depth.copy(),
        "child_indptr": labels.child_indptr.copy(), "child_rows": labels.child_rows.copy(),
        "dis_indptr": arena["dis_indptr"].copy(), "pos_indptr": arena["pos_indptr"].copy(),
        "pos_data": arena["pos_data"].copy(),
        "sc": labels._shortcuts().copy(),
        "dis_data": arena["dis_data"].copy(), "seeds": numpy.arange(n, dtype=numpy.int64),
        "allowed": numpy.zeros(0, dtype=numpy.int8),
        # Not what the pass leaves: a write on failure would show.
        "changed": numpy.full(n, 7, dtype=numpy.int8),
        "counts": numpy.full(3, 7, dtype=numpy.int64),
        "lo": 0, "hi": labels.width,
    }


#: ``update_labels``' arguments in order.
LABEL_ARGS = (
    "parent", "depth", "child_indptr", "child_rows", "dis_indptr", "pos_indptr", "pos_data",
    "sc", "dis_data", "seeds", "allowed", "changed", "counts", "lo", "hi",
)


def _deep_row(a):
    """The deepest row (a child of another row, with neighbours)."""
    return int(numpy.argmax(a["depth"]))


def _swap_widths(a):
    """The root's row and the deepest trade widths: offsets stay monotone
    but miss the depths."""
    widths = numpy.diff(a["dis_indptr"])
    rows = [int(numpy.argmin(a["depth"])), _deep_row(a)]
    widths[rows] = widths[rows[::-1]]
    a["dis_indptr"][1:] = numpy.cumsum(widths)


#: Malformed inputs of ``update_labels``, each an edit of a copy of good arrays.
MALFORMED_LABELS = {
    # truncated
    **{
        f"short-{name.replace('_', '-')}": (lambda name: lambda a: a.update(
            {name: a[name][:-1]}))(name)
        for name in LABEL_ARGS[:-2] if name not in ("seeds", "allowed")
    },
    "short-allowed": lambda a: a.update(allowed=numpy.ones(len(a["parent"]) - 1, numpy.int8)),
    # out of range
    "parent-past-n": lambda a: a["parent"].__setitem__(_deep_row(a), len(a["parent"])),
    "negative-parent": lambda a: a["parent"].__setitem__(_deep_row(a), -2),
    "depth-past-n": lambda a: a["depth"].__setitem__(0, len(a["parent"])),
    "child-past-n": lambda a: a["child_rows"].__setitem__(0, len(a["parent"])),
    "negative-child": lambda a: a["child_rows"].__setitem__(0, -1),
    "seed-past-n": lambda a: a["seeds"].__setitem__(0, len(a["parent"])),
    "negative-seed": lambda a: a["seeds"].__setitem__(0, -1),
    "position-past-row": lambda a: a["pos_data"].__setitem__(
        int(a["pos_indptr"][_deep_row(a)]), a["depth"][_deep_row(a)]),
    "negative-position": lambda a: a["pos_data"].__setitem__(
        int(a["pos_indptr"][_deep_row(a)]), -1),
    "hi-past-widest-row": lambda a: a.update(hi=a["hi"] + 1),
    "negative-lo": lambda a: a.update(lo=-1),
    "lo-above-hi": lambda a: a.update(lo=2, hi=1),
    # mis-ordered
    "dis-offsets-not-monotone": lambda a: a["dis_indptr"].__setitem__(1, a["dis_indptr"][-1] + 1),
    "dis-offsets-miss-depths": _swap_widths,
    "child-offsets-not-monotone": lambda a: a["child_indptr"].__setitem__(
        1, a["child_indptr"][-1] + 1),
    "position-offsets-not-monotone": lambda a: a["pos_indptr"].__setitem__(
        1, a["pos_indptr"][-1] + 1),
    "child-names-another-parent": lambda a: a["child_rows"].__setitem__(
        0, a["child_rows"][-1]),
    "parent-one-level-off": lambda a: a["depth"].__setitem__(_deep_row(a), a["depth"].max() + 1),
    "own-column-not-last": lambda a: a["pos_data"].__setitem__(
        int(a["pos_indptr"][_deep_row(a) + 1]) - 1, 0),
}


#: Saved label arrays that no longer fit the tree they are loaded onto.
CORRUPT_LABELS = {
    "verts-swapped": lambda a: a["verts"].__setitem__([0, 1], a["verts"][[1, 0]]),
    "dis-offsets-miss-depths": _swap_widths,
    "position-past-row": lambda a: a["pos_data"].__setitem__(-2, a["pos_data"][-1]),
    "own-column-not-last": lambda a: a["pos_data"].__setitem__(-1, a["pos_data"][-1] + 1),
    "int32-positions": lambda a: a.update(pos_data=a["pos_data"].astype(numpy.int32)),
    "missing-entry": lambda a: a.pop("tbl_off"),
}


def _label_passes():
    passes = [pytest.param(h2h_module._update_labels_pure, id="pure")]
    if native_kernel() is not None:
        passes.append(pytest.param(native_kernel().update_labels, id="native"))
    return passes


class TestSlotMaintenance:
    """DH2H's and MHL's shortcut pass on both rungs: after every kind of
    batch the contraction's arena and graph weights, and the label arena,
    equal a fresh build's byte for byte."""

    @pytest.mark.parametrize("rung", ("native", "pure"))
    @pytest.mark.parametrize("kind", sorted(BATCH_SEQUENCES))
    @pytest.mark.parametrize("method", ("DH2H", "MHL"))
    def test_arenas_equal_a_fresh_build(self, method, kind, rung, pure_maintenance):
        if rung == "pure":
            pure_maintenance()
        graph = grid_road_network(8, 8, seed=4)
        index = check_slot_maintenance(method, graph, kind)
        query = index.query_ch if method == "MHL" else index.query
        for s, t in random_query_pairs(graph, 20, seed=4):
            assert query(s, t) == pytest.approx(dijkstra_distance(graph, s, t))

    def test_shortcut_work_counters_match_on_both_rungs(self, pure_maintenance):
        def windows():
            graph = grid_road_network(9, 9, seed=3)
            index = DH2HIndex(graph)
            index.build()
            reports = [index.apply_batch(generate_update_batch(graph, 12, seed=s)) for s in (1, 2)]
            return [
                (r.shortcut_rows_visited, r.shortcuts_relaxed, r.shortcuts_changed)
                for r in reports
            ]

        native = windows()
        pure_maintenance()
        assert windows() == native
        assert all(changed > 0 for _, _, changed in native)

    @NEEDS_NATIVE
    def test_old_epoch_ch_store_survives_two_windows(self):
        """MHL's CH-stage store wraps the contraction's arena; the next
        batch's pass writes a copy, so the old store keeps its bytes and its
        answers while the index moves on."""
        index = MHLIndex(grid_road_network(10, 10, seed=5))
        index.build()
        pairs = random_query_pairs(index.graph, 40, seed=5)
        old = index._ch_store()
        old_bytes, answers = bytes(old.arena.buffer), old.query_pairs(pairs)
        for seed in (1, 2):
            index.apply_batch(generate_update_batch(index.graph, volume=20, seed=seed))
            new = index._ch_store()
            assert new is not old and new.arena is index.contraction.arena
            for s, t in pairs:
                assert new.query(s, t) == pytest.approx(dijkstra_distance(index.graph, s, t))
        assert bytes(old.arena.buffer) == old_bytes
        assert old.query_pairs(pairs) == answers


class TestUpdateLabelsInputs:
    """``update_labels`` (C) and its numpy loop refuse malformed arrays with
    a ``ValueError`` before writing anything."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_LABELS))
    @pytest.mark.parametrize("update", _label_passes())
    def test_malformed_arrays_raise_before_writing(self, update, case):
        arrays = _label_arrays()
        MALFORMED_LABELS[case](arrays)
        written = [bytes(arrays[name]) for name in ("dis_data", "changed", "counts")]
        with pytest.raises(ValueError):
            update(*(arrays[name] for name in LABEL_ARGS))
        assert [bytes(arrays[name]) for name in ("dis_data", "changed", "counts")] == written

    @pytest.mark.parametrize("update", _label_passes())
    def test_well_formed_arrays_pass(self, update):
        arrays = _label_arrays()
        dis = float_bits(arrays["dis_data"])
        update(*(arrays[name] for name in LABEL_ARGS))
        assert float_bits(arrays["dis_data"]) == dis
        assert arrays["changed"].tolist() == [0] * len(arrays["parent"])
        assert arrays["counts"][0] == len(arrays["parent"])
        assert arrays["counts"][1] == len(arrays["dis_data"]) and arrays["counts"][2] == 0

    @NEEDS_NATIVE
    def test_wrong_buffer_types_raise(self):
        kernel, arrays = native_kernel(), _label_arrays()
        wrong = {
            "dis_data": arrays["dis_data"].astype(numpy.float32),
            "sc": arrays["sc"].astype(numpy.int64),
            "parent": arrays["parent"].astype(numpy.float64),
            "changed": arrays["changed"].astype(numpy.int64),
            "counts": [0, 0, 0],
            "lo": "0",
        }
        for name, value in wrong.items():
            with pytest.raises(TypeError):
                kernel.update_labels(*(value if key == name else arrays[key] for key in LABEL_ARGS))
        arrays["dis_data"].flags.writeable = False
        with pytest.raises((TypeError, ValueError, BufferError)):
            kernel.update_labels(*(arrays[name] for name in LABEL_ARGS))
        with pytest.raises(TypeError):
            kernel.update_labels(*(arrays[name] for name in LABEL_ARGS[:-1]))

    @pytest.mark.parametrize("corrupt", sorted(CORRUPT_LABELS))
    def test_corrupt_snapshot_labels_are_refused(self, corrupt, tmp_path, monkeypatch):
        """A snapshot whose label arrays do not fit the tree fails the load."""
        from repro.exceptions import SnapshotFormatError
        from repro.kernels.arena import Arena
        from repro.store import codec
        from repro.store.snapshot import load_index, save_index

        def pack_corrupt(labels, io):
            arrays = {name: labels.arena[name].copy() for name, *_ in labels.arena.toc}
            arrays["depth"] = labels.depth
            CORRUPT_LABELS[corrupt](arrays)
            del arrays["depth"]
            return Arena.pack(arrays).to_state(io)

        index = create_index("DH2H", grid_road_network(6, 6, seed=3))
        index.build()
        monkeypatch.setattr(codec, "pack_labels", pack_corrupt)
        save_index(index, str(tmp_path / "snap"))
        with pytest.raises(SnapshotFormatError):
            load_index(str(tmp_path / "snap"))
