"""Unit tests for Contraction Hierarchies and Dynamic CH."""

import numpy
import pytest

import repro.treedec.slots as slots_module
from repro.algorithms.dijkstra import dijkstra_distance
from repro.exceptions import IndexNotBuiltError, VertexNotFoundError
from repro.graph.generators import grid_road_network, random_connected_graph
from repro.graph.updates import (
    UpdateBatch,
    generate_update_batch,
    generate_update_stream,
)
from repro.hierarchy.ch import CHIndex, DCHIndex
from repro.kernels.native import native_kernel
from repro.registry import create_index
from repro.treedec.mde import contract_graph, update_shortcuts_bottom_up
from repro.treedec.slots import SlotContraction

from tests.conftest import (
    BATCH_SEQUENCES,
    NEEDS_NATIVE,
    float_bits,
    inverse,
    paper_example_graph,
    random_query_pairs,
)


def assert_matches_dijkstra(index, graph, pairs):
    for s, t in pairs:
        assert index.query(s, t) == pytest.approx(dijkstra_distance(graph, s, t)), (s, t)


class TestCHQuery:
    def test_not_built_raises(self):
        index = CHIndex(paper_example_graph())
        with pytest.raises(IndexNotBuiltError):
            index.query(0, 1)

    def test_unknown_vertex_raises(self):
        graph = paper_example_graph()
        index = CHIndex(graph)
        index.build()
        with pytest.raises(VertexNotFoundError):
            index.query(0, 999)

    def test_example_graph_correct(self):
        graph = paper_example_graph()
        index = CHIndex(graph)
        index.build()
        pairs = [(s, t) for s in graph.vertices() for t in graph.vertices()]
        assert_matches_dijkstra(index, graph, pairs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grid_correct(self, seed):
        graph = grid_road_network(7, 7, seed=seed)
        index = CHIndex(graph)
        index.build()
        assert_matches_dijkstra(index, graph, random_query_pairs(graph, 40, seed=seed))

    def test_random_graph_correct(self):
        graph = random_connected_graph(50, 50, seed=9)
        index = CHIndex(graph)
        index.build()
        assert_matches_dijkstra(index, graph, random_query_pairs(graph, 40, seed=9))

    def test_index_size_positive(self):
        graph = grid_road_network(5, 5, seed=0)
        index = CHIndex(graph)
        index.build()
        assert index.index_size() >= graph.num_edges

    def test_static_ch_rejects_updates(self):
        graph = grid_road_network(4, 4, seed=0)
        index = CHIndex(graph)
        index.build()
        batch = generate_update_batch(graph, volume=2, seed=0)
        with pytest.raises(NotImplementedError):
            index.apply_batch(batch)

    def test_build_records_time(self):
        graph = grid_road_network(5, 5, seed=0)
        index = CHIndex(graph)
        seconds = index.build()
        assert seconds >= 0.0
        assert index.is_built


class TestDCHMaintenance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_queries_correct_after_single_batch(self, seed):
        graph = grid_road_network(7, 7, seed=seed)
        index = DCHIndex(graph)
        index.build()
        batch = generate_update_batch(graph, volume=15, seed=seed)
        report = index.apply_batch(batch)
        assert report.total_seconds >= 0.0
        assert [stage.name for stage in report.stages] == ["edge_update", "shortcut_update"]
        assert_matches_dijkstra(index, graph, random_query_pairs(graph, 40, seed=seed))

    def test_queries_correct_after_update_stream(self):
        graph = grid_road_network(6, 6, seed=4)
        index = DCHIndex(graph)
        index.build()
        for batch in generate_update_stream(graph, num_batches=4, volume=8, seed=4):
            index.apply_batch(batch)
            assert_matches_dijkstra(index, graph, random_query_pairs(graph, 20, seed=4))

    def test_empty_batch_is_noop(self):
        graph = grid_road_network(5, 5, seed=1)
        index = DCHIndex(graph)
        index.build()
        before = float_bits(index.contraction.arena["weights"])

        index.apply_batch(UpdateBatch([]))
        assert float_bits(index.contraction.arena["weights"]) == before

    def test_decrease_then_revert_restores_shortcuts(self):
        graph = grid_road_network(5, 5, seed=2)
        index = DCHIndex(graph)
        index.build()
        before = float_bits(index.contraction.arena["weights"])
        batch = generate_update_batch(graph, volume=6, seed=2, decrease_fraction=1.0)
        index.apply_batch(batch)
        index.apply_batch(inverse(batch))
        assert float_bits(index.contraction.arena["weights"]) == before


def _dict_weights(contraction) -> bytes:
    """A dict contraction's shortcut values in slot order."""
    return float_bits(
        contraction.shortcuts[v][u] for v in contraction.order for u in contraction.neighbors[v]
    )


class TestSlotMaintenance:
    """DCH's flat pass on both rungs: after every kind of batch its weights
    equal, bit for bit, a fresh build on the updated graph and the dict path
    (``update_shortcuts_bottom_up`` over a dict ``contract_graph``)."""

    @pytest.mark.parametrize("rung", ("native", "pure"))
    @pytest.mark.parametrize("kind", sorted(BATCH_SEQUENCES))
    def test_weights_equal_a_fresh_build_and_the_dict_path(self, kind, rung, pure_maintenance):
        if rung == "pure":
            pure_maintenance()
        graph = grid_road_network(8, 8, seed=4)
        index = DCHIndex(graph.copy())
        index.build()
        reference = contract_graph(graph)
        assert reference.order == index.contraction.order
        before = float_bits(index.contraction.arena["weights"])
        for batch in BATCH_SEQUENCES[kind](graph):
            index.apply_batch(batch)
            batch.apply(graph)
            update_shortcuts_bottom_up(reference, graph, [u.key() for u in batch])
        weights = float_bits(index.contraction.arena["weights"])
        fresh = DCHIndex(graph.copy())
        fresh.build()
        assert weights == float_bits(fresh.contraction.arena["weights"])
        assert weights == _dict_weights(reference)
        if kind in ("empty", "revert"):
            assert weights == before
        else:
            assert weights != before
        assert_matches_dijkstra(index, graph, random_query_pairs(graph, 30, seed=4))

    @NEEDS_NATIVE
    def test_old_epoch_store_survives_two_windows(self):
        index = DCHIndex(grid_road_network(10, 10, seed=5))
        index.build()
        pairs = random_query_pairs(index.graph, 40, seed=5)
        old = index._shortcut_store()
        old_bytes = bytes(old.arena.buffer)
        answers = old.query_pairs(pairs)
        for seed in (1, 2):
            index.apply_batch(generate_update_batch(index.graph, volume=20, seed=seed))
            new = index._shortcut_store()
            assert new is not old and new.arena is index.contraction.arena
            assert_matches_dijkstra(index, index.graph, pairs)
        assert bytes(old.arena.buffer) == old_bytes
        assert old.query_pairs(pairs) == answers
        assert [old.query(s, t) for s, t in pairs] == answers

    def test_no_dicts_after_build_or_load(self, tmp_path):
        from repro.store.snapshot import load_index, save_index

        index = create_index("DCH", grid_road_network(6, 6, seed=3))
        index.build()
        save_index(index, str(tmp_path / "snap"))
        loaded = load_index(str(tmp_path / "snap"))
        for held in (index.contraction, loaded.contraction):
            assert isinstance(held, SlotContraction)
            assert not hasattr(held, "__dict__")
            assert held.sup_slots.dtype == numpy.int32
        assert bytes(loaded.contraction.arena.buffer) == bytes(index.contraction.arena.buffer)
        batch = generate_update_batch(index.graph, volume=8, seed=3)
        for held in (index, loaded):
            held.apply_batch(batch)
        assert float_bits(loaded.contraction.arena["weights"]) == float_bits(
            index.contraction.arena["weights"]
        )


def _supported(a):
    """(row, first supporter record) of the first slot that has supporters."""
    slot = int(numpy.flatnonzero(numpy.diff(a["sup_indptr"]))[0])
    return int(numpy.searchsorted(a["indptr"], slot, side="right")) - 1, int(
        a["sup_indptr"][slot]
    )


def _break_monotone(array):
    array[int(numpy.flatnonzero(numpy.diff(array))[0]) + 1] = array[-1] + 1


#: Malformed inputs of ``update_slots``, each an edit of a copy of good arrays.
MALFORMED = {
    # truncated
    "short-indptr": lambda a: a.update(indptr=a["indptr"][:-1]),
    "short-indices": lambda a: a.update(indices=a["indices"][:-1]),
    "short-base": lambda a: a.update(base=a["base"][:-1]),
    "short-weights": lambda a: a.update(weights=a["weights"][:-1]),
    "short-sup-indptr": lambda a: a.update(sup_indptr=a["sup_indptr"][:-1]),
    "odd-sup-slots": lambda a: a.update(sup_slots=a["sup_slots"][:-1]),
    "short-sup-slots": lambda a: a.update(sup_slots=a["sup_slots"][:-2]),
    # out of range
    "column-past-n": lambda a: a["indices"].__setitem__(0, len(a["indptr"]) - 1),
    "negative-column": lambda a: a["indices"].__setitem__(0, -1),
    "slot-past-m": lambda a: a["sup_slots"].__setitem__(
        2 * _supported(a)[1], len(a["indices"])
    ),
    "negative-slot": lambda a: a["sup_slots"].__setitem__(2 * _supported(a)[1] + 1, -1),
    "seed-past-n": lambda a: a["seeds"].__setitem__(0, len(a["indptr"]) - 1),
    "negative-seed": lambda a: a["seeds"].__setitem__(0, -1),
    # mis-ordered
    "indptr-not-monotone": lambda a: _break_monotone(a["indptr"]),
    "sup-indptr-not-monotone": lambda a: _break_monotone(a["sup_indptr"]),
    "column-not-above-row": lambda a: a["indices"].__setitem__(
        int(a["indptr"][_supported(a)[0]]), _supported(a)[0]
    ),
    "supporter-in-target-row": lambda a: a["sup_slots"].__setitem__(
        2 * _supported(a)[1], int(a["indptr"][_supported(a)[0]])
    ),
}

#: ``update_slots``' arguments in order.
SLOT_ARGS = ("indptr", "indices", "base", "sup_indptr", "sup_slots", "weights", "seeds")


def _update_passes():
    passes = [pytest.param(slots_module._update_slots_pure, id="pure")]
    if native_kernel() is not None:
        passes.append(pytest.param(native_kernel().update_slots, id="native"))
    return passes


class TestUpdateSlotsInputs:
    """``update_slots`` (C) and its pure loop refuse malformed arrays with a
    ``ValueError`` before writing anything."""

    @pytest.fixture
    def arrays(self):
        """Copies of a built DCH's arrays, every row a seed."""
        index = DCHIndex(grid_road_network(6, 6, seed=2))
        index.build()
        c = index.contraction
        return {
            "indptr": c.arena["indptr"].copy(), "indices": c.arena["indices"].copy(),
            "base": c.base.copy(), "sup_indptr": c.sup_indptr.copy(),
            "sup_slots": c.sup_slots.copy(), "weights": c.arena["weights"].copy(),
            "seeds": numpy.arange(len(c.order), dtype=numpy.int64),
        }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("update", _update_passes())
    def test_malformed_arrays_raise_before_writing(self, arrays, update, case):
        MALFORMED[case](arrays)
        weights = float_bits(arrays["weights"])
        with pytest.raises(ValueError):
            update(*(arrays[name] for name in SLOT_ARGS))
        assert float_bits(arrays["weights"]) == weights

    @pytest.mark.parametrize("update", _update_passes())
    def test_well_formed_arrays_pass(self, arrays, update):
        weights = float_bits(arrays["weights"])
        update(*(arrays[name] for name in SLOT_ARGS))
        assert float_bits(arrays["weights"]) == weights

    def test_malformed_snapshot_arrays_are_refused(self, tmp_path):
        """A snapshot's slot arrays: the wrong dtype fails the load, a
        supporter out of order fails the first update before it writes."""
        from repro.exceptions import SnapshotFormatError
        from repro.store.snapshot import load_index, save_index

        index = create_index("DCH", grid_road_network(6, 6, seed=3))
        index.build()
        c, good = index.contraction, index.contraction.sup_slots
        c.sup_slots = good.astype(numpy.int64)
        save_index(index, str(tmp_path / "dtype"))
        with pytest.raises(SnapshotFormatError):
            load_index(str(tmp_path / "dtype"))
        c.sup_slots = good.copy()
        MALFORMED["supporter-in-target-row"](
            {"indptr": c.arena["indptr"], "sup_indptr": c.sup_indptr, "sup_slots": c.sup_slots}
        )
        save_index(index, str(tmp_path / "order"))
        loaded = load_index(str(tmp_path / "order"))
        weights = bytes(loaded.contraction.arena.buffer)
        with pytest.raises(ValueError):
            loaded.contraction.update(generate_update_batch(loaded.graph, volume=4, seed=1))
        assert bytes(loaded.contraction.arena.buffer) == weights

    @NEEDS_NATIVE
    def test_wrong_buffer_types_raise(self, arrays):
        kernel = native_kernel()
        wrong = {
            "sup_slots": arrays["sup_slots"].astype(numpy.int64),
            "indices": arrays["indices"].astype(numpy.float64),
            "base": arrays["base"].astype(numpy.float32),
            "weights": [1.0, 2.0],
        }
        for name, value in wrong.items():
            with pytest.raises(TypeError):
                kernel.update_slots(*(value if key == name else arrays[key] for key in SLOT_ARGS))
        arrays["weights"].flags.writeable = False
        with pytest.raises((TypeError, ValueError, BufferError)):
            kernel.update_slots(*(arrays[name] for name in SLOT_ARGS))
        with pytest.raises(TypeError):
            kernel.update_slots(*(arrays[name] for name in SLOT_ARGS[:-1]))
