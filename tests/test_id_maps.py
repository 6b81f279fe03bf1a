"""The batch plane's id-map entries, against the scalar stores bit for bit.

A batch reaches a frozen store as vertex ids the way they come off the wire:
one buffer of ``int32`` or ``int64`` ids, sources and targets interleaved.
One C call maps every id to its row through the store's id map
(``repro.kernels.arena.build_remap``: a dense remap, or the sorted ids
searched by bisection where the id space is too sparse for one), checks it
and answers — ``query_ids`` for a label store, ``search_query_ids`` for a
shortcut store — and returns the position of the first id with no row.
``map_ids`` is the same mapping alone, behind ``rows_of`` and the graph's
vertex check (``Graph.positions``), which the engine runs before admission.

Hypothesis draws batches over a dense and a sparse id space, as ``int32``
and ``int64``, with repeated pairs, ``source == target``, and ids below 0,
past the remap and in the holes of the sparse space.  Every answer must be
the scalar store query's bits, and every first-missing position the one the
old Python check (a dict probe per endpoint, source before target) found.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import VertexNotFoundError
from repro.graph.generators import grid_road_network
from repro.graph.graph import Graph
from repro.kernels.arena import build_remap, pair_ids, rows_of
from repro.kernels.native import native_kernel
from repro.registry import create_index

from tests.conftest import float_bits

#: Sparse ids: every grid vertex ``v`` becomes ``v * SPREAD + 17`` (so the
#: largest is ~48 M, inside int32, and far past a dense remap's slack).
SPREAD = 1_000_003

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@lru_cache(maxsize=None)
def _space(sparse: bool) -> SimpleNamespace:
    grid = grid_road_network(7, 7, seed=1)
    us, vs, weights = grid.edge_arrays()
    if sparse:
        us, vs = us * SPREAD + 17, vs * SPREAD + 17
    graph = Graph.from_edges(us, vs, weights)
    ids = graph.ids.tolist()
    labels = create_index("DH2H", graph)
    labels.build()
    search = create_index("DCH", graph)
    search.build()
    return SimpleNamespace(
        graph=graph, ids=ids, label=labels._final_store(), search=search._final_store()
    )


@pytest.fixture(scope="module", params=["dense", "sparse"])
def space(request):
    return _space(request.param == "sparse")


def test_the_two_spaces_get_the_two_map_shapes():
    assert build_remap(np.asarray(_space(False).ids)).ndim == 1
    sparse = build_remap(np.asarray(_space(True).ids))
    assert sparse.shape[0] == 2 and (np.diff(sparse[0]) > 0).all()


def vertex_ids(ids):
    """Mostly vertices of the space; else the edges of every map."""
    edges = [
        -1, -(2**31), 2**31 - 1, min(ids) - 1, max(ids) + 1, len(ids),
        ids[0] + 1, ids[-1] - 1, 0,
    ]
    present = st.sampled_from(ids)
    return st.one_of(
        present, present, present, st.sampled_from(edges),
        st.integers(-(2**31), 2**31 - 1),
    )


@st.composite
def batches(draw, ids):
    vertex = vertex_ids(ids)
    pairs = draw(st.lists(
        st.one_of(st.tuples(vertex, vertex), vertex.map(lambda v: (v, v))),
        min_size=0, max_size=24,
    ))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return np.array(pairs, dtype=dtype).reshape(-1, 2)


def python_first_missing(members, pairs: np.ndarray) -> int:
    """The check the engine ran before ids were arrays: a membership probe
    per endpoint, in pair order, source before target."""
    for position, vertex in enumerate(pairs.reshape(-1).tolist()):
        if vertex not in members:
            return position
    return -1


class TestBatchEntries:
    @SETTINGS
    @given(data=st.data())
    def test_label_store_query_ids(self, space, data):
        pairs = data.draw(batches(space.ids))
        store = space.label
        out = np.full(len(pairs), np.nan)
        missing = native_kernel().query_ids(store.capsule, pairs, store._remap, out)
        assert missing == python_first_missing(store.row, pairs)
        if missing < 0:
            scalar = [store.query(s, t) for s, t in pairs.tolist()]
            assert float_bits(out.tolist()) == float_bits(scalar)
        else:
            with pytest.raises(VertexNotFoundError) as excinfo:
                store.query_ids(pairs)
            assert excinfo.value.position == missing
            assert excinfo.value.vertex == pairs.reshape(-1)[missing]

    @SETTINGS
    @given(data=st.data())
    def test_shortcut_store_search_query_ids(self, space, data):
        pairs = data.draw(batches(space.ids))
        store = space.search
        out = np.full(len(pairs), np.nan)
        missing = native_kernel().search_query_ids(store.capsule, pairs, store._remap, out, 1)
        assert missing == python_first_missing(store.row, pairs)
        if missing < 0:
            scalar = [store.query(s, t) for s, t in pairs.tolist()]
            assert float_bits(out.tolist()) == float_bits(scalar)
            # the list wrapper is the same call
            assert float_bits(store.query_pairs(pairs.tolist())) == float_bits(scalar)


class TestMapIds:
    @SETTINGS
    @given(data=st.data())
    def test_rows_and_first_missing(self, space, data):
        """``map_ids`` against a dict probe per id: the same rows, or the
        same first missing position."""
        pairs = data.draw(batches(space.ids))
        graph = space.graph
        idmap = build_remap(graph.ids)
        want = python_first_missing(set(space.ids), pairs)
        try:
            got = rows_of(idmap, pairs).tolist()
        except VertexNotFoundError as exc:
            got = exc.position
        if want < 0:
            assert got == [graph.position(v) for v in pairs.reshape(-1).tolist()]
        else:
            assert got == want

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_rows_of_makes_no_numpy_call_that_drops_the_gil(self, sparse, monkeypatch):
        """``searchsorted``, ``take`` and ``arange`` drop the GIL on every
        call: threads serving single queries through them starved a thread
        waiting for the GIL (a ``Thread.start`` took the whole 0.4 s run of
        exp9).  ``rows_of`` is one C call over either id map."""
        graph = _space(sparse).graph
        idmap = build_remap(graph.ids)
        ids = graph.ids[[3, 1, 2]].tolist()
        for name in ("searchsorted", "take", "arange"):
            monkeypatch.setattr(np, name, None)
        assert rows_of(idmap, ids).tolist() == [3, 1, 2]

    @SETTINGS
    @given(data=st.data())
    def test_the_engine_check_names_the_first_missing_vertex(self, space, data):
        pairs = data.draw(batches(space.ids))
        want = python_first_missing(set(space.ids), pairs)
        if want < 0:
            assert space.graph.positions(pairs).tolist() == [
                space.graph.position(v) for v in pairs.reshape(-1).tolist()
            ]
            return
        with pytest.raises(VertexNotFoundError) as excinfo:
            space.graph.positions(pairs)
        assert excinfo.value.position == want
        assert excinfo.value.vertex == pairs.reshape(-1)[want]

    def test_lists_convert_once_and_name_what_is_no_id(self):
        assert pair_ids([(1, 2), [3, 4]]).tolist() == [[1, 2], [3, 4]]
        assert pair_ids([]).shape == (0, 2)
        assert pair_ids(np.zeros((3, 2), dtype=np.int32)).dtype == np.int32
        with pytest.raises(ValueError):
            pair_ids([(1, 2, 3), (4,)])
        with pytest.raises(VertexNotFoundError) as excinfo:
            pair_ids([(1, 2), (3, 2.5)])
        assert (excinfo.value.vertex, excinfo.value.position) == (2.5, 3)
        with pytest.raises(VertexNotFoundError):
            pair_ids([(1, 2**70)])


class TestEntryInputs:
    """What the C entries refuse before they read an id."""

    def test_refusals(self):
        space = _space(sparse=False)
        kernel, store = native_kernel(), space.label
        pairs = np.array([[0, 1], [2, 3]], dtype=np.int64)
        out = np.empty(2)
        cases = [
            (TypeError, (store.capsule, pairs.astype(np.float64), store._remap, out)),
            (TypeError, (store.capsule, pairs.astype(np.uint32), store._remap, out)),
            (TypeError, (store.capsule, pairs, store._remap.astype(np.int32), out)),
            (TypeError, (store.capsule, pairs, np.zeros((3, 4), np.int64), out)),
            (ValueError, (store.capsule, pairs.reshape(-1)[:3], store._remap, out)),
            (ValueError, (store.capsule, pairs, store._remap, np.empty(3))),
        ]
        for error, args in cases:
            with pytest.raises(error):
                kernel.query_ids(*args)
            with pytest.raises(error):
                kernel.search_query_ids(space.search.capsule, *args[1:], 1)
        with pytest.raises(ValueError):
            kernel.map_ids(pairs, store._remap, np.empty(3, dtype=np.int64))

    def test_a_map_row_past_the_store_is_an_index_error(self):
        space = _space(sparse=False)
        kernel = native_kernel()
        remap = np.array([0, 1, 10**6], dtype=np.int64)
        pairs = np.array([[0, 2]], dtype=np.int32)
        with pytest.raises(IndexError):
            kernel.query_ids(space.label.capsule, pairs, remap, np.empty(1))
        with pytest.raises(IndexError):
            kernel.search_query_ids(space.search.capsule, pairs, remap, np.empty(1), 1)

    def test_an_empty_batch_is_answered(self):
        space = _space(sparse=True)
        empty = np.empty((0, 2), dtype=np.int32)
        assert space.label.query_ids(empty).tolist() == []
        assert space.search.query_ids(empty).tolist() == []
