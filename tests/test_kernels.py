"""Frozen query kernels: equivalence, staleness and lifecycle guarantees.

The contract under test (see DESIGN.md §7):

* every index answers scalar and batch queries through the frozen
  flat-array stores of ``repro.kernels``, and the results are
  **bit-identical** to its pure-Python reference hooks (the reference rung
  of ``tests/oracles/queries``) on all nine methods — freshly built and
  after ``apply_batch``;
* a query after an update never reads a pre-freeze store: ``apply_batch``
  invalidates at entry, the kernel epoch advances, and post-update answers
  replay exactly against a fresh Dijkstra oracle;
* the CSR graph snapshot is additionally keyed to ``graph.version`` so even
  out-of-band graph mutation cannot be served from a stale snapshot;
* without the native C kernel a build, a snapshot load and a cluster start
  each raise ``NativeKernelError`` naming the compile command.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import threading
import time
import weakref
from contextlib import contextmanager

import numpy
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.dijkstra import bidijkstra, dijkstra_distance
from repro.exceptions import (
    EdgeNotFoundError,
    InvalidWeightError,
    NativeKernelError,
    SnapshotFormatError,
    StoreNotPublishedError,
    VertexNotFoundError,
)
from repro.graph.generators import grid_road_network
from repro.graph.graph import Graph
from repro.graph.updates import EdgeUpdate, UpdateBatch, generate_update_batch
from repro.hierarchy.ch import ch_bidirectional_query
from repro.kernels.arena import Arena, build_remap
from repro.kernels.graph_snapshot import GraphSnapshot
from repro.kernels.label_store import LabelStore
from repro.kernels.native import native_kernel
from repro.kernels.shortcut_store import ShortcutStore
from repro.registry import create_index, get_spec
from repro.serving.cache import EpochDistanceCache
from repro.serving.engine import ServingEngine
from repro.store.snapshot import load_index, save_index
from repro.throughput.workload import sample_query_pairs
from tests.conftest import label_rows, patch_out_native_kernel
from tests.oracles.queries import reference_rung

#: All nine registered methods with small-graph construction parameters.
NINE_SPECS = {
    "BiDijkstra": get_spec("BiDijkstra"),
    "DCH": get_spec("DCH"),
    "DH2H": get_spec("DH2H"),
    "MHL": get_spec("MHL"),
    "TOAIN": get_spec("TOAIN", checkin_fraction=0.25),
    "N-CH-P": get_spec("N-CH-P", num_partitions=4, seed=0),
    "P-TD-P": get_spec("P-TD-P", num_partitions=4, seed=0),
    "PMHL": get_spec("PMHL", num_partitions=4, seed=0),
    "PostMHL": get_spec("PostMHL", bandwidth=10, expected_partitions=4),
}



def _same_bytes(a, b) -> bool:
    """Two stores whose arenas hold the same bytes under the same TOC."""
    return a.arena.toc == b.arena.toc and numpy.array_equal(a.arena.buffer, b.arena.buffer)


def _query_pairs(graph):
    pairs = list(sample_query_pairs(graph, 60, seed=3))
    # Edge cases: identical endpoints and a repeated source (grouping path).
    pairs += [(0, 0), (7, 7), (0, 5), (0, 9), (0, 13)]
    return pairs


@pytest.fixture(scope="module")
def index_pairs():
    """Every method built twice on the same 10x10 grid: answering through
    its stores, and on the reference rung."""
    base = grid_road_network(10, 10, seed=5)
    built = {}
    for name, spec in NINE_SPECS.items():
        fast = create_index(spec, base.copy())
        fast.build()
        reference = reference_rung(create_index(spec, base.copy()))
        reference.build()
        built[name] = (fast, reference)
    return built


class TestFreshEquivalence:
    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_scalar_bit_identical(self, index_pairs, method):
        fast, reference = index_pairs[method]
        pairs = _query_pairs(fast.graph)
        assert [fast.query(s, t) for s, t in pairs] == [
            reference.query(s, t) for s, t in pairs
        ]

    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_query_many_bit_identical(self, index_pairs, method):
        fast, reference = index_pairs[method]
        pairs = _query_pairs(fast.graph)
        assert fast.query_many(pairs) == reference.query_many(pairs)

    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_query_one_to_many_bit_identical(self, index_pairs, method):
        fast, reference = index_pairs[method]
        pairs = _query_pairs(fast.graph)
        source = pairs[0][0]
        targets = [t for _, t in pairs]
        assert fast.query_one_to_many(source, targets) == reference.query_one_to_many(
            source, targets
        )

    def test_reference_path_freezes_nothing(self, index_pairs):
        for method, (_fast, reference) in index_pairs.items():
            assert reference._kernel_stores == {}, method
            assert reference._graph_snapshot_cache is None, method


class TestPostUpdateEquivalence:
    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_equivalence_and_correctness_after_apply_batch(self, index_pairs, method):
        fast, reference = index_pairs[method]
        pairs = _query_pairs(fast.graph)
        # Warm the frozen stores so the update provably invalidates them.
        fast.query_many(pairs[:5])
        epoch_before = fast.kernel_epoch

        # The two graph copies are identical, so the seeded batches coincide.
        fast.apply_batch(generate_update_batch(fast.graph, volume=12, seed=9))
        reference.apply_batch(generate_update_batch(reference.graph, volume=12, seed=9))
        assert fast.kernel_epoch > epoch_before

        scalar = [fast.query(s, t) for s, t in pairs]
        assert scalar == [reference.query(s, t) for s, t in pairs]
        assert fast.query_many(pairs) == reference.query_many(pairs)
        # Correct, not merely self-consistent: replay against a fresh oracle.
        oracle = [dijkstra_distance(fast.graph, s, t) for s, t in pairs]
        assert all(
            abs(a - b) <= 1e-6 * max(1.0, abs(b)) for a, b in zip(scalar, oracle)
        )


class TestPostSnapshotLoadEquivalence:
    """Snapshot round-trips preserve the kernel contract: a loaded index
    answers bit-identically to the reference path and correctly vs a fresh
    Dijkstra oracle — through stores reattached from the persisted arenas."""

    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_loaded_index_bit_identical_and_correct(self, index_pairs, tmp_path, method):
        fast, reference = index_pairs[method]
        path = str(tmp_path / "snap")
        save_index(fast, path)
        loaded = load_index(path)
        pairs = _query_pairs(loaded.graph)
        scalar = [loaded.query(s, t) for s, t in pairs]
        assert scalar == [reference.query(s, t) for s, t in pairs]
        assert loaded.query_many(pairs) == reference.query_many(pairs)
        source = pairs[0][0]
        targets = [t for _, t in pairs]
        assert loaded.query_one_to_many(source, targets) == reference.query_one_to_many(
            source, targets
        )
        oracle = [dijkstra_distance(loaded.graph, s, t) for s, t in pairs]
        assert all(
            abs(a - b) <= 1e-6 * max(1.0, abs(b)) for a, b in zip(scalar, oracle)
        )

    @pytest.mark.parametrize("method", ("BiDijkstra", "DCH", "DH2H", "TOAIN", "PMHL"))
    def test_loaded_stores_share_snapshot_mmap(self, tmp_path, method):
        """Warm-started stores execute over the snapshot's mmap'd buffers —
        the property cluster shards rely on to share one physical copy."""
        index = create_index(NINE_SPECS[method], grid_road_network(8, 8, seed=2))
        index.build()
        path = str(tmp_path / "snap")
        save_index(index, path)
        loaded = load_index(path)
        stores = {
            key: freezer() for key, freezer in loaded._kernel_exports().items()
        }
        assert stores, method
        for key, store in stores.items():
            assert store is not None, (method, key)
            arena = getattr(store, "arena", None)
            assert arena is not None, (method, key)
            assert arena.is_shared(), (method, key)


class TestStaleness:
    def test_update_invalidates_frozen_label_store(self):
        graph = grid_road_network(8, 8, seed=2)
        index = create_index("DH2H", graph)
        index.build()
        pairs = _query_pairs(graph)
        index.query_many(pairs)  # freeze
        store_before = index._kernel_stores.get("labels")
        assert store_before is not None

        index.apply_batch(generate_update_batch(graph, volume=10, seed=4))
        # The pre-update store is gone; the next query freezes a new one and
        # answers from post-update state.
        assert index._kernel_stores.get("labels") is None or (
            index._kernel_stores["labels"] is not store_before
        )
        after = index.query_many(pairs)
        assert index._kernel_stores["labels"] is not store_before
        oracle = [dijkstra_distance(graph, s, t) for s, t in pairs]
        assert all(
            abs(a - b) <= 1e-6 * max(1.0, abs(b)) for a, b in zip(after, oracle)
        )

    def test_graph_snapshot_tracks_out_of_band_mutation(self):
        graph = grid_road_network(6, 6, seed=1)
        index = create_index("BiDijkstra", graph)
        index.build()
        # The snapshot search is a literal port of the live bidirectional one.
        assert index.query(0, 35) == bidijkstra(graph, 0, 35)
        # Mutate the graph directly — no apply_batch, no kernel invalidation.
        # A weight change keeps the CSR layout (the stale snapshot is the
        # refreeze's template); the topology never changes.
        u, v, w = next(iter(graph.edges()))
        graph.set_edge_weight(u, v, w * 3.5)
        assert index.query(0, 35) == bidijkstra(graph, 0, 35)
        a, b, c = list(graph.edges())[-1]
        graph.set_edge_weight(a, b, c / 4)
        graph.set_edge_weight(u, v, w)
        assert index.query(0, 35) == bidijkstra(graph, 0, 35)
        snapshot = index._graph_snapshot()
        assert _same_bytes(snapshot, GraphSnapshot.freeze(graph))

    def test_serving_engine_never_reads_pre_freeze_store(self):
        graph = grid_road_network(8, 8, seed=7)
        index = create_index("MHL", graph)
        with ServingEngine(index, cache_capacity=0) as engine:
            pairs = _query_pairs(graph)[:10]
            for s, t in pairs:
                engine.serve(s, t)  # freezes epoch-0 stores
            for seed in (11, 12):
                engine.submit_batch(generate_update_batch(graph, volume=8, seed=seed))
            assert engine.wait_for_maintenance(timeout=60)
            for s, t in pairs:
                result = engine.serve(s, t)
                oracle = dijkstra_distance(engine.graph_at(result.epoch), s, t)
                assert abs(result.distance - oracle) <= 1e-6 * max(1.0, abs(oracle))
        assert engine.maintenance_errors == []


class TestWithoutNativeKernel:
    """The C kernel is a dependency: with the loader in its failed state (a
    machine without a compiler) a build and a snapshot load each raise
    ``NativeKernelError`` naming the compile command and the failure,
    before they write anything."""

    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_build_and_load_raise_the_typed_error(self, method, monkeypatch, tmp_path):
        from repro.kernels import native

        spec = NINE_SPECS[method]
        saved = create_index(spec, grid_road_network(6, 6, seed=3))
        saved.build()
        snapshot = str(tmp_path / "snap")
        save_index(saved, snapshot)
        command = " ".join(native._compile_command(native._SOURCE_PATH, ""))

        patch_out_native_kernel(monkeypatch)
        index = create_index(spec, grid_road_network(6, 6, seed=3))
        for call in (index.build, lambda: load_index(snapshot)):
            with pytest.raises(NativeKernelError) as error:
                call()
            assert command.split(" -o ")[0] in str(error.value)
            assert "patched out by the test" in str(error.value)
        assert not index.is_built
        with pytest.raises(NativeKernelError):
            native.native_kernel()
        assert native.native_kernel_error() == "patched out by the test"


class TestNativeCompileCache:
    def test_build_tag_keyed_by_source_hash(self, monkeypatch):
        """An edited kernel source can never be served a stale binary: the
        cache directory embeds a hash of the exact source bytes."""
        from repro.kernels import native

        monkeypatch.delenv("REPRO_KERNEL_CFLAGS", raising=False)
        tag = native._build_tag(b"int answer(void) { return 42; }")
        edited = native._build_tag(b"int answer(void) { return 43; }")
        assert tag != edited
        assert native._build_tag(b"int answer(void) { return 42; }") == tag

    def test_build_tag_keyed_by_extra_cflags(self, monkeypatch):
        from repro.kernels import native

        monkeypatch.delenv("REPRO_KERNEL_CFLAGS", raising=False)
        plain = native._build_tag(b"source")
        monkeypatch.setenv("REPRO_KERNEL_CFLAGS", "-Wall -Werror")
        strict = native._build_tag(b"source")
        assert plain != strict


class TestArenaRoundTrip:
    def test_pack_views_and_state_roundtrip(self, tmp_path):
        from repro.kernels.arena import Arena
        from repro.store.arrays import ArrayWriter, open_payload

        arrays = {
            "ids": numpy.arange(7, dtype=numpy.int64),
            "weights": numpy.linspace(0.0, 1.0, 13),
            "flags": numpy.asarray([1, 0, 1], dtype=numpy.uint8),
        }
        arena = Arena.pack(arrays)
        for name, expected in arrays.items():
            assert numpy.array_equal(arena[name], expected)
            # Zero-copy views into the one buffer at 64-byte offsets.
            assert arena[name].base is not None
            offset = arena[name].ctypes.data - arena.buffer.ctypes.data
            assert offset % 64 == 0
            assert arena[name].ctypes.data % 8 == 0

        writer = ArrayWriter()
        state = arena.to_state(writer)
        toc = writer.write(str(tmp_path))
        reader = open_payload(str(tmp_path), writer.filename, "arena", toc)
        loaded = Arena.from_state(state, reader)
        for name, expected in arrays.items():
            assert numpy.array_equal(loaded[name], expected)
        # The payload is one arena over one mapping, so the loaded arena is
        # a view over the snapshot's mmap — shared, not copied.
        assert loaded.is_shared()

    def test_payload_entries_are_aligned_views_of_one_mapping(self, tmp_path):
        """Every payload entry — whatever odd sizes precede it — comes back
        as a 64-byte-aligned view of the one mapping of the payload file
        (the property the arena and the C kernels depend on)."""
        from repro.store.arrays import ArrayWriter, open_payload

        writer = ArrayWriter()
        sizes = (1, 3, 7, 11, 2, 0, 5)
        refs = [writer.put_ints(list(range(size))) for size in sizes]
        toc = writer.write(str(tmp_path))
        reader = open_payload(str(tmp_path), writer.filename, "arena", toc)
        mapping = reader.arena.buffer
        assert isinstance(mapping, numpy.memmap)
        assert mapping.ctypes.data % 64 == 0
        for ref, size in zip(refs, sizes):
            entry = reader.get_array(ref)
            assert entry.tolist() == list(range(size))
            assert entry.base is not None and numpy.shares_memory(entry, mapping) == (size > 0)
            assert entry.ctypes.data % 64 == 0
        # The file ends where its last entry does.
        name, dtype, offset, count = toc[-1]
        assert mapping.nbytes == offset + count * numpy.dtype(dtype).itemsize

    @pytest.mark.parametrize(
        "entry",
        [("a", "int64", 8, 1), ("a", "int64", 0, -1), ("a", "object", 0, 1),
         ("a", "int64", 64, 9)],
        ids=["misaligned", "negative-count", "object-dtype", "past-the-end"],
    )
    def test_arena_refuses_a_bad_entry(self, entry):
        from repro.kernels.arena import Arena

        with pytest.raises(ValueError):
            Arena(numpy.zeros(128, dtype=numpy.uint8), [entry])


#: Every method that freezes a ShortcutStore, and the query stage that reads it.
CH_STAGES = {
    "DCH": "query",
    "MHL": "query_ch",
    "TOAIN": "query",
    "N-CH-P": "query",
    "PMHL": "query_pch",
    "PostMHL": "query_pch",
}


def _csr_store(rows):
    """A hand-built ShortcutStore arena: ``rows[r]`` = [(row, weight), ...]."""
    indptr = [0]
    indices, weights = [], []
    for row in rows:
        indices += [u for u, _ in row]
        weights += [w for _, w in row]
        indptr.append(len(indices))
    return Arena.pack(
        {
            "ids": numpy.arange(len(rows), dtype=numpy.int64),
            "indptr": numpy.asarray(indptr, dtype=numpy.int64),
            "indices": numpy.asarray(indices, dtype=numpy.int64),
            "weights": numpy.asarray(weights, dtype=numpy.float64),
        }
    )


#: Upward rows 0 -> 1 -> 2 with the fill arc 0 -> 2: an elimination tree.
CHORDAL_ROWS = [[(1, 1.0), (2, 4.0)], [(2, 2.0)], []]
#: Not elimination trees: an arc to an earlier row, and 0's upward neighbour
#: 3 missing from its parent 1's row (the fill arc 1 -> 3 is absent).
DOWNWARD_ROWS = [[(1, 1.0)], [(0, 1.0), (2, 2.0)], []]
MISSING_FILL_ROWS = [[(1, 1.0), (3, 5.0)], [(2, 2.0)], [(3, 1.0)], []]


@st.composite
def tree_query_graphs(draw):
    """Small graphs with scattered ids and duplicate edges: half of them
    connected by a random spanning path, the rest whatever the random edges
    leave (isolated vertices, several components).  Returns
    ``(vertices, edges)``."""
    ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=14, unique=True))
    weights = st.one_of(st.integers(1, 9).map(float), st.floats(0.01, 50.0))
    edges = []
    if draw(st.booleans()):
        path = draw(st.permutations(ids))
        edges += [(u, v, draw(weights)) for u, v in zip(path, path[1:])]
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids), weights)
    edges += [(u, v, w) for u, v, w in draw(st.lists(pairs, max_size=40)) if u != v]
    return ids, edges


def _upward(store):
    """The store's rows as the reference's upward mapping, in CSR order."""
    arena = store.arena
    ids, indptr = arena["ids"].tolist(), arena["indptr"].tolist()
    indices, weights = arena["indices"].tolist(), arena["weights"].tolist()
    return {
        ids[r]: {ids[c]: w for c, w in zip(indices[indptr[r]:indptr[r + 1]],
                                           weights[indptr[r]:indptr[r + 1]])}
        for r in range(len(ids))
    }

class TestEliminationTreeQuery:
    """The CH query walks the elimination tree of every shortcut store: each
    store any method freezes passes the kernel's tree check, and its answers
    equal the reference rung's bit for bit, fresh and after every kind of
    batch."""

    @pytest.mark.parametrize("method", sorted(CH_STAGES))
    def test_every_store_is_a_tree_and_bit_identical(self, method):
        spec = NINE_SPECS[method]
        base = grid_road_network(12, 12, seed=4)
        fast = create_index(spec, base.copy())
        fast.build()
        reference = reference_rung(create_index(spec, base.copy()))
        reference.build()
        pairs = _query_pairs(base)
        stage = CH_STAGES[method]
        schedule = [("fresh", None), ("increase", 0.0), ("decrease", 1.0), ("mixed", 0.5)]
        for seed, (name, decrease_fraction) in enumerate(schedule, start=20):
            if decrease_fraction is not None:
                for index in (fast, reference):
                    index.apply_batch(generate_update_batch(
                        index.graph, volume=12, seed=seed, decrease_fraction=decrease_fraction
                    ))
            answers = [getattr(fast, stage)(s, t) for s, t in pairs]
            assert answers == [getattr(reference, stage)(s, t) for s, t in pairs], name
            assert fast.query_many(pairs) == reference.query_many(pairs), name
            stores = {
                key: store for key, store in fast._kernel_stores.items()
                if isinstance(store, ShortcutStore)
            }
            assert stores, (method, name)
            for key, store in stores.items():
                assert native_kernel().search_is_tree(store.capsule), (method, name, key)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tree_query_graphs(), st.randoms(use_true_random=False))
    def test_random_graphs_match_the_upward_dijkstra(self, spec, rng):
        """Every ordered pair of a random graph -- so ``s == t`` and both
        directions of every ancestor pair -- through the scalar entry,
        ``query_pairs`` and ``one_to_many``, equals ``ch_bidirectional_query``
        over the same rows bit for bit; then the same pairs again in reverse
        order on the same capsule, so a scratch row a query left dirty
        changes a later answer."""
        vertices, edges = spec
        us, vs, ws = zip(*edges) if edges else ((), (), ())
        index = create_index("DCH", Graph.from_edges(us, vs, ws, vertices=vertices))
        index.build()
        store = index._shortcut_store()
        kernel = native_kernel()
        assert kernel.search_is_tree(store.capsule)
        upward = _upward(store)
        pairs = [(s, t) for s in vertices for t in vertices]
        rng.shuffle(pairs)
        expected = {
            pair: ch_bidirectional_query(*pair, upward.__getitem__).hex() for pair in pairs
        }
        for order in (pairs, pairs[::-1]):
            want = [expected[pair] for pair in order]
            scalar = [kernel.search_query(store.capsule, store.row[s], store.row[t], 1)
                      for s, t in order]
            assert [d.hex() for d in scalar] == want
            assert [d.hex() for d in store.query_pairs(order)] == want
            for source in vertices:
                targets = [t for s, t in order if s == source]
                assert [d.hex() for d in store.one_to_many(source, targets)] == [
                    expected[source, t] for t in targets
                ]

    def test_source_equals_target(self):
        index = create_index("DCH", grid_road_network(6, 6, seed=1))
        index.build()
        store = index._shortcut_store()
        vertices = list(index.graph.vertices())
        # query_pairs reaches the C body; the scalar call short-circuits.
        assert store.query_pairs([(v, v) for v in vertices]) == [0.0] * len(vertices)
        row = store.row[vertices[3]]
        assert native_kernel().search_query(store.capsule, row, row, 1) == 0.0

    def test_disconnected_forest_is_inf_on_both_rungs(self):
        edges = []
        for offset in (0, 100):  # two 3x3 grids with no edge between them
            for r in range(3):
                for c in range(3):
                    v = offset + 3 * r + c
                    if c:
                        edges.append((v - 1, v, 1.0 + c))
                    if r:
                        edges.append((v - 3, v, 2.0 + r))
        graph = Graph.from_edges(*zip(*edges))
        fast = create_index("DCH", graph.copy())
        fast.build()
        reference = reference_rung(create_index("DCH", graph.copy()))
        reference.build()
        store = fast._shortcut_store()
        assert native_kernel().search_is_tree(store.capsule)
        roots = numpy.count_nonzero(numpy.diff(store.arena["indptr"]) == 0)
        assert roots == 2
        vertices = sorted(graph.vertices())
        pairs = [(s, t) for s in vertices for t in vertices]
        expected = [reference.query(s, t) for s, t in pairs]
        assert store.query_pairs(pairs) == expected
        assert [fast.query(s, t) for s, t in pairs] == expected
        assert expected[vertices.index(100)] == float("inf")  # (0, 100)

    def test_hand_built_chordal_rows_walk_the_tree(self):
        store = ShortcutStore(_csr_store(CHORDAL_ROWS))
        assert native_kernel().search_is_tree(store.capsule)
        upward = {v: dict(row) for v, row in enumerate(CHORDAL_ROWS)}
        pairs = [(s, t) for s in range(3) for t in range(3)]
        assert store.query_pairs(pairs) == [
            ch_bidirectional_query(s, t, upward.__getitem__) for s, t in pairs
        ]

    @pytest.mark.parametrize("rows", [DOWNWARD_ROWS, MISSING_FILL_ROWS],
                             ids=["downward-arc", "missing-fill-arc"])
    def test_non_chordal_rows_are_refused(self, rows, tmp_path):
        kernel = native_kernel()
        arena = _csr_store(rows)
        capsule = kernel.search_build(
            arena["ids"], arena["indptr"], arena["indices"], arena["weights"]
        )
        assert not kernel.search_is_tree(capsule)
        # The graph-snapshot search (ch_mode 0) still runs over any CSR ...
        assert kernel.search_query(capsule, 0, 1, 0) == 1.0
        # ... but there is no CH query without an elimination tree.
        with pytest.raises(ValueError):
            kernel.search_query(capsule, 0, 1, 1)
        out = numpy.empty(1)
        ids = arena["ids"][:2].reshape(1, 2)
        with pytest.raises(ValueError):
            kernel.search_query_ids(capsule, ids, build_remap(arena["ids"]), out, 1)
        with pytest.raises(ValueError):
            ShortcutStore(arena)

        from repro.store.arrays import ArrayWriter, open_payload
        from repro.store.snapshot import _unpack_kernels

        writer = ArrayWriter()
        state = {"ch": dict(arena.to_state(writer), kind="shortcut_store")}
        toc = writer.write(str(tmp_path))
        reader = open_payload(str(tmp_path), writer.filename, "arena", toc)
        with pytest.raises(SnapshotFormatError):
            _unpack_kernels(state, reader, Graph.from_edges(vertices=range(len(rows))))

    def test_loaded_and_adopted_stores_stay_trees(self, tmp_path):
        from repro.store.snapshot import load_stores, save_stores

        index = create_index("DCH", grid_road_network(8, 8, seed=2))
        index.build()
        path = str(tmp_path / "snap")
        save_index(index, path)
        loaded = load_index(path)
        store = loaded._shortcut_store()
        assert store.arena.is_shared()
        assert native_kernel().search_is_tree(store.capsule)

        reader = load_index(path)
        index.apply_batch(generate_update_batch(index.graph, volume=10, seed=3))
        _epoch, stores = load_stores(
            save_stores(index, str(tmp_path / "stores-000001"), epoch=1), reader.graph
        )
        reader.adopt_stores(stores)
        adopted = reader._shortcut_store()
        assert adopted.arena.is_shared()
        assert native_kernel().search_is_tree(adopted.capsule)
        pairs = _query_pairs(index.graph)
        assert reader.query_many(pairs) == index.query_many(pairs)


def _grid_capsule(side):
    """A ``side`` x ``side`` grid as a search-graph capsule built in numpy,
    with symmetric weights: BiDijkstra from corner to corner settles nearly
    every row."""
    n = side * side
    cell = numpy.arange(n, dtype=numpy.int64).reshape(side, side)
    a = numpy.concatenate([cell[:, :-1].ravel(), cell[:-1, :].ravel()])
    b = numpy.concatenate([cell[:, 1:].ravel(), cell[1:, :].ravel()])
    src, dst = numpy.concatenate([a, b]), numpy.concatenate([b, a])
    order = numpy.argsort(src, kind="stable")
    indptr = numpy.zeros(n + 1, dtype=numpy.int64)
    numpy.cumsum(numpy.bincount(src, minlength=n), out=indptr[1:])
    weights = 1.0 + (src + dst)[order] % 7
    return native_kernel().search_build(
        numpy.arange(n, dtype=numpy.int64), indptr, dst[order], weights
    )


def _chain_capsule(n):
    """Rows 0 -> 1 -> ... -> n - 1, every arc upward: an elimination tree
    whose CH query (0, 1) walks all n rows."""
    return native_kernel().search_build(
        numpy.arange(n, dtype=numpy.int64),
        numpy.minimum(numpy.arange(n + 1), n - 1).astype(numpy.int64),
        numpy.arange(1, n, dtype=numpy.int64),
        numpy.ones(n - 1),
    )


_HEAP_CANNOT_GROW = """
import resource
import numpy
from repro.kernels.native import native_kernel
from repro.serving.cache import EpochDistanceCache

kernel, leaves = native_kernel(), 300_000
star = kernel.search_build(
    numpy.arange(leaves + 1),
    numpy.concatenate([[0], numpy.arange(leaves, 2 * leaves + 1)]),
    numpy.concatenate([numpy.arange(1, leaves + 1), numpy.zeros(leaves, numpy.int64)]),
    numpy.ones(2 * leaves),
)
ids, remap = numpy.array([[0, 1]]), numpy.arange(leaves + 1)
out, stages, cache = numpy.empty(1), numpy.empty(1, numpy.uint8), EpochDistanceCache(4)


def search(misses):
    found = numpy.empty(len(misses))
    kernel.search_query_ids(star, misses, remap, found, 0)
    return found


kernel.search_query(star, 5, 5, 0)  # allocates the scratch; the heap stays empty
with open("/proc/self/status") as status:
    mapped = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (mapped * 1024 + (4 << 20), hard))
for call in (
    lambda: kernel.search_query(star, 0, 1, 0),
    lambda: cache.answer(ids, 0, search, out, stages),
):
    try:
        call()
        print("answered")
    except MemoryError:
        print("MemoryError")
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
print("empty" if len(cache) == 0 else "filled", f"misses={cache.stats.misses}")
cache.answer(ids, 0, search, out, stages)
print(kernel.search_query(star, 0, 1, 0), out[0], "filled" if (0, 1) in cache else "empty")
"""


@contextmanager
def _switch_interval(seconds):
    previous = sys.getswitchinterval()
    sys.setswitchinterval(seconds)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _ticks_during(call):
    """Run ``call`` while another Python thread ticks every 0.1 ms; returns
    the call's start and end and the tick times.  The switch interval is
    1 ms while it runs."""
    ticks, stop = [], threading.Event()

    def tick():
        last = 0.0
        while not stop.is_set():
            now = time.perf_counter()
            if now - last >= 1e-4:
                ticks.append(now)
                last = now

    ticker = threading.Thread(target=tick, daemon=True)
    with _switch_interval(1e-3):
        ticker.start()
        try:
            while not ticks:
                time.sleep(1e-3)
            start = time.perf_counter()
            call()
            end = time.perf_counter()
        finally:
            stop.set()
            ticker.join(10.0)
    assert not ticker.is_alive()
    return start, end, ticks


class TestSearchesReleaseTheGIL:
    """The search entries run their loops without the GIL: another Python
    thread keeps running through a long call, threads that share one capsule
    still get the serial answers (each capsule's scratch has its own lock),
    and a failure inside the loop is a typed error once the GIL is back."""

    GRID_SIDE = 500
    CHAIN_ROWS = 300_000

    @pytest.fixture(scope="class")
    def grid(self):
        return _grid_capsule(self.GRID_SIDE)

    @pytest.fixture(scope="class")
    def chain(self):
        return _chain_capsule(self.CHAIN_ROWS)

    @pytest.mark.parametrize("entry", [
        "search_query", "query_ids_bidijkstra", "query_ids_tree", "query_ids_tree_cached",
        "one_to_many",
    ])
    def test_a_python_thread_runs_through_a_long_call(self, entry, grid, chain):
        """Each call searches for tens of milliseconds (the whole grid, or the
        300 000-row chain 64 times; through a distance cache, the 64 pairs
        are misses, probed before the search and filled after it, each in a
        call of its own).  A call
        that holds the GIL leaves one
        gap in the ticks as long as the kernel ran, between a hand-over
        before it and one after it; a call that releases it leaves gaps of
        at most a few switch intervals."""
        kernel = native_kernel()
        last = self.GRID_SIDE ** 2 - 1
        one = numpy.full(1, last, dtype=numpy.int64)
        out = numpy.full(64, numpy.nan)
        # Both capsules' ids are their rows: the identity is the dense remap.
        grid_ids, chain_ids = numpy.arange(last + 1), numpy.arange(self.CHAIN_ROWS)
        cache, stages = EpochDistanceCache(8), numpy.zeros(64, dtype=numpy.uint8)

        def search_chain(misses):
            found = numpy.empty(len(misses))
            kernel.search_query_ids(chain, misses, chain_ids, found, 1)
            return found

        calls = {
            "search_query": lambda: out.__setitem__(0, kernel.search_query(grid, 0, last, 0)),
            "query_ids_bidijkstra": lambda: kernel.search_query_ids(
                grid, numpy.array([[0, last]]), grid_ids, out[:1], 0
            ),
            "query_ids_tree": lambda: kernel.search_query_ids(
                chain, numpy.tile([0, 1], (64, 1)), chain_ids, out, 1,
            ),
            "query_ids_tree_cached": lambda: cache.answer(
                numpy.tile([0, 1], (64, 1)), 0, search_chain, out, stages,
            ),
            "one_to_many": lambda: kernel.search_one_to_many(grid, 0, one, out[:1]),
        }
        start, end, ticks = _ticks_during(calls[entry])
        tree = entry.startswith("query_ids_tree")
        expected = 1.0 if tree else kernel.search_query(grid, 0, last, 0)
        assert numpy.all(out[:64 if tree else 1] == expected)
        if entry == "query_ids_tree_cached":
            assert stages.all() and cache.get(0, 1, 0) == 1.0
        span = end - start
        assert span > 10e-3, "the call is too short to tell"
        points = [start] + [tick for tick in ticks if start < tick < end] + [end]
        longest = max(b - a for a, b in zip(points, points[1:]))
        assert longest < span / 2, (
            f"no tick for {1e3 * longest:.1f} ms of a {1e3 * span:.1f} ms call"
        )

    def test_a_row_changed_mid_call_is_an_index_error(self, grid):
        """One-to-many reads the caller's rows in its GIL-free loop (the
        batch entry maps ids into a private buffer first): a row another
        thread puts out of range while the loop runs is caught by the loop
        and raised as IndexError after the GIL is back, with the targets
        before it answered."""
        kernel = native_kernel()
        last = self.GRID_SIDE ** 2 - 1
        t_rows = numpy.full(64, last, dtype=numpy.int64)
        out = numpy.full(64, numpy.nan)
        go = threading.Event()

        def corrupt():
            go.wait(10.0)
            time.sleep(5e-3)  # well inside the call's sweep of the whole grid
            t_rows[-1] = last + 1

        thread = threading.Thread(target=corrupt, daemon=True)
        thread.start()
        go.set()
        with pytest.raises(IndexError, match="row out of range"):
            kernel.search_one_to_many(grid, 0, t_rows, out)
        thread.join(10.0)
        assert not thread.is_alive()
        expected = kernel.search_query(grid, 0, last, 0)
        assert out[0] == expected and numpy.isnan(out[-1])
        # The capsule's scratch is clean and its lock free for the next call.
        t_rows[-1] = last
        kernel.search_one_to_many(grid, 0, t_rows, out)
        assert numpy.all(out == expected)

    def test_rows_out_of_range_are_refused_before_any_search(self, grid):
        """A batch with a row out of range answers none of its pairs, not
        the ones before that row (here the id map names a row past the
        graph for id 1)."""
        kernel = native_kernel()
        rows = numpy.array([1, self.GRID_SIDE ** 2], dtype=numpy.int64)
        out = numpy.full(2, numpy.nan)
        with pytest.raises(IndexError):
            kernel.search_query_ids(grid, numpy.array([[0, 0], [0, 1]]), rows, out, 0)
        with pytest.raises(IndexError):
            kernel.search_one_to_many(grid, 0, rows, out)
        assert numpy.isnan(out).all()

    def test_a_heap_that_cannot_grow_is_a_memory_error(self):
        """``SEARCH_NO_MEMORY``: a heap that cannot grow inside the GIL-free
        loop is a MemoryError once the GIL is back, the cache is not filled,
        and the capsule answers again once memory is there.  A child process
        caps its own address space just above what it maps, after the
        search's scratch is allocated, then searches from the centre of a
        300 000-leaf star, whose first step pushes every leaf (a 7 MiB
        heap).  An ASan build's allocator returns the NULL too
        (``allocator_may_return_null``) instead of ending the child."""
        options = os.environ.get("ASAN_OPTIONS", "")
        child = subprocess.run(
            [sys.executable, "-c", _HEAP_CANNOT_GROW], capture_output=True, text=True,
            timeout=120, env={
                **os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                "ASAN_OPTIONS": f"{options}:allocator_may_return_null=1".lstrip(":"),
            },
        )
        assert child.returncode == 0, (child.returncode, child.stdout, child.stderr)
        assert child.stdout.split() == [
            "MemoryError", "MemoryError", "empty", "misses=1", "1.0", "1.0", "filled",
        ], child.stdout

    def test_threads_sharing_capsules_get_the_serial_answers(self):
        """Four threads mix batch, scalar and one-to-many calls on one DCH
        shortcut store and one graph snapshot while the GIL changes hands
        every microsecond: every answer equals the serial one bit for bit."""
        graph = grid_road_network(24, 24, seed=3)
        index = create_index("DCH", graph)
        index.build()
        store, snapshot = index._shortcut_store(), index._graph_snapshot()
        kernel = native_kernel()
        pairs = list(sample_query_pairs(graph, 120, seed=4))
        sources = sorted({s for s, _ in pairs})[:6]
        targets = [t for _, t in pairs[:30]]
        ids = numpy.array(pairs, dtype=numpy.int64)

        def snapshot_pairs():
            out = numpy.empty(len(pairs))
            kernel.search_query_ids(snapshot.capsule, ids, snapshot._remap, out, 0)
            return out.tolist()

        calls = {
            "store.query_pairs": lambda: store.query_pairs(pairs),
            "store.query": lambda: [store.query(s, t) for s, t in pairs[:30]],
            "store.one_to_many": lambda: [store.one_to_many(s, targets) for s in sources],
            "snapshot.query_pairs": snapshot_pairs,
            "snapshot.bidijkstra": lambda: [snapshot.bidijkstra(s, t) for s, t in pairs[:30]],
            "snapshot.one_to_many": lambda: [snapshot.one_to_many(s, targets) for s in sources],
        }
        serial = {name: call() for name, call in calls.items()}
        wrong, errors = [], []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(40):
                    name = rng.choice(sorted(calls))
                    if calls[name]() != serial[name]:
                        wrong.append(name)
            except Exception as exc:  # reported below, not swallowed
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        with _switch_interval(1e-6):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and wrong == []
        assert serial["store.query_pairs"] == pytest.approx(serial["snapshot.query_pairs"])


class TestKernelSpeedup:
    def test_h2h_family_batch_at_least_2x_faster(self):
        """Conservative CI bar; bench_kernels.py records the real (~5-10x) gap."""
        base = grid_road_network(14, 14, seed=5)
        fast = create_index("DH2H", base.copy())
        fast.build()
        reference = reference_rung(create_index("DH2H", base.copy()))
        reference.build()
        pairs = list(sample_query_pairs(base, 3000, seed=6))
        fast.query_many(pairs[:4])  # freeze outside the timed region

        start = time.perf_counter()
        batch = fast.query_many(pairs)
        fast_seconds = time.perf_counter() - start
        start = time.perf_counter()
        expected = reference.query_many(pairs)
        reference_seconds = time.perf_counter() - start

        assert batch == expected
        assert fast_seconds > 0
        assert reference_seconds / fast_seconds >= 2.0, (
            f"kernel batch path only {reference_seconds / fast_seconds:.2f}x faster "
            f"({reference_seconds:.4f}s reference vs {fast_seconds:.4f}s kernels)"
        )

    def test_ch_search_kernel_at_least_2x_faster(self):
        """Conservative CI bar for the native CH query kernel; bench_kernels.py
        records the real gap on a bigger graph (DCH scalar ~300x at 52x52 in
        BENCH_kernels.json)."""
        base = grid_road_network(18, 18, seed=5)
        fast = create_index("DCH", base.copy())
        fast.build()
        reference = reference_rung(create_index("DCH", base.copy()))
        reference.build()
        pairs = list(sample_query_pairs(base, 300, seed=6))
        fast.query(*pairs[0])  # freeze outside the timed region

        start = time.perf_counter()
        scalar = [fast.query(s, t) for s, t in pairs]
        fast_seconds = time.perf_counter() - start
        start = time.perf_counter()
        expected = [reference.query(s, t) for s, t in pairs]
        reference_seconds = time.perf_counter() - start

        assert scalar == expected
        assert fast_seconds > 0
        assert reference_seconds / fast_seconds >= 2.0, (
            f"CH-search kernel only {reference_seconds / fast_seconds:.2f}x faster "
            f"({reference_seconds:.4f}s reference vs {fast_seconds:.4f}s kernels)"
        )


class TestMaintenanceKernels:
    """The C maintenance passes against their oracles on inputs no index
    builds."""

    def test_int_weighted_graph_labels_equal_the_oracle(self, oracle_maintenance):
        """Int weights enter the flat contraction as the float64 values they
        denote (its ``base`` and ``weights`` are float64 arrays), so both
        rungs maintain the same floats."""
        from repro.graph.updates import EdgeUpdate, UpdateBatch
        from tests.conftest import float_bits

        native_kernel()

        def build_and_update():
            us, vs, _ = zip(*grid_road_network(6, 6, seed=5).edges())
            # The builder stores the int weights as the float64s they denote.
            graph = Graph.from_edges(us, vs, [1 + (u * v) % 7 for u, v in zip(us, vs)])
            index = create_index("DH2H", graph)
            index.build()
            (u, v, w), (a, b, c) = list(graph.edges())[:2]
            index.apply_batch(
                UpdateBatch([EdgeUpdate(u, v, w, w + 5), EdgeUpdate(a, b, c, c / 2)])
            )
            return index

        native = build_and_update()
        oracle_maintenance()
        oracle = build_and_update()

        def bits(index):
            return (
                {v: float_bits(row) for v, row in label_rows(index.labels).items()},
                float_bits(index.contraction.arena["weights"]),
            )

        assert bits(native) == bits(oracle)


# ----------------------------------------------------------------------
# Endpoint validation of every index's stage queries
# ----------------------------------------------------------------------
class TestStageEndpoints:
    """Every stage of every index raises the typed error for an unknown
    vertex, through its stores and on the reference rung, also when it is
    both endpoints; so does every entry point of every label and shortcut
    store those stages froze."""

    @pytest.mark.parametrize("rung", ("kernels", "reference"))
    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_unknown_vertex_raises_at_every_stage(self, method, rung):
        index = create_index(NINE_SPECS[method], grid_road_network(8, 8, seed=3))
        if rung == "reference":
            reference_rung(index)
        index.build()
        missing = 10_000
        for stage in index.stage_catalog():
            for source, target in ((missing, missing), (missing, 5), (5, missing)):
                with pytest.raises(VertexNotFoundError):
                    stage.query(source, target)
            assert stage.query(5, 5) == 0.0
            stage.query(0, 63)  # freezes the stores the stage reads
        stores = [
            store for store in index._kernel_stores.values()
            if isinstance(store, (LabelStore, ShortcutStore))
        ]
        assert bool(stores) == (rung == "kernels" and method != "BiDijkstra")
        for store in stores:
            for call in (
                lambda: store.query(missing, 5),
                lambda: store.one_to_many(missing, [5]),
                lambda: store.one_to_many(missing, []),
                lambda: store.one_to_many(5, [missing]),
                lambda: store.query_pairs([(5, 5), (missing, missing)]),
            ):
                with pytest.raises(VertexNotFoundError):
                    call()


# ----------------------------------------------------------------------
# Refreeze by gather (DESIGN.md §7)
# ----------------------------------------------------------------------
def _warm(index, pairs):
    """Freeze every store the index's query paths read: each stage, the
    batch plane and the graph snapshot."""
    for stage in index.stage_catalog():
        for s, t in pairs:
            stage.query(s, t)
    index.query_many(pairs)
    index.query_bidijkstra(*pairs[0])


def _frozen(index):
    """The arena-backed stores of the current epoch, graph snapshot included."""
    stores = {
        key: store for key, store in index._kernel_stores.items()
        if getattr(store, "arena", None) is not None
    }
    if index._graph_snapshot_cache is not None:
        stores["__graph__"] = index._graph_snapshot_cache
    return stores


#: Increase-only, decrease-only and mixed batches: (decrease_fraction, seed).
BATCH_KINDS = ((0.0, 21), (1.0, 22), (0.5, 23))


class TestRefreezeGather:
    """A new epoch's store reuses the previous epoch's layout: contraction
    and label stores wrap the arena their pass wrote, the graph snapshot is
    patched at the batch's slots.  Each is byte-identical to a full freeze
    and leaves the old epoch's store untouched."""

    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_gathered_stores_equal_a_full_freeze(self, method):
        spec = NINE_SPECS[method]
        base = grid_road_network(10, 10, seed=5)
        index = create_index(spec, base.copy())
        index.build()
        pairs = _query_pairs(index.graph)[:20]
        _warm(index, pairs)
        batches = []
        for fraction, seed in BATCH_KINDS:
            batch = generate_update_batch(
                index.graph, volume=12, seed=seed, decrease_fraction=fraction
            )
            batches.append(batch)
            before = _frozen(index)
            index.apply_batch(batch)
            _warm(index, pairs)
            after = _frozen(index)
            assert after.keys() == before.keys(), (method, fraction)
            # The reference froze nothing before this epoch: every store it
            # holds is a full freeze, from scratch.
            reference = create_index(spec, base.copy())
            reference.build()
            for earlier in batches:
                reference.apply_batch(earlier)
            _warm(reference, pairs)
            full = _frozen(reference)
            assert full.keys() == after.keys(), (method, fraction)
            for key, store in after.items():
                assert store is not before[key], (method, key)
                assert _same_bytes(store, full[key]), (method, fraction, key)
                if isinstance(store, (ShortcutStore, GraphSnapshot)):
                    # Reused: the template's row dict, not a rebuilt one.
                    assert store.row is before[key].row, (method, key)
                    assert store.row is not full[key].row, (method, key)

    def test_old_epoch_store_is_untouched(self):
        index = create_index("DCH", grid_road_network(10, 10, seed=5))
        index.build()
        pairs = _query_pairs(index.graph)
        old = index._shortcut_store()
        old_bytes = old.arena.buffer.copy()
        answers = old.query_pairs(pairs)
        index.apply_batch(generate_update_batch(index.graph, volume=30, seed=4))
        new = index._shortcut_store()
        assert new is not old and new.row is old.row
        assert not numpy.shares_memory(new.arena.buffer, old.arena.buffer)
        assert not numpy.array_equal(new.arena["weights"], old.arena["weights"])
        assert numpy.array_equal(old.arena.buffer, old_bytes)
        assert old.query_pairs(pairs) == answers
        assert [old.query(s, t) for s, t in pairs] == answers

    def test_apply_releases_the_old_epoch_store(self):
        """Once a batch invalidates it, nothing of the index pins the old
        epoch's store and arena, even before the next refreeze; the old
        graph snapshot is let go as soon as the batch patches its copy."""
        index = create_index("DCH", grid_road_network(10, 10, seed=5))
        index.build()
        released = weakref.ref(index._shortcut_store().arena.buffer)
        old_graph = weakref.ref(index._graph_snapshot().arena.buffer)
        index.apply_batch(generate_update_batch(index.graph, volume=30, seed=4))
        gc.collect()
        assert released() is None
        assert old_graph() is None
        assert index._graph_snapshot_cache.is_fresh(index.graph)

    def test_edge_named_twice_patches_its_last_weight(self):
        graph = grid_road_network(8, 8, seed=2)
        index = create_index("BiDijkstra", graph)
        index.build()
        old = index._graph_snapshot()
        old_bytes = old.arena.buffer.copy()
        u, v, w = next(iter(graph.edges()))
        x, y, z = list(graph.edges())[7]
        batch = UpdateBatch([
            EdgeUpdate(u, v, w, 2 * w + 1),
            EdgeUpdate(x, y, z, z + 3),
            EdgeUpdate(v, u, 2 * w + 1, w + 0.25),
        ])
        index.apply_batch(batch)
        patched = index._graph_snapshot_cache
        assert patched is not old and patched.row is old.row
        assert patched.is_fresh(graph)
        assert graph.edge_weight(u, v) == w + 0.25
        assert _same_bytes(patched, GraphSnapshot.freeze(graph))
        assert numpy.array_equal(old.arena.buffer, old_bytes)
        assert index.query_bidijkstra(u, v) == bidijkstra(graph, u, v)

    @pytest.mark.parametrize(
        "update, error",
        (
            pytest.param(EdgeUpdate(0, 63, 1.0, 2.0), EdgeNotFoundError, id="no-edge"),
            pytest.param(None, InvalidWeightError, id="bad-weight"),
        ),
    )
    def test_rejected_batch_leaves_the_snapshot(self, update, error):
        graph = grid_road_network(8, 8, seed=2)
        index = create_index("DCH", graph)
        index.build()
        snapshot = index._graph_snapshot()
        snapshot_bytes = snapshot.arena.buffer.copy()
        version = graph.version
        u, v, w = next(iter(graph.edges()))
        if update is None:
            update = EdgeUpdate(u, v, w, -1.0)
        batch = UpdateBatch([EdgeUpdate(u, v, w, w + 1), update])
        with pytest.raises(error):
            index.apply_batch(batch)
        assert graph.version == version
        assert index._graph_snapshot_cache is snapshot
        assert numpy.array_equal(snapshot.arena.buffer, snapshot_bytes)
        assert index._graph_snapshot() is snapshot

    @pytest.mark.parametrize("method", ("DCH", "MHL", "PMHL"))
    def test_first_refreeze_after_load_equals_a_full_freeze(self, method, tmp_path):
        spec = NINE_SPECS[method]
        base = grid_road_network(10, 10, seed=5)
        index = create_index(spec, base.copy())
        index.build()
        path = str(tmp_path / "snap")
        save_index(index, path)
        loaded = load_index(path)
        attached = _frozen(loaded)
        assert attached
        batch = generate_update_batch(loaded.graph, volume=12, seed=31)
        loaded.apply_batch(batch)
        pairs = _query_pairs(loaded.graph)[:20]
        _warm(loaded, pairs)
        # A loaded graph's adjacency order is the snapshot's, so the full
        # freezes to compare against come from a second load of it, whose
        # attached stores are dropped before it freezes anything.
        reference = load_index(path)
        reference.apply_batch(batch)
        reference.invalidate_kernels()
        reference._graph_snapshot_cache = None
        _warm(reference, pairs)
        full = _frozen(reference)
        assert full.keys() == _frozen(loaded).keys()
        for key, store in _frozen(loaded).items():
            assert _same_bytes(store, full[key]), (method, key)
            if key in attached and isinstance(store, (ShortcutStore, GraphSnapshot)):
                assert store.row is attached[key].row, (method, key)
                assert store.row is not full[key].row, (method, key)

    def test_loaded_graph_snapshot_is_patched(self, tmp_path):
        """A loaded snapshot keeps the saved graph's CSR layout (the loaded
        graph's rows may iterate in another order), and the first batch after
        the load patches it: the same bytes as a full freeze of the saved
        graph after that batch."""
        index = create_index("BiDijkstra", grid_road_network(10, 10, seed=5))
        index.build()
        index.query_bidijkstra(0, 5)
        path = str(tmp_path / "snap")
        save_index(index, path)
        loaded = load_index(path)
        attached = loaded._graph_snapshot_cache
        assert attached is not None and attached.is_fresh(loaded.graph)
        batch = generate_update_batch(loaded.graph, volume=12, seed=31)
        loaded.apply_batch(batch)
        patched = loaded._graph_snapshot_cache
        assert patched is not attached and patched.row is attached.row
        batch.apply(index.graph)
        assert _same_bytes(patched, GraphSnapshot.freeze(index.graph))
        pairs = _query_pairs(loaded.graph)[:20]
        assert [loaded.query(s, t) for s, t in pairs] == [
            bidijkstra(loaded.graph, s, t) for s, t in pairs
        ]

    def test_adopt_drops_the_graph_snapshot(self):
        """An invalidation keeps the graph snapshot (it is keyed to the graph
        version); adopting stores drops it, and a reader whose stores hold
        none never freezes one from its own graph."""
        index = create_index("DCH", grid_road_network(6, 6, seed=1))
        index.build()
        store, snapshot = index._shortcut_store(), index._graph_snapshot()
        index.invalidate_kernels()
        assert index._graph_snapshot_cache is snapshot
        assert index._graph_snapshot() is snapshot
        index.adopt_stores({"ch": store})
        assert index._graph_snapshot_cache is None
        with pytest.raises(StoreNotPublishedError):
            index.query_bidijkstra(0, 5)
