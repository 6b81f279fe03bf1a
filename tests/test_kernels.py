"""Frozen query kernels: equivalence, staleness and lifecycle guarantees.

The contract under test (see DESIGN.md §7):

* with ``use_kernels=True`` (the default) every index answers scalar and
  batch queries through the frozen flat-array stores of ``repro.kernels``,
  and the results are **bit-identical** to the pure-Python reference path
  (``use_kernels=False``) on all nine methods — freshly built and after
  ``apply_batch``;
* a query after an update never reads a pre-freeze store: ``apply_batch``
  invalidates at entry, the kernel epoch advances, and post-update answers
  replay exactly against a fresh Dijkstra oracle;
* the CSR graph snapshot is additionally keyed to ``graph.version`` so even
  out-of-band graph mutation cannot be served from a stale snapshot;
* without the native C kernel no store is frozen or loaded, and every index
  answers exactly as its reference path does.
"""

from __future__ import annotations

import json
import os
import time

import numpy
import pytest

from repro.algorithms.dijkstra import bidijkstra, dijkstra_distance
from repro.exceptions import SnapshotFormatError, VertexNotFoundError
from repro.graph.generators import grid_road_network
from repro.graph.graph import Graph
from repro.graph.updates import generate_update_batch
from repro.hierarchy.ch import ch_bidirectional_query
from repro.kernels.arena import Arena
from repro.kernels.graph_snapshot import GraphSnapshot
from repro.kernels.label_store import LabelStore
from repro.kernels.native import native_kernel
from repro.kernels.shortcut_store import ShortcutStore
from repro.registry import create_index, get_spec
from repro.serving.engine import ServingEngine
from repro.store.snapshot import load_index, save_index
from repro.throughput.workload import sample_query_pairs
from tests.conftest import NEEDS_NATIVE, label_rows, patch_out_native_kernel

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
    """Every method built twice on the same 10x10 grid: kernels on / off."""
    base = grid_road_network(10, 10, seed=5)
    built = {}
    for name, spec in NINE_SPECS.items():
        fast = create_index(spec, base.copy())
        fast.build()
        reference = create_index(spec, base.copy(), use_kernels=False)
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

    @NEEDS_NATIVE
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
    @NEEDS_NATIVE
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
        # refreeze's template); an added or removed edge changes it.
        u, v, w = next(iter(graph.edges()))
        graph.set_edge_weight(u, v, w * 3.5)
        assert index.query(0, 35) == bidijkstra(graph, 0, 35)
        graph.add_edge(0, 35, 1.0)
        assert index.query(0, 35) == bidijkstra(graph, 0, 35) == 1.0
        graph.remove_edge(0, 35)
        assert index.query(0, 35) == bidijkstra(graph, 0, 35)
        # Same edges and counts, but u's and v's neighbours in another order.
        graph.remove_edge(u, v)
        graph.add_edge(u, v, w)
        assert index.query(0, 35) == bidijkstra(graph, 0, 35)
        if native_kernel() is not None:
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
    """What a machine without a compiler runs: no store exists, so an index
    answers through its reference path, bit for bit as ``use_kernels=False``
    does — built fresh, after one batch, and loaded from a snapshot that was
    saved with the kernel (whose stores must then be ignored)."""

    @staticmethod
    def _answers(index, pairs):
        source = pairs[0][0]
        targets = [t for _, t in pairs]
        return (
            [index.query(s, t) for s, t in pairs],
            index.query_many(pairs),
            index.query_one_to_many(source, targets),
        )

    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_no_store_and_reference_answers(self, method, monkeypatch, tmp_path):
        spec = NINE_SPECS[method]
        base = grid_road_network(8, 8, seed=3)
        saved = create_index(spec, base.copy())
        saved.build()
        snapshot = str(tmp_path / "snap")
        save_index(saved, snapshot)
        with open(os.path.join(snapshot, "state.json")) as handle:
            # Stores to ignore on load, wherever the kernel is loaded.
            assert bool(json.load(handle).get("kernels")) == (native_kernel() is not None)

        patch_out_native_kernel(monkeypatch)
        fresh = create_index(spec, base.copy())
        fresh.build()
        loaded = load_index(snapshot)
        reference = create_index(spec, base.copy(), use_kernels=False)
        reference.build()
        pairs = _query_pairs(base)
        batch = generate_update_batch(base, volume=12, seed=9)
        for stage in ("fresh", "after one batch"):
            if stage != "fresh":
                for index in (fresh, loaded, reference):
                    index.apply_batch(batch)
            expected = self._answers(reference, pairs)
            for index in (fresh, loaded):
                assert self._answers(index, pairs) == expected, (method, stage)
                assert index._kernel_stores == {}, (method, stage)
                assert index._graph_snapshot_cache is None, (method, stage)


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
        writer.write(str(tmp_path))
        reader = open_payload(str(tmp_path), writer.filename, "npz")
        loaded = Arena.from_state(state, reader)
        for name, expected in arrays.items():
            assert numpy.array_equal(loaded[name], expected)
        # The payload writer aligns npz members, so the loaded arena is a
        # view over the snapshot's mmap — shared, not copied.
        assert loaded.is_shared()

    def test_npz_members_are_aligned_mmap_views(self, tmp_path):
        """Every payload member — whatever odd sizes precede it — comes back
        as an 8-byte-aligned memmap view (the property the arena and the C
        kernels depend on; plain ``np.savez`` leaves this to chance)."""
        from repro.store.arrays import ArrayWriter, open_payload

        writer = ArrayWriter()
        refs = []
        for size in (1, 3, 7, 11, 2, 5):
            refs.append(writer.put_ints(list(range(size))))
        writer.write(str(tmp_path))
        reader = open_payload(str(tmp_path), writer.filename, "npz")
        for ref in refs:
            member = reader.get_array(ref)
            assert isinstance(member, numpy.memmap)
            assert member.ctypes.data % 8 == 0


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


@NEEDS_NATIVE
class TestEliminationTreeQuery:
    """The CH query walks the elimination tree of every shortcut store: each
    store any method freezes passes the kernel's tree check, and its answers
    equal the pure rung's bit for bit, fresh and after every kind of batch."""

    @pytest.mark.parametrize("method", sorted(CH_STAGES))
    def test_every_store_is_a_tree_and_bit_identical(self, method):
        spec = NINE_SPECS[method]
        base = grid_road_network(12, 12, seed=4)
        fast = create_index(spec, base.copy())
        fast.build()
        reference = create_index(spec, base.copy(), use_kernels=False)
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
        graph = Graph()
        for offset in (0, 100):  # two 3x3 grids with no edge between them
            for r in range(3):
                for c in range(3):
                    v = offset + 3 * r + c
                    graph.add_vertex(v)
                    if c:
                        graph.add_edge(v - 1, v, 1.0 + c)
                    if r:
                        graph.add_edge(v - 3, v, 2.0 + r)
        fast = create_index("DCH", graph.copy())
        fast.build()
        reference = create_index("DCH", graph.copy(), use_kernels=False)
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
        rows_0 = numpy.zeros(1, dtype=numpy.int64)
        with pytest.raises(ValueError):
            kernel.search_query_pairs(capsule, rows_0, rows_0 + 1, out, 1)
        with pytest.raises(ValueError):
            ShortcutStore(arena)

        from repro.store.arrays import ArrayWriter, open_payload
        from repro.store.snapshot import _unpack_kernels

        writer = ArrayWriter()
        state = {"ch": dict(arena.to_state(writer), kind="shortcut_store")}
        writer.write(str(tmp_path))
        reader = open_payload(str(tmp_path), writer.filename, "npz")
        with pytest.raises(SnapshotFormatError):
            _unpack_kernels(state, reader, Graph(len(rows)))

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


@NEEDS_NATIVE
class TestKernelSpeedup:
    def test_h2h_family_batch_at_least_2x_faster(self):
        """Conservative CI bar; bench_kernels.py records the real (~5-10x) gap."""
        base = grid_road_network(14, 14, seed=5)
        fast = create_index("DH2H", base.copy())
        fast.build()
        reference = create_index("DH2H", base.copy(), use_kernels=False)
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
        """Conservative CI bar for the native bidirectional-search kernel;
        bench_kernels.py records the real (~15x) gap on the bigger graph."""
        base = grid_road_network(18, 18, seed=5)
        fast = create_index("DCH", base.copy())
        fast.build()
        reference = create_index("DCH", base.copy(), use_kernels=False)
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


@NEEDS_NATIVE
class TestMaintenanceKernels:
    """``recompute_row`` / ``shortcut_row`` over the live containers: what a
    loaded index hands them, and what malformed input must turn into."""

    @pytest.fixture(scope="class")
    def built(self):
        index = create_index("DH2H", grid_road_network(8, 8, seed=5))
        index.build()
        return index

    @staticmethod
    def _row_args(index, v):
        """``recompute_row``'s arguments for ``v``, containers shallow-copied."""
        tree = index.tree
        return [
            label_rows(index.labels),
            list(tree.ancestors[v]),
            list(tree.neighbors(v)),
            dict(index.contraction.shortcuts[v]),
            dict(tree.depth),
        ]

    @staticmethod
    def _shortcut_args(index, v):
        """``shortcut_row``'s arguments for ``v``, containers shallow-copied."""
        contraction = index.contraction
        nbrs = list(contraction.neighbors[v])
        base = [index.graph.edge_weight_or(v, u) for u in nbrs]
        return [dict(contraction.shortcuts), dict(contraction.supporters), v, nbrs, base]

    @staticmethod
    def _deep_vertex(index):
        """A vertex with neighbours both above and below some ancestor."""
        return max(index.tree.depth, key=lambda v: (len(index.tree.neighbors(v)), v))

    @staticmethod
    def _supported_vertex(index):
        """A vertex owning a shortcut that has supporters."""
        contraction = index.contraction
        for v in reversed(contraction.order):
            for u in contraction.neighbors[v]:
                if contraction.supporters.get((min(u, v), max(u, v))):
                    return v
        raise AssertionError("no supported shortcut on this graph")

    def test_kernels_match_the_pure_rung_on_every_vertex(self, built):
        from repro.treedec.mde import recompute_shortcut

        kernel = native_kernel()
        for v in built.contraction.order:
            assert kernel.recompute_row(*self._row_args(built, v)) == built.labels.dis(v).tolist()
            assert kernel.shortcut_row(*self._shortcut_args(built, v)) == [
                recompute_shortcut(built.contraction, built.graph, v, u)
                for u in built.contraction.neighbors[v]
            ]

    def test_unloaded_lazy_containers_are_materialised(self, built):
        """A C-API dict read skips ``LazyDict.__getitem__`` and sees an empty
        dict; the kernels must go through the override, which loads the
        container and swaps its class to the plain one."""
        from repro.store.codec import LazyDict, _LoadedDict

        kernel = native_kernel()

        def lazy(contents):
            return LazyDict(lambda target: target.update(contents))

        v = self._deep_vertex(built)
        args = self._row_args(built, v)
        expected = kernel.recompute_row(*args)
        dis = lazy(args[0])
        assert kernel.recompute_row(dis, *args[1:]) == expected
        assert type(dis) is _LoadedDict and dict(dis) == args[0]

        v = self._supported_vertex(built)
        args = self._shortcut_args(built, v)
        expected = kernel.shortcut_row(*args)
        shortcuts, supporters = lazy(args[0]), lazy(args[1])
        assert kernel.shortcut_row(shortcuts, supporters, *args[2:]) == expected
        assert type(shortcuts) is _LoadedDict and dict(shortcuts) == args[0]
        assert type(supporters) is _LoadedDict and dict(supporters) == args[1]

    def test_inputs_are_not_written(self, built):
        kernel = native_kernel()
        for make, call in (
            (self._row_args, kernel.recompute_row),
            (self._shortcut_args, kernel.shortcut_row),
        ):
            args = make(built, self._supported_vertex(built))
            before = repr(args)
            call(*args)
            assert repr(args) == before

    def test_malformed_recompute_row_input_raises(self, built):
        kernel = native_kernel()
        v = self._deep_vertex(built)
        x = built.tree.neighbors(v)[0]
        m = len(built.tree.ancestors[v])

        def call(mutate):
            dis, anc, nbrs, sc_row, depth = self._row_args(built, v)
            mutate(dis, anc, nbrs, sc_row, depth)
            return kernel.recompute_row(dis, anc, nbrs, sc_row, depth)

        with pytest.raises(ValueError):  # neighbour depth >= m - 1
            call(lambda dis, anc, nbrs, sc, depth: depth.__setitem__(x, m - 1))
        with pytest.raises(ValueError):
            call(lambda dis, anc, nbrs, sc, depth: depth.__setitem__(x, -1))
        deep = max(built.tree.neighbors(v), key=built.tree.depth.get)
        with pytest.raises(ValueError):  # neighbour row too short
            call(lambda dis, anc, nbrs, sc, depth: dis.__setitem__(deep, []))
        with pytest.raises(ValueError):  # ancestor row too short
            call(lambda dis, anc, nbrs, sc, depth: dis.__setitem__(
                anc[m - 2], dis[anc[m - 2]][:-1]))
        with pytest.raises(TypeError):  # non-numeric distance entry
            call(lambda dis, anc, nbrs, sc, depth: dis.__setitem__(
                anc[m - 2], ["far"] * (m - 1)))
        with pytest.raises(TypeError):  # non-numeric shortcut
            call(lambda dis, anc, nbrs, sc, depth: sc.__setitem__(x, None))
        with pytest.raises(TypeError):  # distance array that is no list
            call(lambda dis, anc, nbrs, sc, depth: dis.__setitem__(x, tuple(dis[x])))
        with pytest.raises(KeyError):  # missing vertex, each container
            call(lambda dis, anc, nbrs, sc, depth: dis.__delitem__(x))
        with pytest.raises(KeyError):
            call(lambda dis, anc, nbrs, sc, depth: sc.__delitem__(x))
        with pytest.raises(KeyError):
            call(lambda dis, anc, nbrs, sc, depth: depth.__delitem__(x))
        with pytest.raises(TypeError):
            kernel.recompute_row({}, (v,), [], {}, {})
        with pytest.raises(ValueError):
            kernel.recompute_row({}, [], [], {}, {})
        with pytest.raises(TypeError):
            kernel.recompute_row({}, [v], [])

    def test_malformed_shortcut_row_input_raises(self, built):
        kernel = native_kernel()
        v = self._supported_vertex(built)
        # One supported shortcut (v, u) of the row and its first supporter x.
        supporters = built.contraction.supporters
        u = next(u for u in built.contraction.neighbors[v]
                 if supporters.get((min(u, v), max(u, v))))
        pair = (min(u, v), max(u, v))
        x = supporters[pair][0]

        def call(mutate):
            args = self._shortcut_args(built, v)
            mutate(*args)
            return kernel.shortcut_row(*args)

        with pytest.raises(ValueError):  # mismatched lengths
            call(lambda sc, sup, v, nbrs, base: base.pop())
        with pytest.raises(TypeError):  # non-dict shortcut row
            call(lambda sc, sup, v, nbrs, base: sc.__setitem__(x, [1.0, 2.0]))
        with pytest.raises(KeyError):  # supporter without a shortcut row
            call(lambda sc, sup, v, nbrs, base: sc.__delitem__(x))
        with pytest.raises(TypeError):  # non-numeric base weight
            call(lambda sc, sup, v, nbrs, base: base.__setitem__(0, "w"))
        with pytest.raises(TypeError):  # non-numeric shortcut value
            call(lambda sc, sup, v, nbrs, base: sc.__setitem__(x, dict.fromkeys(sc[x], "w")))
        with pytest.raises(TypeError):  # supporter record that is no list
            call(lambda sc, sup, v, nbrs, base: sup.__setitem__(pair, 7))
        with pytest.raises(TypeError):
            kernel.shortcut_row({}, {}, v, (1,), [1.0])

        # A supporter row missing an endpoint is skipped, as ``row.get(., inf)``.
        args = self._shortcut_args(built, v)
        args[0][x] = {}
        args[1][pair] = [x]
        slot = args[3].index(u)
        assert kernel.shortcut_row(*args)[slot] == args[4][slot]

    def test_int_weighted_graph_labels_equal_the_pure_rung(self, pure_maintenance):
        """Int weights take the ``PyFloat_AsDouble`` fallback.  The kernels
        return floats where the pure rung's ``sc + d`` stays an int, so the two
        rungs are compared as the float64 values they denote."""
        from repro.graph.updates import EdgeUpdate, UpdateBatch
        from tests.conftest import float_bits

        native_kernel()

        def build_and_update():
            graph = grid_road_network(6, 6, seed=5)
            for v in graph.vertices():
                # ``Graph`` coerces weights to float; plant ints behind it.
                row = graph.neighbors(v)
                for u in row:
                    row[u] = 1 + (u * v) % 7
            index = create_index("DH2H", graph)
            index.build()
            (u, v, w), (a, b, c) = list(graph.edges())[:2]
            index.apply_batch(
                UpdateBatch([EdgeUpdate(u, v, w, w + 5), EdgeUpdate(a, b, c, c / 2)])
            )
            return index

        native = build_and_update()
        pure_maintenance()
        pure = build_and_update()

        def bits(index):
            neighbors = index.contraction.neighbors
            return (
                {v: float_bits(row) for v, row in label_rows(index.labels).items()},
                {v: float_bits(row[u] for u in neighbors[v])
                 for v, row in index.contraction.shortcuts.items()},
            )

        assert bits(native) == bits(pure)


# ----------------------------------------------------------------------
# Endpoint validation of every index's stage queries
# ----------------------------------------------------------------------
class TestStageEndpoints:
    """Every stage of every index raises the typed error for an unknown
    vertex, on both rungs, also when it is both endpoints; so does every
    entry point of every label and shortcut store those stages froze."""

    @pytest.mark.parametrize("use_kernels", (True, False), ids=("kernels", "pure"))
    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_unknown_vertex_raises_at_every_stage(self, method, use_kernels):
        index = create_index(
            NINE_SPECS[method], grid_road_network(8, 8, seed=3), use_kernels=use_kernels
        )
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
        frozen = use_kernels and native_kernel() is not None
        assert bool(stores) == (frozen and method != "BiDijkstra")
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


@NEEDS_NATIVE
class TestRefreezeGather:
    """A new epoch's store gathers its values into the previous epoch's
    layout: byte-identical to a full freeze, without touching the old epoch,
    and rebuilt from scratch whenever a row no longer fits the layout."""

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
        # The template is released once its key has refrozen.
        assert "ch" not in index._kernel_templates

    # -- fallback: rows that no longer fit the template's layout --------
    #: Upward rows of a four-vertex elimination tree 0 -> 1 -> 2 -> 3.
    ROWS = [{1: 1.0, 2: 4.0}, {2: 2.0}, {3: 1.0}, {}]

    @staticmethod
    def _freeze(rows, template=None):
        return ShortcutStore.freeze(rows.__getitem__, range(len(rows)), template)

    @pytest.mark.parametrize(
        "mutate",
        (
            pytest.param(lambda rows: rows[1].__setitem__(3, 5.0), id="extra-key"),
            pytest.param(lambda rows: rows[0].pop(2), id="missing-key"),
            pytest.param(
                lambda rows: rows.__setitem__(0, {2: 4.0, 1: 1.0}), id="swapped-order"
            ),
            pytest.param(lambda rows: rows[0].__setitem__(2, "4.5"), id="non-numeric"),
            pytest.param(
                lambda rows: rows.__setitem__(0, __import__("types").MappingProxyType(
                    {1: 1.0, 2: 4.0})), id="not-dict-or-list"),
        ),
    )
    def test_misfit_rows_rebuild_the_layout(self, mutate):
        template = self._freeze(self.ROWS)
        rows = [dict(row) for row in self.ROWS]
        mutate(rows)
        arena = template.arena
        with pytest.raises(ValueError):
            native_kernel().gather_rows(
                rows, arena["indptr"], numpy.empty(len(arena["weights"])),
                template._remap, arena["indices"],
            )
        gathered = self._freeze(rows, template)
        full = self._freeze(rows)
        assert _same_bytes(gathered, full)
        assert gathered.row is not template.row

    def test_gather_rows_unit(self):
        gather = native_kernel().gather_rows
        from repro.store.codec import LazyDict

        # Unkeyed list rows: exact lengths only.
        out = numpy.empty(3)
        gather([[1.0, 2], [3.5]], numpy.array([0, 2, 3]), out)
        assert out.tolist() == [1.0, 2.0, 3.5]
        for bad in ([[1.0], [3.5, 4.0]], [[1.0, 2.0], [3.5, 1.0]], [[1.0, 2.0], (3.5,)],
                    [[1.0, 2.0], {0: 3.5}], [[1.0, None], [3.5]]):
            with pytest.raises(ValueError):
                gather(bad, numpy.array([0, 2, 3]), out)
        with pytest.raises(ValueError):  # row count differs from the layout
            gather([[1.0, 2.0]], numpy.array([0, 2, 3]), out)
        # Keyed dict rows, through a dense remap or a dict: an unmaterialised
        # LazyDict row is read through its items(), never as empty.
        indptr, indices = numpy.array([0, 2, 3]), numpy.array([1, 2, 2])
        dense = numpy.array([-1, 0, 1, 2])
        for remap in (dense, {1: 0, 2: 1, 3: 2}):
            out = numpy.empty(3)
            lazy = LazyDict(lambda target: target.update({3: 7.0}))
            gather([{2: 1.5, 3: 2.5}, lazy], indptr, out, remap, indices)
            assert out.tolist() == [1.5, 2.5, 7.0]
            for bad in ([{3: 2.5, 2: 1.5}, {3: 7.0}], [{2: 1.5, 0: 2.5}, {3: 7.0}],
                        [{2: 1.5, 9: 2.5}, {3: 7.0}], [{2: 1.5, "x": 2.5}, {3: 7.0}],
                        [{2: 1.5, 3: 2.5}, [7.0]]):
                with pytest.raises(ValueError):
                    gather(bad, indptr, out, remap, indices)

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
        reference._kernel_templates.clear()
        _warm(reference, pairs)
        full = _frozen(reference)
        assert full.keys() == _frozen(loaded).keys()
        for key, store in _frozen(loaded).items():
            assert _same_bytes(store, full[key]), (method, key)
            if key in attached and isinstance(store, ShortcutStore):
                assert store.row is attached[key].row, (method, key)

    def test_adopt_drops_the_templates(self):
        index = create_index("DCH", grid_road_network(6, 6, seed=1))
        index.build()
        store = index._shortcut_store()
        index.invalidate_kernels()
        assert index._kernel_templates["ch"] is store
        index.adopt_stores({"ch": store})
        assert index._kernel_templates == {}
