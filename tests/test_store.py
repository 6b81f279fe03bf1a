"""Persistence suite for ``repro.store`` (see DESIGN.md §8).

The contract under test:

* every registered method round-trips through ``save_index``/``load_index``
  with **bit-identical** scalar / ``query_many`` / ``query_one_to_many``
  results — freshly built and after ``apply_batch``;
* a loaded index is a full peer of the original: it accepts further update
  batches (the kernel epoch advances, reattached stores are invalidated) and
  keeps answering exactly like the original under the same updates;
* ``IndexSpec`` overrides are honored on load (``use_kernels=False`` flips a
  loaded index onto the pure reference path) and unknown overrides fail fast;
* corruption and version skew raise *typed* errors — a truncated payload, a
  schema-version mismatch and a graph-fingerprint mismatch each surface as
  their own ``repro.exceptions`` class instead of wrong distances;
* the serving engine exports epoch-consistent snapshots and warm-starts from
  them, and the experiment build cache reuses snapshots correctly.
"""

from __future__ import annotations

import json
import os

import numpy
import pytest

from repro.algorithms.dijkstra import dijkstra_distance
from repro.exceptions import (
    SnapshotFormatError,
    SnapshotGraphMismatchError,
    SnapshotUnsupportedError,
    SnapshotVersionError,
    StoreNotPublishedError,
)
from repro.graph.generators import grid_road_network
from repro.graph.updates import generate_update_batch
from repro.registry import create_index, get_spec
from repro.serving.engine import ServingEngine
from repro.store import (
    STORES_FORMAT,
    graph_fingerprint,
    load_index,
    load_stores,
    read_manifest,
    save_index,
    save_stores,
)
from repro.throughput.workload import sample_query_pairs

from tests.conftest import NEEDS_NATIVE, index_state_digest, maintenance_structures

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

GRID_SIDE = 8
UPDATE_VOLUME = 12

#: Side of the grid the golden label digests were dumped on.
GOLDEN_SIDE = 24

#: ``index_state_digest`` at the three points of ``_golden_phases`` — fresh build,
#: after three update batches, after save -> load -> one more batch — dumped
#: from the commit preceding the hoisted label loop (PR 20's tree).
#: The N-CH-P and P-TD-P rows were re-dumped when the PSP query became one
#: lift-then-join: their labels and shortcuts hash as before, and 5-7 of the
#: 60 answers moved by at most 2 ulp (the sums associate differently).
GOLDEN_DIGESTS = {
    "BiDijkstra": [
        "faabaaab5b43bfc7df88cdfc3f0823ab0b7ee890a51ff5d98c2425d171d727c3",
        "58446e8f2bd60e8816bee9b9c8d170940c8465569f2f7a16e58a4c6500bb7b13",
        "81bc63af498a3e1155dfcc00a02f80e47ce83ab02c8355165743feb8dd2a4f8a",
    ],
    "DCH": [
        "b332789215d319711f98d5ff5d59ec78b05e7c0ab01a7e083aa28da5dbad4c9d",
        "384143563cdb97a9b4b8dcf5861238a06ca99f2def8bd10dc83bdf8fbff35c22",
        "14c7c3e5fccf4b26b5b909c6cf8f70ce91d688506d2558ae1c03f09b7cb9eec2",
    ],
    "DH2H": [
        "535fa666ee08fd4c9c4ca4d0009a7c0d81a032e6f30e4bf38238c1e75d308ef3",
        "3b97abcabefa3e3a0ec3cefb7303fab16c7c2401a7b60e9e3c8dbe3d971fac50",
        "0b40084b7f4c6164b27b170fc541bb474d456efca0c38da8a1a816aa13bad6e4",
    ],
    "MHL": [
        "ded824af29aec08f6658f1bd245047966c48886cfb2e1de9f2bcadbf9d80e138",
        "de0d13270e0980b216cdae2e10318d8ad357c577060d458ade03f6f9670df446",
        "a85369d4549097e58be30009b826cff10e17fe0bac2b41b09c4ede4f2dbeff8f",
    ],
    "N-CH-P": [
        "bc35a2d6d8a7c4049cf928e40228a960ed39ee0da8710cdbfbeff408dd041d8f",
        "ffec1bb91328171e2e2e24eac3b73f0033b7ca025fd1714ba823ae575f14b5be",
        "5572f39ea38f25697c6de8f85427c91b45f1bbb055b8cb6ec200bdfe6d5354b4",
    ],
    "P-TD-P": [
        "61d73cb9f3eda9c268662669e2dcc4112fcad5ad642c66d37c38d8badadf16f7",
        "8fc376344688ae68b3ce6d7dc63bd20dbf186f36c0ed565c3774871272544424",
        "1d445a1207b48dc083c5bc2a5e1406b71564f32104a385c7c6827fbf68427508",
    ],
    "PMHL": [
        "8624a3d0a1095e3860df403de6bfabb1e539efc283196ba046a51e5487730959",
        "43ede5b9cd0bb3466a2c393926d527deb3ef52ad1e66108205584cc416508a58",
        "d3aa4439c1dd2609c999590f1e7ac7e6f8d542f009f0fea807c3cf9708794b17",
    ],
    "PostMHL": [
        "f99741da97e123bc30ba09b2bd47f4190516946403ec7896362edd1d498e519d",
        "111bc2f002bb4c64f3b2270bd108516d683f531bdfbb668c73f8e328f4e25371",
        "bedd806bc3ccd2d8e743bcb4dc2815e8926d8bfa906ea159a9bef775218dc609",
    ],
    "TOAIN": [
        "1bd2ca5253f7936bfb4ac3d1034fd471ec8f9a7b5a8bee7f457aeb36b2e2c74e",
        "b24c86dd99629a6f1f96edecc8a915f4d3c10aa12dd223cc377f02d2a163cd76",
        "717f0413cdb318995640c2e275c80bd98bdb088169b93c52d608a31fbed016ed",
    ],
}


def _base_graph():
    return grid_road_network(GRID_SIDE, GRID_SIDE, seed=5)


def _query_pairs(graph):
    pairs = list(sample_query_pairs(graph, 40, seed=3))
    return pairs + [(0, 0), (0, 5), (0, 9), (0, 13)]


def _assert_equivalent(original, loaded, pairs):
    """Scalar, one-to-many and pair-batch answers must match bit-for-bit."""
    assert original.query_many(pairs) == loaded.query_many(pairs)
    source = pairs[0][0]
    targets = [t for _, t in pairs]
    assert original.query_one_to_many(source, targets) == loaded.query_one_to_many(
        source, targets
    )
    sample = pairs[:10]
    assert [original.query(s, t) for s, t in sample] == [
        loaded.query(s, t) for s, t in sample
    ]


@pytest.fixture(scope="module")
def built_indexes():
    """Every method built once on the same grid (module-shared, read-mostly)."""
    base = _base_graph()
    built = {}
    for name, spec in NINE_SPECS.items():
        index = create_index(spec, base.copy())
        index.build()
        built[name] = index
    return built


@pytest.fixture(scope="module")
def snapshot_dirs(built_indexes, tmp_path_factory):
    root = tmp_path_factory.mktemp("snapshots")
    paths = {}
    for name, index in built_indexes.items():
        path = str(root / name.replace("/", "_"))
        save_index(index, path)
        paths[name] = path
    return paths


class TestRoundTripFresh:
    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_bit_identical_queries(self, built_indexes, snapshot_dirs, method):
        original = built_indexes[method]
        loaded = load_index(snapshot_dirs[method])
        _assert_equivalent(original, loaded, _query_pairs(original.graph))

    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_loaded_metadata(self, built_indexes, snapshot_dirs, method):
        original = built_indexes[method]
        loaded = load_index(snapshot_dirs[method])
        assert loaded.is_built
        assert loaded.name == original.name
        assert loaded.index_size() == original.index_size()
        assert loaded.graph.num_vertices == original.graph.num_vertices
        assert loaded.graph.num_edges == original.graph.num_edges
        assert graph_fingerprint(loaded.graph) == graph_fingerprint(original.graph)

    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_load_onto_supplied_graph(self, built_indexes, snapshot_dirs, method):
        """A caller-supplied graph with matching fingerprint is accepted."""
        original = built_indexes[method]
        graph = original.graph.copy()
        loaded = load_index(snapshot_dirs[method], graph=graph)
        assert loaded.graph is graph
        _assert_equivalent(original, loaded, _query_pairs(graph)[:20])

    def test_manifest_contents(self, snapshot_dirs):
        manifest = read_manifest(snapshot_dirs["PMHL"])
        assert manifest["method"] == "PMHL"
        assert manifest["spec"]["num_partitions"] == 4
        assert manifest["graph"]["num_vertices"] == GRID_SIDE * GRID_SIDE
        assert manifest["graph"]["fingerprint"].startswith("sha256:")

    def test_use_kernels_override_honored(self, built_indexes, snapshot_dirs):
        for method in ("DH2H", "PMHL"):
            original = built_indexes[method]
            pure = load_index(snapshot_dirs[method], use_kernels=False)
            assert pure.use_kernels is False
            assert pure._kernel_stores == {}
            pairs = _query_pairs(original.graph)[:20]
            assert original.query_many(pairs) == pure.query_many(pairs)
            # The pure path must not have frozen anything while answering.
            assert pure._kernel_stores == {}

    def test_unknown_override_rejected(self, snapshot_dirs):
        with pytest.raises(TypeError):
            load_index(snapshot_dirs["DH2H"], bananas=3)

    def test_double_round_trip(self, built_indexes, tmp_path):
        """A *loaded* index re-saves correctly (the lazily materialised
        structures serialize again) and stays bit-identical two hops out."""
        original = built_indexes["PMHL"]
        first = str(tmp_path / "first")
        save_index(original, first)
        loaded = load_index(first)
        second = str(tmp_path / "second")
        save_index(loaded, second)
        twice = load_index(second)
        pairs = _query_pairs(original.graph)[:20]
        _assert_equivalent(original, twice, pairs)
        # ... and the twice-loaded index still accepts updates.
        batch_a = generate_update_batch(original.graph, UPDATE_VOLUME, seed=6)
        batch_b = generate_update_batch(twice.graph, UPDATE_VOLUME, seed=6)
        fresh = create_index(NINE_SPECS["PMHL"], _base_graph().copy())
        fresh.build()
        fresh.apply_batch(batch_a)
        twice.apply_batch(batch_b)
        assert fresh.query_many(pairs) == twice.query_many(pairs)


class TestRoundTripPostUpdate:
    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_save_after_apply_batch(self, method, tmp_path):
        """An index that has lived through updates snapshots its *current* state."""
        base = _base_graph()
        index = create_index(NINE_SPECS[method], base.copy())
        index.build()
        batch = generate_update_batch(index.graph, UPDATE_VOLUME, seed=2)
        index.apply_batch(batch)

        path = str(tmp_path / "snap")
        save_index(index, path)
        loaded = load_index(path)
        pairs = _query_pairs(index.graph)
        _assert_equivalent(index, loaded, pairs)
        # Sanity against a fresh Dijkstra oracle on the updated graph (the
        # serving suite's tolerance: maintained labels may associate path
        # sums differently than a from-scratch search).
        for source, target in pairs[:10]:
            oracle = dijkstra_distance(loaded.graph, source, target)
            assert abs(loaded.query_many([(source, target)])[0] - oracle) <= 1e-9

    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_update_after_load(self, built_indexes, snapshot_dirs, method, tmp_path):
        """A loaded index accepts ``apply_batch`` and stays equivalent.

        This exercises the kernel-epoch lifecycle after a load: the first
        queries answer through the *reattached* stores, the update bumps the
        epoch and drops them, and post-update queries answer through freshly
        frozen stores — never through pre-update state.
        """
        # A private original: the module-shared one must stay pristine.
        original = create_index(NINE_SPECS[method], _base_graph().copy())
        original.build()
        loaded = load_index(snapshot_dirs[method])

        pairs = _query_pairs(loaded.graph)
        loaded.query_many(pairs[:5])  # warm the reattached stores
        epoch_before = loaded.kernel_epoch

        batch_original = generate_update_batch(original.graph, UPDATE_VOLUME, seed=4)
        batch_loaded = generate_update_batch(loaded.graph, UPDATE_VOLUME, seed=4)
        original.apply_batch(batch_original)
        loaded.apply_batch(batch_loaded)

        assert loaded.kernel_epoch > epoch_before
        _assert_equivalent(original, loaded, pairs)


def _golden_phases(method, snapshot_path):
    """Digest one method at the three points the golden table records."""
    graph = grid_road_network(GOLDEN_SIDE, GOLDEN_SIDE, seed=5)
    pairs = list(sample_query_pairs(graph, 60, seed=3))
    index = create_index(NINE_SPECS[method], graph)
    index.build()
    yield index_state_digest(index, pairs)
    for seed in (11, 12, 13):  # each batch mixes increases and decreases
        index.apply_batch(generate_update_batch(index.graph, UPDATE_VOLUME, seed=seed))
    yield index_state_digest(index, pairs)
    save_index(index, snapshot_path)
    loaded = load_index(snapshot_path)
    loaded.apply_batch(generate_update_batch(loaded.graph, UPDATE_VOLUME, seed=14))
    yield index_state_digest(loaded, pairs)


class TestMaintenanceParity:
    """A loaded index maintains like a built one: same containers, same bits."""

    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_loaded_containers_are_plain_after_update(self, snapshot_dirs, method):
        """After one ``apply_batch`` no dict the maintenance path reads keeps a
        Python-level accessor: a lazily loaded container is a plain dict."""
        loaded = load_index(snapshot_dirs[method])
        loaded.apply_batch(generate_update_batch(loaded.graph, UPDATE_VOLUME, seed=4))
        for path, structure in maintenance_structures(loaded):
            if hasattr(structure, "arena"):
                continue  # a flat contraction holds arrays, no dict
            names = (
                ("dis", "pos")
                if hasattr(structure, "dis")
                else ("shortcuts", "supporters")
            )
            for name in names:
                container = getattr(structure, name)
                assert type(container).__getitem__ is dict.__getitem__, (path, name)
                assert type(container).get is dict.get, (path, name)

    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_update_as_first_touch_of_loaded_index(self, snapshot_dirs, method):
        """``apply_batch`` on a loaded index nothing has read yet: the native
        maintenance kernels meet every container still unmaterialised (a C-API
        dict read would see it empty) and must leave the same bits as the
        built index."""
        built = create_index(NINE_SPECS[method], _base_graph().copy())
        built.build()
        loaded = load_index(snapshot_dirs[method])
        for index in (built, loaded):
            index.apply_batch(generate_update_batch(index.graph, UPDATE_VOLUME, seed=4))
        pairs = _query_pairs(built.graph)
        assert index_state_digest(loaded, pairs) == index_state_digest(built, pairs)

    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_golden_digests(self, method, tmp_path):
        """Labels, shortcut arrays and answers reproduce, byte for byte, the
        digests dumped from the commit before the label loop was hoisted —
        fresh, after three update batches, and after a snapshot round trip
        plus one more batch."""
        digests = list(_golden_phases(method, str(tmp_path / "snap")))
        assert digests == GOLDEN_DIGESTS[method]


class TestCorruptionAndSkew:
    @pytest.fixture()
    def snapshot(self, tmp_path):
        index = create_index(NINE_SPECS["DH2H"], _base_graph().copy())
        index.build()
        path = str(tmp_path / "snap")
        save_index(index, path)
        return path

    def test_missing_directory(self, tmp_path):
        with pytest.raises(SnapshotFormatError):
            load_index(str(tmp_path / "nowhere"))

    def test_truncated_payload(self, snapshot):
        payload = os.path.join(snapshot, read_manifest(snapshot)["payload"])
        size = os.path.getsize(payload)
        with open(payload, "rb+") as handle:
            handle.truncate(size // 2)
        with pytest.raises(SnapshotFormatError):
            load_index(snapshot)

    def test_missing_payload(self, snapshot):
        os.remove(os.path.join(snapshot, read_manifest(snapshot)["payload"]))
        with pytest.raises(SnapshotFormatError):
            load_index(snapshot)

    def test_corrupt_state_json(self, snapshot):
        with open(os.path.join(snapshot, "state.json"), "w") as handle:
            handle.write("{not json")
        with pytest.raises(SnapshotFormatError):
            load_index(snapshot)

    def test_corrupt_manifest(self, snapshot):
        with open(os.path.join(snapshot, "manifest.json"), "w") as handle:
            handle.write("]")
        with pytest.raises(SnapshotFormatError):
            load_index(snapshot)

    def test_wrong_format_tag(self, snapshot):
        manifest_path = os.path.join(snapshot, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["format"] = "something-else"
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(SnapshotFormatError):
            load_index(snapshot)

    def test_schema_version_skew(self, snapshot):
        manifest_path = os.path.join(snapshot, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["schema_version"] = 999
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(SnapshotVersionError) as excinfo:
            load_index(snapshot)
        assert excinfo.value.found == 999

    def test_graph_fingerprint_mismatch(self, snapshot):
        drifted = _base_graph()
        edge = next(iter(drifted.edges()))
        drifted.set_edge_weight(edge[0], edge[1], edge[2] + 1.0)
        with pytest.raises(SnapshotGraphMismatchError):
            load_index(snapshot, graph=drifted)

    def test_resave_over_existing_snapshot(self, snapshot):
        """Overwriting a snapshot in place stays loadable."""
        index = load_index(snapshot)
        save_index(index, snapshot)
        reloaded = load_index(snapshot)
        assert reloaded.query(0, 9) == index.query(0, 9)

    def test_interrupted_overwrite_reads_as_incomplete(self, snapshot):
        """``save_index`` drops the manifest before touching any file, so a
        crash mid-overwrite can never pair an old manifest with new payload
        bytes — the directory reads as a typed format error instead."""
        os.remove(os.path.join(snapshot, "manifest.json"))
        with pytest.raises(SnapshotFormatError):
            load_index(snapshot)

    def test_json_payload_backend_rejected(self, snapshot):
        """The pure-JSON payload is gone: a manifest naming it is a typed
        format error, not a reader that half-works."""
        manifest_path = os.path.join(snapshot, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["payload_backend"] = "json"
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(SnapshotFormatError, match="json"):
            load_index(snapshot)

    def test_kernel_store_without_arena_rejected(self, snapshot):
        """A kernel store in the per-array layout that predates the arena
        has no reader left: a typed format error on either rung."""
        state_path = os.path.join(snapshot, "state.json")
        with open(state_path) as handle:
            state = json.load(handle)
        state["kernels"] = {"labels": {"kind": "label_store", "verts": {}}}
        with open(state_path, "w") as handle:
            json.dump(state, handle)
        with pytest.raises(SnapshotFormatError, match="arena"):
            load_index(snapshot)

    def test_unbuilt_index_rejected(self, tmp_path):
        index = create_index(NINE_SPECS["DH2H"], _base_graph())
        with pytest.raises(SnapshotUnsupportedError):
            save_index(index, str(tmp_path / "snap"))

    def test_unregistered_index_rejected(self, tmp_path):
        from repro.hierarchy.ch import CHIndex

        index = CHIndex(_base_graph())
        index.build()
        with pytest.raises(SnapshotUnsupportedError):
            save_index(index, str(tmp_path / "snap"))

    def test_direct_construction_records_actual_params(self, tmp_path):
        """A registry-less index (no ``spec`` attached) must record the
        parameters it was *actually* built with, not the method defaults."""
        from repro.core.postmhl import PostMHLIndex

        index = PostMHLIndex(_base_graph(), bandwidth=9, expected_partitions=3)
        index.build()
        path = str(tmp_path / "snap")
        save_index(index, path)
        manifest = read_manifest(path)
        assert manifest["spec"]["bandwidth"] == 9
        assert manifest["spec"]["expected_partitions"] == 3
        loaded = load_index(path)
        assert loaded.bandwidth == 9
        assert loaded.expected_partitions == 3
        pairs = _query_pairs(index.graph)[:15]
        assert index.query_many(pairs) == loaded.query_many(pairs)


class TestFingerprint:
    def test_insensitive_to_iteration_order(self):
        a = _base_graph()
        b = _base_graph()
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_sensitive_to_weights_and_structure(self):
        a = _base_graph()
        b = _base_graph()
        edge = next(iter(b.edges()))
        b.set_edge_weight(edge[0], edge[1], edge[2] * 2)
        assert graph_fingerprint(a) != graph_fingerprint(b)
        c = _base_graph()
        c.add_vertex(10_000)
        assert graph_fingerprint(a) != graph_fingerprint(c)


class TestServingIntegration:
    def test_export_and_warm_start(self, tmp_path):
        """Export from a live engine mid-stream, then warm-start a twin.

        The warm-started engine must answer every query exactly like the
        exporting engine did at the exported epoch (Dijkstra oracle on the
        exported graph), without rebuilding the index.
        """
        index = create_index(NINE_SPECS["PMHL"], _base_graph().copy())
        path = str(tmp_path / "engine-snap")
        with ServingEngine(index, cache_capacity=0) as engine:
            for seed in (1, 2):
                engine.submit_batch(
                    generate_update_batch(index.graph, UPDATE_VOLUME, seed=seed)
                )
            exported_epoch = engine.export_snapshot(path)
            assert exported_epoch == 2
        assert read_manifest(path)["extras"]["epoch"] == 2

        warm = ServingEngine.from_snapshot(path, cache_capacity=0)
        assert warm.index.is_built
        pairs = _query_pairs(warm.index.graph)[:15]
        with warm:
            for source, target in pairs:
                result = warm.serve(source, target)
                oracle = dijkstra_distance(warm.index.graph, source, target)
                assert abs(result.distance - oracle) <= 1e-9

    def test_export_on_stopped_engine(self, tmp_path):
        index = create_index(NINE_SPECS["DH2H"], _base_graph().copy())
        engine = ServingEngine(index, cache_capacity=0)
        path = str(tmp_path / "stopped-snap")
        assert engine.export_snapshot(path) == 0
        loaded = load_index(path)
        assert loaded.query(0, 9) == index.query(0, 9)


class TestBuildCache:
    def test_miss_then_hit(self, tmp_path):
        from repro.experiments import build_cache

        build_cache.set_cache_dir(str(tmp_path))
        try:
            spec = NINE_SPECS["DH2H"]
            graph = _base_graph()
            first = build_cache.load_or_build(spec, graph)
            assert os.path.isdir(
                os.path.join(str(tmp_path), build_cache.cache_key(spec, graph))
            )
            second = build_cache.load_or_build(spec, graph)
            # The hit is a fresh, isolated instance on its own graph copy.
            assert second is not first
            assert second.graph is not graph
            pairs = _query_pairs(graph)[:15]
            assert first.query_many(pairs) == second.query_many(pairs)
        finally:
            build_cache.set_cache_dir(None)

    def test_disabled_without_directory(self):
        from repro.experiments import build_cache

        build_cache.set_cache_dir(None)
        if build_cache.CACHE_ENV in os.environ:  # pragma: no cover - env guard
            pytest.skip("REPRO_BUILD_CACHE set in the environment")
        index = build_cache.load_or_build(NINE_SPECS["DH2H"], _base_graph())
        assert index.is_built

    def test_key_separates_params_and_graph(self):
        from repro.experiments import build_cache

        graph = _base_graph()
        key_a = build_cache.cache_key(get_spec("PMHL", num_partitions=2), graph)
        key_b = build_cache.cache_key(get_spec("PMHL", num_partitions=4), graph)
        assert key_a != key_b
        other = grid_road_network(GRID_SIDE, GRID_SIDE, seed=6)
        key_c = build_cache.cache_key(get_spec("PMHL", num_partitions=2), other)
        assert key_a != key_c


class TestLazyDictConcurrency:
    def test_concurrent_first_touch_sees_full_contents(self):
        """Racing first reads (warm-started multi-thread serving) must never
        observe a partially materialised dict."""
        import threading
        import time

        from repro.store.codec import LazyDict

        def loader(target):
            for i in range(500):
                target[i] = i
                if i == 1:
                    time.sleep(0.02)  # widen the window racing readers hit

        lazy = LazyDict(loader)
        errors = []
        started = threading.Barrier(6)

        def reader():
            try:
                started.wait()
                assert lazy[499] == 499
                assert len(lazy) == 500
            except Exception as exc:  # pragma: no cover - failure capture
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # Whichever reader won the race, the swap to a plain dict happened once.
        assert type(lazy).__getitem__ is dict.__getitem__


def _ior(d):
    d |= {3: 4}
    return d


#: One call per public ``dict`` method that reads, merges or writes contents.
DICT_CALLS = {
    "__contains__": lambda d: (1 in d, 9 in d),
    "__getitem__": lambda d: d[1],
    "__iter__": lambda d: list(iter(d)),
    "__len__": lambda d: (len(d), bool(d)),
    "__reversed__": lambda d: list(reversed(d)),
    "__eq__": lambda d: d == {1: 2, 5: 6},
    "__ne__": lambda d: d != {1: 2, 5: 6},
    "__repr__": repr,
    "__str__": str,
    "__format__": lambda d: format(d, ""),
    "__or__": lambda d: d | {3: 4},
    "__ror__": lambda d: {3: 4} | d,
    "__ior__": _ior,
    "__setitem__": lambda d: d.__setitem__(3, 4),
    "__delitem__": lambda d: d.__delitem__(1),
    "get": lambda d: (d.get(1), d.get(9, "missing")),
    "keys": lambda d: list(d.keys()),
    "values": lambda d: list(d.values()),
    "items": lambda d: list(d.items()),
    "copy": lambda d: d.copy(),
    "pop": lambda d: d.pop(1),
    "popitem": lambda d: d.popitem(),
    "setdefault": lambda d: (d.setdefault(1, 0), d.setdefault(3, 4)),
    "update": lambda d: d.update({3: 4}),
    "clear": lambda d: d.clear(),
    # Not methods, but the two ways a dict is most often copied.
    "dict()": dict,
    "{**d}": lambda d: {**d},
}

#: ``dir(dict)`` entries that do not depend on the contents: the object
#: protocol, construction, and the ordering operators (``NotImplemented``).
DICT_NOT_CONTENT = {
    "__class__", "__class_getitem__", "__delattr__", "__dir__", "__doc__",
    "__getattribute__", "__getstate__", "__hash__", "__init__",
    "__init_subclass__", "__new__", "__reduce__", "__reduce_ex__",
    "__setattr__", "__sizeof__", "__subclasshook__", "fromkeys",
    "__ge__", "__gt__", "__le__", "__lt__",
}


class TestLazyDictIsADict:
    def test_every_dict_method_is_classified(self):
        """A ``dict`` method this suite has never heard of fails here, not in
        production as an empty view of an unloaded container."""
        assert set(dir(dict)) <= set(DICT_CALLS) | DICT_NOT_CONTENT

    @pytest.mark.parametrize("name", sorted(DICT_CALLS))
    def test_unloaded_reads_like_the_loaded_dict(self, name):
        from repro.store.codec import LazyDict

        contents = {1: 2, 5: 6}
        plain = dict(contents)
        lazy = LazyDict(lambda target: target.update(contents))
        call = DICT_CALLS[name]
        assert call(lazy) == call(plain)
        assert dict.items(lazy) == plain.items()  # read past any override
        # ... and from now on nothing about it is lazy or Python-level.
        assert type(lazy).__getitem__ is dict.__getitem__
        assert type(lazy).get is dict.get


@NEEDS_NATIVE
class TestKernelReattachment:
    def test_stores_attached_without_refreeze(self, built_indexes, snapshot_dirs):
        """The persisted stores are live immediately after the load."""
        loaded = load_index(snapshot_dirs["DH2H"])
        assert "labels" in loaded._kernel_stores
        store = loaded._kernel_stores["labels"]
        loaded.query(0, 9)
        assert loaded._kernel_stores["labels"] is store  # no refreeze happened

    def test_attached_store_dropped_on_update(self, snapshot_dirs):
        loaded = load_index(snapshot_dirs["DH2H"])
        attached = loaded._kernel_stores["labels"]
        batch = generate_update_batch(loaded.graph, UPDATE_VOLUME, seed=9)
        loaded.apply_batch(batch)
        refrozen = loaded._label_store()
        assert refrozen is not attached


class TestNpzPayloadReader:
    def test_interleaved_member_fetches_share_no_file_offset(self, tmp_path, monkeypatch):
        """A fetch that starts while another is mid-header (a second thread,
        or a forked cluster reader and the maintainer it inherited the index
        from) leaves the first one reading its own header: both members come
        back as mmap views with their own contents."""
        from repro.store.arrays import ArrayReader, ArrayWriter

        writer = ArrayWriter()
        first = writer.put_ints(range(10))
        second = writer.put_floats([0.5, 1.5, 2.5])
        reader = ArrayReader(str(tmp_path / writer.write(str(tmp_path))))
        read_magic = numpy.lib.format.read_magic
        nested = {}

        def interleaved(handle):
            version = read_magic(handle)
            if "second" not in nested:
                nested["second"] = None
                nested["second"] = reader.get_array(second)
            return version

        monkeypatch.setattr(numpy.lib.format, "read_magic", interleaved)
        array = reader.get_array(first)
        assert isinstance(array, numpy.memmap)
        assert array.tolist() == list(range(10))
        assert isinstance(nested["second"], numpy.memmap)
        assert nested["second"].tolist() == [0.5, 1.5, 2.5]


@NEEDS_NATIVE
class TestStoreGenerations:
    """``save_stores`` / ``load_stores`` + ``adopt_stores``: an index loaded
    from the base snapshot answers a later epoch from the stores another
    index froze, and from nothing else."""

    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_reader_answers_from_adopted_stores(self, method, snapshot_dirs, tmp_path):
        maintainer = load_index(snapshot_dirs[method])
        reader = load_index(snapshot_dirs[method])
        maintainer.apply_batch(
            generate_update_batch(maintainer.graph, UPDATE_VOLUME, seed=17)
        )
        path = save_stores(maintainer, str(tmp_path / "stores-000001"), epoch=1)
        assert read_manifest(path, STORES_FORMAT)["epoch"] == 1
        epoch, stores = load_stores(path, reader.graph)
        assert epoch == 1 and set(stores) == set(maintainer._kernel_exports())
        reader.adopt_stores(stores)
        pairs = _query_pairs(maintainer.graph)
        assert reader.query_many(pairs) == maintainer.query_many(pairs)

    def test_missing_store_raises_instead_of_freezing(self, snapshot_dirs, tmp_path):
        reader = load_index(snapshot_dirs["N-CH-P"])
        maintainer = load_index(snapshot_dirs["N-CH-P"])
        _epoch, stores = load_stores(
            save_stores(maintainer, str(tmp_path / "stores"), epoch=0), reader.graph
        )
        del stores["partition_1"]
        reader.adopt_stores(stores)
        vertex = next(
            v for v in reader.graph.vertices()
            if reader.partitioning.partition_of(v) == 1
            and v not in reader.partitioning.boundary(1)
        )
        with pytest.raises(StoreNotPublishedError) as excinfo:
            reader.query_many([(vertex, 0)])
        assert excinfo.value.key == "partition_1"
        assert "partition_1" not in reader._kernel_stores

    def test_a_full_snapshot_is_not_a_store_generation(self, snapshot_dirs):
        with pytest.raises(SnapshotFormatError):
            load_stores(snapshot_dirs["PMHL"], _base_graph())
