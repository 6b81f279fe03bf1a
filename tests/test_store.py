"""Persistence suite for ``repro.store`` (see DESIGN.md §8).

The contract under test:

* every registered method round-trips through ``save_index``/``load_index``
  with **bit-identical** scalar / ``query_many`` / ``query_one_to_many``
  results — freshly built and after ``apply_batch``;
* a loaded index is a full peer of the original: it accepts further update
  batches (the kernel epoch advances, reattached stores are invalidated) and
  keeps answering exactly like the original under the same updates;
* a loaded index answers like the original also on the reference rung
  (``tests/oracles/queries``), and unknown spec overrides fail fast;
* corruption and version skew raise *typed* errors — a truncated payload, a
  schema-version mismatch and a graph-fingerprint mismatch each surface as
  their own ``repro.exceptions`` class instead of wrong distances;
* the serving engine exports epoch-consistent snapshots and warm-starts from
  them, and the experiment build cache reuses snapshots correctly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

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
from repro.kernels.label_store import MASK
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
from repro.store.codec import pack_graph, unpack_graph
from repro.throughput.workload import sample_query_pairs

from tests.conftest import (
    index_state_digest, maintenance_structures, neighbors,
)
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

    def test_loaded_index_on_the_reference_rung(self, built_indexes, snapshot_dirs):
        """The reattached stores and the loaded structures the reference
        hooks read answer alike."""
        for method in ("DH2H", "PMHL"):
            original = built_indexes[method]
            reference = reference_rung(load_index(snapshot_dirs[method]))
            attached = dict(reference._kernel_stores)
            pairs = _query_pairs(original.graph)[:20]
            assert original.query_many(pairs) == reference.query_many(pairs)
            # The reference rung answered without touching a store.
            assert reference._kernel_stores == attached

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


class TestSharedBuffers:
    """An arena two owners pack — a contraction and its shortcut store,
    labels and their label store — is one payload entry, referenced
    twice, and a loaded index is still a full peer of the saved one."""

    @staticmethod
    def _save(index, path, monkeypatch, share=True):
        """Save ``index``; returns the ids of the arrays ``put_array`` was
        handed.  ``share=False`` writes every put as its own entry (the
        payload earlier versions wrote)."""
        from repro.store.arrays import _REF_KEY, ArrayWriter

        put, seen = ArrayWriter.put_array, []

        def put_array(self, array):
            seen.append(id(array))
            if share:
                return put(self, array)
            name = f"a{len(self._arrays):04d}"
            self._arrays[name] = numpy.ascontiguousarray(array)
            self._names[id(array)] = (array, name)
            return {_REF_KEY: name}

        monkeypatch.setattr(ArrayWriter, "put_array", put_array)
        save_index(index, path)
        monkeypatch.undo()
        return seen

    @staticmethod
    def _members(path) -> int:
        """Entries of the payload's table of contents."""
        with open(os.path.join(path, "state.json")) as handle:
            return len(json.load(handle)["payload_toc"])

    @pytest.mark.parametrize("share", (True, False), ids=("shared", "unshared"))
    @pytest.mark.parametrize("method", ("DCH", "PMHL", "PostMHL"))
    def test_each_buffer_is_written_once(self, method, share, tmp_path, monkeypatch):
        index = create_index(NINE_SPECS[method], _base_graph().copy())
        index.build()
        index.apply_batch(generate_update_batch(index.graph, UPDATE_VOLUME, seed=2))
        path = str(tmp_path / "snap")
        seen = self._save(index, path, monkeypatch, share)
        assert self._members(path) == (len(set(seen)) if share else len(seen))
        assert len(set(seen)) < len(seen)
        loaded = load_index(path)
        pairs = _query_pairs(index.graph)
        _assert_equivalent(index, loaded, pairs)
        for copy in (index, loaded):
            copy.apply_batch(generate_update_batch(copy.graph, UPDATE_VOLUME, seed=3))
        assert index_state_digest(loaded, pairs) == index_state_digest(index, pairs)
        _assert_equivalent(index, loaded, pairs)


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

    @staticmethod
    def _edit_manifest(snapshot, **fields):
        manifest_path = os.path.join(snapshot, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest.update(fields)
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)

    def test_json_payload_backend_rejected(self, snapshot):
        """The pure-JSON payload is gone: a manifest naming it is a typed
        format error, not a reader that half-works."""
        self._edit_manifest(snapshot, payload_backend="json")
        with pytest.raises(SnapshotFormatError, match="json"):
            load_index(snapshot)

    def test_npz_payload_backend_rejected(self, snapshot):
        """So is the zip of ``.npy`` members schema 3 wrote."""
        self._edit_manifest(snapshot, payload="payload.npz", payload_backend="npz")
        with pytest.raises(SnapshotFormatError, match="npz"):
            load_index(snapshot)

    def test_schema_5_snapshot_is_refused(self, snapshot):
        """Schema 5 wrote a spec field that no longer exists (the kernel
        switch): such a snapshot raises, typed, instead of a spec error."""
        self._edit_manifest(snapshot, schema_version=5)
        with pytest.raises(SnapshotVersionError) as excinfo:
            load_index(snapshot)
        assert excinfo.value.found == 5

    def test_schema_3_snapshot_is_refused(self, snapshot):
        """Schema 3 stored the payload as a zip of ``.npy`` members: such a
        snapshot raises, typed, and never loads."""
        self._edit_manifest(snapshot, schema_version=3)
        with pytest.raises(SnapshotVersionError) as excinfo:
            load_index(snapshot)
        assert excinfo.value.found == 3

    def test_state_without_payload_toc_rejected(self, snapshot):
        state_path = os.path.join(snapshot, "state.json")
        with open(state_path) as handle:
            state = json.load(handle)
        del state["payload_toc"]
        with open(state_path, "w") as handle:
            json.dump(state, handle)
        with pytest.raises(SnapshotFormatError):
            load_index(snapshot)

    def test_kernel_store_without_arena_rejected(self, snapshot):
        """A kernel store in the per-array layout that predates the arena
        has no reader left: a typed format error."""
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


#: A child process that loads a snapshot (``index``) or a store generation
#: (``stores``) and answers every pair of the grid: exit 0 with ``refused``
#: when the load raises ``SnapshotFormatError``, 3 when the queries answered.
#: A crash in C ends it by a signal, which fails the test instead of pytest.
_LOAD_AND_QUERY = """
import sys
from repro.exceptions import SnapshotFormatError
from repro.graph.generators import grid_road_network
from repro.store import load_index, load_stores
kind, path, key, side = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
pairs = [(s, t) for s in range(side * side) for t in range(side * side)]
try:
    if kind == "index":
        answers = load_index(path).query_many(pairs)
    else:
        _, stores = load_stores(path, grid_road_network(side, side, seed=5))
        answers = stores[key].query_pairs(pairs)
except SnapshotFormatError as exc:
    print("refused:", exc)
    sys.exit(0)
print("answered", sum(answers))
sys.exit(3)
"""


def _corrupt_first(arrays):
    arrays["first"][5] = 10**11


def _corrupt_logs(arrays):
    arrays["logs"][2:] += 40


def _corrupt_tbl_off(arrays):
    arrays["tbl_off"][1:] += 10**9


def _corrupt_tbl_flat(arrays):
    """Every level-1 entry names row ``MASK``, far past the last row."""
    arrays["tbl_flat"][arrays["tbl_off"][1] : arrays["tbl_off"][2]] |= MASK


def _corrupt_pos_data(arrays):
    arrays["pos_data"][-2] = 10**9


def _corrupt_dis_indptr(arrays):
    arrays["dis_indptr"][3:] += 10**9


#: One corruption per entry the C query indexes without bounds checks;
#: every one of them is read by some pair of the grid.
QUERY_CORRUPTIONS = {
    "first": _corrupt_first,
    "logs": _corrupt_logs,
    "tbl_off": _corrupt_tbl_off,
    "tbl_flat": _corrupt_tbl_flat,
    "pos_data": _corrupt_pos_data,
    "dis_indptr": _corrupt_dis_indptr,
}


def _payload(path):
    """A snapshot's payload file and its table of contents by entry name."""
    with open(os.path.join(path, "manifest.json")) as handle:
        payload = os.path.join(path, json.load(handle)["payload"])
    with open(os.path.join(path, "state.json")) as handle:
        toc = {entry[0]: entry for entry in json.load(handle)["payload_toc"]}
    return payload, toc


def _corrupt_arena(path, arena_state, corrupt):
    """Rewrite, in place, the payload entry holding the arena ``arena_state``
    (a ``{"arena", "toc"}`` entry of the state) with ``corrupt`` applied to
    its entries."""
    payload, toc = _payload(path)
    _name, _dtype, start, count = toc[arena_state["arena"]["__array__"]]
    buffer = numpy.memmap(payload, dtype=numpy.uint8, mode="r+", offset=start, shape=(count,))
    arrays = {
        name: buffer[offset : offset + 8 * count].view(dtype)
        for name, dtype, offset, count in arena_state["toc"]
    }
    corrupt(arrays)
    buffer.flush()
    del arrays, buffer


def _load_and_query(kind, path, key, reason=""):
    """Run ``_LOAD_AND_QUERY`` in a child process; it must print ``refused:``
    (followed somewhere by ``reason``) and exit 0 (a crash in C would end it
    by a signal)."""
    child = subprocess.run(
        [sys.executable, "-c", _LOAD_AND_QUERY, kind, path, key, str(GRID_SIDE)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert child.returncode == 0, (child.returncode, child.stdout, child.stderr)
    assert child.stdout.startswith("refused:"), child.stdout
    assert reason in child.stdout, child.stdout


class TestCorruptedLabelArena:
    """A label arena with a corrupted LCA entry (``first``, ``logs``,
    ``tbl_off``, ``tbl_flat``), position or offset is refused on load — as
    an index's labels and as a kernel store of a store generation — before
    the C query reads it.  Each case loads and queries in a child process."""

    @pytest.mark.parametrize("entry", sorted(QUERY_CORRUPTIONS))
    @pytest.mark.parametrize("method, key", [("DH2H", "labels"), ("PMHL", "cross_labels")])
    @pytest.mark.parametrize("kind", ["index", "stores"])
    def test_refused_on_load(self, kind, method, key, entry, tmp_path):
        index = create_index(NINE_SPECS[method], _base_graph())
        index.build()
        path = str(tmp_path / "snap")
        if kind == "index":
            save_index(index, path)
        else:
            save_stores(index, path, epoch=0)
        with open(os.path.join(path, "state.json")) as handle:
            state = json.load(handle)
        arena_state = state["index"][key] if kind == "index" else state["kernels"][key]
        _corrupt_arena(path, arena_state, QUERY_CORRUPTIONS[entry])
        _load_and_query(kind, path, key)


#: One corruption per shortcut-arena rule the contraction's load checks (and
#: the C search again when it wraps the arena, before it walks a row):
#: ``(corruption, the refusal's reason)``.  Without the indptr check the
#: negative entry sends the tree check's first scan far outside ``indices``:
#: a segfault.
SHORTCUT_CORRUPTIONS = {
    "indptr-negative": (lambda a: a["indptr"].__setitem__(1, -10**12), "inconsistent"),
    "indptr-non-monotone": (
        lambda a: a["indptr"].__setitem__(3, a["indptr"][4] + 2), "inconsistent"
    ),
    "indptr-overshoot": (
        lambda a: a["indptr"].__setitem__(len(a["indptr"]) - 2, 10**12), "inconsistent"
    ),
    # Row 5's first arc names row 2, below it.
    "indices-below-row": (
        lambda a: a["indices"].__setitem__(a["indptr"][5], 2), "elimination tree"
    ),
}


class TestCorruptedShortcutArena:
    """A DCH snapshot whose shortcut arena has a negative, a non-monotone or
    an overshooting ``indptr`` entry, or an arc to a lower row, is refused on
    load with ``SnapshotFormatError``: the contraction's load checks the CSR
    and the arcs' direction before any query reads them (and the C search
    again when the ``ch`` store wraps the same payload entry).  Each case
    loads and queries in a child process."""

    @pytest.mark.parametrize("case", sorted(SHORTCUT_CORRUPTIONS))
    def test_refused_on_load(self, case, tmp_path):
        index = create_index(NINE_SPECS["DCH"], _base_graph())
        index.build()
        path = str(tmp_path / "snap")
        save_index(index, path)
        with open(os.path.join(path, "state.json")) as handle:
            state = json.load(handle)
        corrupt, reason = SHORTCUT_CORRUPTIONS[case]
        # The contraction's arena; the "ch" store wraps the same payload
        # entry.
        _corrupt_arena(path, state["index"]["slots"], corrupt)
        _load_and_query("index", path, "ch", reason)


def _shorten(entry):
    """A table-of-contents edit: the arena's ``entry`` one element short,
    its bytes still inside the arena."""

    def corrupt(toc):
        for row in toc:
            if row[0] == entry:
                row[3] -= 1

    return corrupt


def _corrupt_store(kind, method, key, corrupt, tmp_path):
    """Save ``method``'s index (``kind`` ``"index"``) or its store generation
    (``"stores"``), then corrupt its ``key`` store: ``corrupt`` is ``(payload
    edit, None)`` or ``(None, table-of-contents edit)``.  Returns the path."""
    index = create_index(NINE_SPECS[method], _base_graph())
    index.build()
    path = str(tmp_path / "snap")
    if kind == "index":
        save_index(index, path)
    else:
        save_stores(index, path, epoch=0)
    state_path = os.path.join(path, "state.json")
    with open(state_path) as handle:
        state = json.load(handle)
    payload_edit, toc_edit = corrupt
    if payload_edit is not None:
        _corrupt_arena(path, state["kernels"][key], payload_edit)
    else:
        toc_edit(state["kernels"][key]["toc"])
        with open(state_path, "w") as handle:
            json.dump(state, handle)
    return path


#: TOAIN's hub table, whose join numpy indexes with no bounds check of its
#: own (a negative slot wraps around): ``(corruption, the refusal's
#: reason)``, each refused by ``check_hub_arena``.
HUB_CORRUPTIONS = {
    "indptr-non-monotone": (
        (lambda a: a["hub_indptr"].__setitem__(3, a["hub_indptr"][4] + 2), None),
        "offsets are inconsistent",
    ),
    "slot-negative": ((lambda a: a["hub_slots"].__setitem__(0, -1), None), "outside the core"),
    "slot-past-the-core": (
        (lambda a: a["hub_slots"].__setitem__(0, a["core_size"][0]), None), "outside the core"
    ),
    "dists-shorter-than-slots": ((None, _shorten("hub_dists")), "differ in length"),
}


class TestCorruptedHubArena:
    """A TOAIN hub table with a non-monotone ``hub_indptr``, a slot outside
    ``[0, core_size)`` or fewer distances than slots is refused on load with
    ``SnapshotFormatError`` — in a snapshot and in a store generation —
    before the join indexes it.  Each case loads and queries in a child
    process."""

    @pytest.mark.parametrize("case", sorted(HUB_CORRUPTIONS))
    @pytest.mark.parametrize("kind", ["index", "stores"])
    def test_refused_on_load(self, kind, case, tmp_path):
        corrupt, reason = HUB_CORRUPTIONS[case]
        path = _corrupt_store(kind, "TOAIN", "hubs", corrupt, tmp_path)
        _load_and_query(kind, path, "hubs", reason)


#: The graph snapshot's arena: the C ``search_build`` refuses a CSR that does
#: not fit (its offsets, columns or weight count), and the load rows that
#: are not the graph's own vertices.
GRAPH_SNAPSHOT_CORRUPTIONS = {
    "indptr-non-monotone": (
        (lambda a: a["indptr"].__setitem__(3, a["indptr"][4] + 2), None), "inconsistent"
    ),
    "indices-past-the-rows": (
        (lambda a: a["indices"].__setitem__(0, len(a["ids"])), None), "inconsistent"
    ),
    "weights-short": ((None, _shorten("weights")), "inconsistent"),
    "ids-swapped": (
        (lambda a: a["ids"].__setitem__([0, 1], a["ids"][[1, 0]]), None),
        "graph's vertices",
    ),
}


class TestCorruptedGraphSnapshotArena:
    """BiDijkstra's graph snapshot with a non-monotone ``indptr``, a column
    past the rows, a short weight array or rows that are not the graph's
    vertices is refused on load with ``SnapshotFormatError``, in a snapshot
    and in a store generation.  Each case loads and queries in a child
    process."""

    @pytest.mark.parametrize("case", sorted(GRAPH_SNAPSHOT_CORRUPTIONS))
    @pytest.mark.parametrize("kind", ["index", "stores"])
    def test_refused_on_load(self, kind, case, tmp_path):
        corrupt, reason = GRAPH_SNAPSHOT_CORRUPTIONS[case]
        path = _corrupt_store(kind, "BiDijkstra", "__graph__", corrupt, tmp_path)
        _load_and_query(kind, path, "__graph__", reason)

def _truncate(keep):
    def corrupt(payload, toc):
        with open(payload, "rb+") as handle:
            handle.truncate(keep(os.path.getsize(payload)))

    return corrupt


def _toc_entry(which, change):
    """Apply ``change(entry, nbytes)`` to one non-empty entry of ``toc``: the
    one that ends ``"last"`` — where the payload (or the arena's buffer)
    ends, so that only a bounds check can catch a longer or later extent —
    or the ``"first"``, which a one-byte shift leaves in bounds."""

    def corrupt(nbytes, toc):
        # Entries are laid out in order, so the last non-empty one ends last.
        pick = [i for i, entry in enumerate(toc) if entry[3] > 0][0 if which == "first" else -1]
        toc[pick] = change(list(toc[pick]), nbytes)

    return corrupt


#: A truncated payload file, and one corrupted entry of a table of contents.
PAYLOAD_TRUNCATIONS = {
    "truncated-to-0": _truncate(lambda size: 0),
    "truncated-to-half": _truncate(lambda size: size // 2),
    "truncated-by-1": _truncate(lambda size: size - 1),
}
TOC_CORRUPTIONS = {
    "offset-plus-1": _toc_entry("first", lambda e, nbytes: [e[0], e[1], e[2] + 1, e[3]]),
    "offset-past-end": _toc_entry(
        "last", lambda e, nbytes: [e[0], e[1], -(-nbytes // 64) * 64 + 64, e[3]]
    ),
    "count-doubled": _toc_entry("last", lambda e, nbytes: [e[0], e[1], e[2], 2 * e[3]]),
    "dtype-object": _toc_entry("first", lambda e, nbytes: [e[0], "object", e[2], e[3]]),
}


class TestCorruptedPayload:
    """A PMHL snapshot or store generation whose payload is truncated (to
    nothing, to half, by one byte), or whose payload table of contents or
    label-arena table of contents has one corrupted entry (misaligned, past
    the end, too long, an unsupported dtype), is refused on load with
    ``SnapshotFormatError`` — in a child process, so a crash in C fails the
    test instead of passing it."""

    @staticmethod
    def _save(kind, tmp_path):
        index = create_index(NINE_SPECS["PMHL"], _base_graph())
        index.build()
        path = str(tmp_path / "snap")
        if kind == "index":
            save_index(index, path)
        else:
            save_stores(index, path, epoch=0)
        return path

    @pytest.mark.parametrize("case", sorted(PAYLOAD_TRUNCATIONS))
    @pytest.mark.parametrize("kind", ["index", "stores"])
    def test_truncated_payload_refused(self, kind, case, tmp_path):
        path = self._save(kind, tmp_path)
        PAYLOAD_TRUNCATIONS[case](_payload(path)[0], None)
        _load_and_query(kind, path, "cross_labels")

    @pytest.mark.parametrize("case", sorted(TOC_CORRUPTIONS))
    @pytest.mark.parametrize("toc", ["payload", "arena"])
    @pytest.mark.parametrize("kind", ["index", "stores"])
    def test_corrupted_toc_entry_refused(self, kind, toc, case, tmp_path):
        path = self._save(kind, tmp_path)
        state_path = os.path.join(path, "state.json")
        with open(state_path) as handle:
            state = json.load(handle)
        if toc == "payload":
            TOC_CORRUPTIONS[case](os.path.getsize(_payload(path)[0]), state["payload_toc"])
        else:
            arena = (state["index"] if kind == "index" else state["kernels"])["cross_labels"]
            nbytes = _payload(path)[1][arena["arena"]["__array__"]][3]
            TOC_CORRUPTIONS[case](nbytes, arena["toc"])
        with open(state_path, "w") as handle:
            json.dump(state, handle)
        _load_and_query(kind, path, "cross_labels")


def _swap_edge_ids(array):
    """Swap slot 0's edge id with the next slot's that names another edge."""
    other = int(numpy.flatnonzero(array != array[0])[0])
    array[0], array[other] = int(array[other]), int(array[0])


#: One corruption per graph-payload rule a load checks before anything reads
#: the views: ``(state path of the array, corruption)``.
GRAPH_PAYLOAD_CORRUPTIONS = {
    "indptr-non-monotone": (("graph", "indptr"), lambda a: a.__setitem__(3, a[4] + 2)),
    "indices-out-of-range": (("graph", "indices"), lambda a: a.__setitem__(7, 10**6)),
    # Slot 0 reads the next edge's weight; its mirror slot keeps its own.
    "asymmetric-weight": (("graph", "edge"), lambda a: a.__setitem__(0, a[0] + 1)),
    # Each edge still owns two slots, but not a slot and its mirror image.
    "edge-id-wrong-slot": (("graph", "edge"), _swap_edge_ids),
    "part-out-of-range": (("index", "partitioning", "part"), lambda a: a.__setitem__(0, 99)),
}


class TestCorruptedGraphPayload:
    """A PMHL snapshot whose graph CSR (``indptr``, ``indices``, ``edge``)
    or partition assignment (``part``) is corrupted in the payload is
    refused on load with ``SnapshotFormatError`` — the graph and the
    partitioning are views of the payload, checked in numpy before any
    search reads them.  Each case loads and queries in a child process."""

    @pytest.mark.parametrize("case", sorted(GRAPH_PAYLOAD_CORRUPTIONS))
    def test_refused_on_load(self, case, tmp_path):
        index = create_index(NINE_SPECS["PMHL"], _base_graph())
        index.build()
        path = str(tmp_path / "snap")
        save_index(index, path)
        with open(os.path.join(path, "state.json")) as handle:
            state = json.load(handle)
        where, corrupt = GRAPH_PAYLOAD_CORRUPTIONS[case]
        for key in where:
            state = state[key]
        payload, toc = _payload(path)
        _name, dtype, start, count = toc[state["__array__"]]
        array = numpy.memmap(payload, dtype=dtype, mode="r+", offset=start, shape=(count,))
        corrupt(array)
        array.flush()
        del array
        _load_and_query("index", path, "cross_labels")


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
        c = _base_graph().with_edges(vertices=[10_000])
        assert graph_fingerprint(a) != graph_fingerprint(c)


class ListIO:
    """The writer / reader surface the graph codec uses, over plain lists
    (each array's dtype kept beside it)."""

    def __init__(self):
        self.arrays = []
        self.dtypes = []

    def put_array(self, array):
        self.arrays.append(numpy.asarray(array).tolist())
        self.dtypes.append(numpy.asarray(array).dtype)
        return len(self.arrays) - 1

    def get_array(self, ref):
        return numpy.asarray(self.arrays[ref], dtype=self.dtypes[ref])


#: A grid whose neighbour rows an edge-list codec would reorder.
def _ordered_graph():
    return grid_road_network(10, 10, seed=1)


class TestGraphPayload:
    """The graph payload is the graph's arrays, so a loaded graph (and a
    graph snapshot frozen from it) is the saved one's byte for byte; a
    payload that is not a well-formed symmetric CSR is refused."""

    @staticmethod
    def rows(graph):
        return [(v, list(neighbors(graph, v).items())) for v in graph.vertices()]

    def test_codec_keeps_rows_in_order(self):
        graph = _ordered_graph()
        io = ListIO()
        loaded = unpack_graph(pack_graph(graph, io), io)
        assert self.rows(loaded) == self.rows(graph)
        assert loaded.num_edges == graph.num_edges
        assert graph_fingerprint(loaded) == graph_fingerprint(graph)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda a, st: a[st["edge"]].__setitem__(0, a[st["edge"]][1]), "asymmetric"),
            (lambda a, st: a[st["indices"]].__setitem__(0, a[st["indices"]][1]), "asymmetric"),
            (lambda a, st: a[st["indices"]].__setitem__(0, 0), "asymmetric"),
            (lambda a, st: a[st["indices"]].__setitem__(0, 10_000), "out of range"),
            (lambda a, st: a[st["indptr"]].pop(), "malformed"),
            (lambda a, st: a[st["weights"]].__setitem__(0, -1.0), "non-positive"),
            (lambda a, st: (a[st["ids"]].append(a[st["ids"]][0]),
                            a[st["indptr"]].append(a[st["indptr"]][-1])), "distinct"),
        ],
        ids=["weight", "duplicate", "self-loop", "unknown-vertex", "indptr", "negative",
             "vertex-twice"],
    )
    def test_codec_refuses_a_broken_adjacency(self, tamper, message):
        io = ListIO()
        state = pack_graph(_ordered_graph(), io)
        tamper(io.arrays, state)
        with pytest.raises(ValueError, match=message):
            unpack_graph(state, io)

    @pytest.mark.parametrize("method", ["BiDijkstra", "PMHL"])
    def test_neighbour_order_survives_save_load(self, method, tmp_path):
        built = create_index(method, _ordered_graph())
        built.build()
        save_index(built, str(tmp_path / "snap"))
        loaded = load_index(str(tmp_path / "snap"))
        assert self.rows(loaded.graph) == self.rows(built.graph)
        batch = generate_update_batch(built.graph, UPDATE_VOLUME, seed=2)
        for index in (built, loaded):
            index.apply_batch(batch)
        assert self.rows(loaded.graph) == self.rows(built.graph)

    @pytest.mark.parametrize("method", ["BiDijkstra", "PMHL"])
    def test_fresh_freeze_equals_the_attached_snapshot(self, method, tmp_path):
        """BiDijkstra's snapshot is reattached from the payload, PMHL's frozen
        on first use; either way a fresh freeze of the loaded graph, and the
        saved index's snapshot, are the same bytes — after one batch too,
        when the loaded one is patched."""
        from repro.kernels.graph_snapshot import GraphSnapshot

        built = create_index(method, _ordered_graph())
        built.build()
        save_index(built, str(tmp_path / "snap"))
        loaded = load_index(str(tmp_path / "snap"))
        batch = generate_update_batch(built.graph, UPDATE_VOLUME, seed=2)
        for step in ("load", "batch"):
            if step == "batch":
                for index in (built, loaded):
                    index.apply_batch(batch)
            attached = bytes(loaded._graph_snapshot().arena.buffer)
            assert attached == bytes(GraphSnapshot.freeze(loaded.graph).arena.buffer), step
            assert attached == bytes(built._graph_snapshot().arena.buffer), step

    def test_snapshot_of_the_edge_list_schema_is_refused(self, tmp_path):
        """Schema 1 stored the graph as an edge list and the boundary tables
        as pair lists: such a snapshot raises, typed, and never loads."""
        index = create_index(NINE_SPECS["PMHL"], _base_graph())
        index.build()
        path = str(tmp_path / "snap")
        save_index(index, path)
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["schema_version"] = 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(SnapshotVersionError) as excinfo:
            load_index(path)
        assert excinfo.value.found == 1


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


class TestArenaPayloadReader:
    """A load maps its payload once, and everything it reads is a view of
    that one mapping."""

    def test_every_array_a_load_reads_views_one_mapping(self, built_indexes, tmp_path,
                                                        monkeypatch):
        from repro.store.arrays import ArrayReader

        path = str(tmp_path / "snap")
        save_index(built_indexes["PMHL"], path)
        get_array, read = ArrayReader.get_array, []

        def recording(self, ref):
            array = get_array(self, ref)
            read.append((self, array))
            return array

        monkeypatch.setattr(ArrayReader, "get_array", recording)
        loaded = load_index(path)
        monkeypatch.undo()
        readers = {id(reader): reader for reader, _ in read}
        assert len(readers) == 1 and len(read) > 10
        mapping = next(iter(readers.values())).arena.buffer
        assert isinstance(mapping, numpy.memmap)

        def root(array):
            while isinstance(array, numpy.ndarray) and array is not mapping:
                array = array.base
            return array

        arrays = [array for _, array in read]
        arrays += [store.arena.buffer for store in loaded._kernel_stores.values()]
        assert all(root(array) is mapping for array in arrays)
        if os.path.exists("/proc/self/maps"):
            payload = os.path.realpath(os.path.join(path, "payload.bin"))
            with open("/proc/self/maps") as handle:
                assert sum(payload in line for line in handle) == 1

    def test_empty_payload_saves_and_loads(self, tmp_path):
        """A store generation of an index that exports no store (one on its
        reference rung) has an empty payload file, and it loads."""
        index = reference_rung(create_index("DCH", _base_graph()))
        index.build()
        path = save_stores(index, str(tmp_path / "stores"), epoch=4)
        assert os.path.getsize(os.path.join(path, "payload.bin")) == 0
        assert load_stores(path, index.graph) == (4, {})

    def test_reader_forked_after_load_answers_like_its_parent(self, snapshot_dirs):
        """One mapping, taken at open: a process forked after ``load_index``
        (a cluster reader inheriting the maintainer's index) answers every
        pair bit-identically to its parent."""
        index = load_index(snapshot_dirs["PMHL"])
        side = GRID_SIDE * GRID_SIDE
        pairs = [(s, t) for s in range(side) for t in range(side)]
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the forked child
            code = 1
            try:
                os.close(read_end)
                answers = numpy.asarray(index.query_many(pairs), dtype=numpy.float64)
                with os.fdopen(write_end, "wb") as out:
                    out.write(answers.tobytes())
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as source:
            child = source.read()
        assert os.waitpid(pid, 0)[1] == 0
        assert child == numpy.asarray(index.query_many(pairs), dtype=numpy.float64).tobytes()


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
