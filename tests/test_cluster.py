"""Tests for repro.cluster — sharded multi-process serving.

Covers bit-identical answers versus the single-process
:class:`~repro.serving.engine.ServingEngine` (fresh and post-update, on all
nine registry methods, plus a seeded differential against the Dijkstra
oracle), epoch-barrier consistency under interleaved update/query batches
(every reader answers at the same epoch — no torn reads), readers that answer
only from the maintainer's published stores, all-or-nothing rejection of bad
batches, reader crash/hang recovery (mid-query and mid-adopt) with typed
:class:`~repro.exceptions.ClusterWorkerError`, graceful shutdown without
orphan processes, store-generation retention, explicit full snapshots, and
the atomic ``save_index`` / ``export_snapshot`` write path.
"""

from __future__ import annotations

import errno
import os
import threading
import time

import pytest

from repro.algorithms.dijkstra import dijkstra_distance
from repro.cluster import ClusterEngine, ShardRouter
from repro.cluster.routing import _stable_hash
from repro.exceptions import (
    ClusterError,
    ClusterWorkerError,
    EdgeNotFoundError,
    EngineStoppedError,
    InvalidWeightError,
    VertexNotFoundError,
)
from repro.graph.generators import grid_road_network
from repro.graph.updates import EdgeUpdate, UpdateBatch, generate_update_stream
from repro.registry import create_index, get_spec
from repro.serving.engine import ServingEngine
from repro.store import STORES_FORMAT, load_snapshot_graph, read_manifest, save_index
from repro.throughput.workload import sample_query_pairs
from tests.conftest import require_numpy

SIDE = 7
SEED = 7
QUERY_COUNT = 40


@pytest.fixture(scope="module")
def base_graph():
    return grid_road_network(SIDE, SIDE, seed=SEED)


@pytest.fixture(scope="module")
def pmhl_snapshot(base_graph, tmp_path_factory):
    """A built PMHL index persisted once for every test in the module."""
    index = create_index(
        get_spec("PMHL", num_partitions=4, seed=0), base_graph.copy()
    )
    index.build()
    path = str(tmp_path_factory.mktemp("cluster") / "gen-000000")
    save_index(index, path, atomic=True, generation=0)
    return path


@pytest.fixture(scope="module")
def query_pairs(base_graph):
    return list(sample_query_pairs(base_graph, QUERY_COUNT, seed=3))


@pytest.fixture(scope="module")
def update_batches(base_graph):
    return generate_update_stream(base_graph, 3, 10, seed=11)


#: Every registry method, sized for the 7x7 grid (as in test_differential).
NINE_SPECS = {
    "BiDijkstra": get_spec("BiDijkstra"),
    "DCH": get_spec("DCH"),
    "DH2H": get_spec("DH2H"),
    "MHL": get_spec("MHL"),
    "TOAIN": get_spec("TOAIN", checkin_fraction=0.25),
    "N-CH-P": get_spec("N-CH-P", num_partitions=3, seed=0),
    "P-TD-P": get_spec("P-TD-P", num_partitions=3, seed=0),
    "PMHL": get_spec("PMHL", num_partitions=3, seed=0),
    "PostMHL": get_spec("PostMHL", bandwidth=8, expected_partitions=3),
}


def make_cluster(snapshot, tmp_path, **kwargs):
    require_numpy()
    kwargs.setdefault("num_workers", 2)
    kwargs.setdefault("publish_dir", str(tmp_path / "gens"))
    return ClusterEngine(snapshot, **kwargs)


def cluster_from_index(index, tmp_path, **kwargs):
    require_numpy()
    return ClusterEngine.from_index(index, str(tmp_path), **kwargs)


def store_generations(publish_dir):
    return sorted(name for name in os.listdir(publish_dir) if name.startswith("stores-"))


def leftovers(directory):
    return [name for name in os.listdir(directory) if ".tmp" in name or ".old" in name]


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class TestShardRouter:
    def test_partition_affinity(self):
        router = ShardRouter(3, {0: 0, 1: 0, 2: 1, 3: 2})
        assert router.partition_aware
        # Same source partition -> same worker, whatever the target.
        assert router.worker_for(0, 2) == router.worker_for(1, 3)

    def test_hash_fallback_is_deterministic_and_spread(self):
        router = ShardRouter(4)
        assert not router.partition_aware
        first = [router.worker_for(v, v + 1) for v in range(64)]
        assert first == [router.worker_for(v, v + 1) for v in range(64)]
        # The multiplicative mix must not send consecutive ids to one worker.
        assert len(set(first)) == 4

    def test_unknown_source_routes_by_target_partition(self):
        router = ShardRouter(2, {5: 1})
        assert router.worker_for(99, 5) == _stable_hash(1) % 2

    def test_split_preserves_positions(self):
        router = ShardRouter(2)
        pairs = [(1, 2), (2, 3), (3, 4), (4, 5)]
        assignments = router.split(pairs)
        seen = sorted(
            position for entries in assignments.values() for position, _ in entries
        )
        assert seen == [0, 1, 2, 3]
        for entries in assignments.values():
            for position, pair in entries:
                assert pairs[position] == pair

    def test_single_worker_takes_everything(self):
        router = ShardRouter(1, {0: 3})
        assert router.split([(0, 1), (9, 9)]).keys() == {0}

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


# ----------------------------------------------------------------------
# Bit-identical answers vs the single-process engine
# ----------------------------------------------------------------------
class TestBitIdentical:
    def test_fresh_matches_single_process(self, pmhl_snapshot, query_pairs, tmp_path):
        single = ServingEngine.from_snapshot(pmhl_snapshot, cache_capacity=0)
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            assert cluster.partition_aware
            got = cluster.query_batch(query_pairs)
        with single:
            expected = single.query_batch(query_pairs)
        assert got == expected

    def test_post_update_matches_single_process(
        self, pmhl_snapshot, query_pairs, update_batches, tmp_path
    ):
        single = ServingEngine.from_snapshot(pmhl_snapshot, cache_capacity=0)
        with make_cluster(pmhl_snapshot, tmp_path) as cluster, single:
            for batch in update_batches:
                cluster.apply_batch(batch)
                single.submit_batch(batch)
            single.wait_for_maintenance()
            got = cluster.serve_batch(query_pairs)
            expected = single.serve_batch(query_pairs)
        assert [r.distance for r in got] == [r.distance for r in expected]
        assert {r.epoch for r in got} == {len(update_batches)}

    def test_seeded_differential_vs_dijkstra(
        self, pmhl_snapshot, update_batches, tmp_path
    ):
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            for round_number, batch in enumerate([None, *update_batches[:2]]):
                if batch is not None:
                    cluster.apply_batch(batch)
                epoch = cluster.current_epoch
                graph = cluster.graph_at(epoch)
                pairs = list(sample_query_pairs(graph, 12, seed=100 + round_number))
                results = cluster.serve_batch(pairs)
                for (source, target), result in zip(pairs, results):
                    oracle = dijkstra_distance(graph, source, target)
                    assert result.distance == pytest.approx(oracle, rel=1e-12), (
                        f"seed={100 + round_number} pair=({source},{target}) "
                        f"epoch={epoch}"
                    )

    def test_unpartitioned_method_uses_hash_fallback(
        self, base_graph, query_pairs, tmp_path
    ):
        index = create_index(get_spec("DH2H"), base_graph.copy())
        index.build()
        snapshot = str(tmp_path / "dh2h")
        save_index(index, snapshot, atomic=True)
        with make_cluster(snapshot, tmp_path) as cluster:
            assert not cluster.partition_aware
            assert cluster.query_batch(query_pairs) == index.query_many(query_pairs)
            # Both shards actually served (hash spread, not all-on-one).
            busy = [w for w in cluster.worker_stats() if w["queries_served"] > 0]
            assert len(busy) == 2

    def test_scalar_serve_and_vertex_validation(
        self, pmhl_snapshot, query_pairs, tmp_path
    ):
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            source, target = query_pairs[0]
            result = cluster.serve(source, target)
            assert result.distance == cluster.query(source, target)
            assert result.stage.startswith("shard")
            with pytest.raises(VertexNotFoundError):
                cluster.serve(source, 10_000)
            assert cluster.serve_batch([]) == []


class TestReaderStart:
    def test_first_readers_inherit_the_maintainers_base(
        self, pmhl_snapshot, query_pairs, tmp_path, monkeypatch
    ):
        """Under fork the first readers reuse the base the maintainer loaded:
        with ``load_index`` unusable after construction they still start and
        answer like the single-process engine."""
        cluster = make_cluster(pmhl_snapshot, tmp_path, start_method="fork")

        def no_load(*_args, **_kwargs):
            raise AssertionError("a first reader loaded the snapshot again")

        monkeypatch.setattr("repro.store.load_index", no_load)
        with cluster:
            got = cluster.query_batch(query_pairs)
        monkeypatch.undo()
        with ServingEngine.from_snapshot(pmhl_snapshot, cache_capacity=0) as single:
            assert got == single.query_batch(query_pairs)

    def test_restart_after_a_batch_serves_the_committed_epoch(
        self, pmhl_snapshot, query_pairs, update_batches, tmp_path
    ):
        """Once the maintainer took a batch it is no base any more: readers
        started later load the base snapshot and adopt the newest generation."""
        cluster = make_cluster(pmhl_snapshot, tmp_path)
        with cluster:
            cluster.apply_batch(update_batches[0])
            expected = cluster.query_batch(query_pairs)
        with cluster:
            results = cluster.serve_batch(query_pairs)
            assert (results.epoch, results.distances) == (1, expected)
            assert {row["adopts"] for row in cluster.worker_stats()} == {1}


# ----------------------------------------------------------------------
# Epoch barrier: no torn reads across an update broadcast
# ----------------------------------------------------------------------
class TestEpochBarrier:
    def test_every_shard_answers_at_the_same_epoch(
        self, pmhl_snapshot, query_pairs, update_batches, tmp_path
    ):
        """The acceptance bar: across update broadcasts, each served batch
        carries exactly one epoch and matches that epoch's Dijkstra oracle."""
        with make_cluster(pmhl_snapshot, tmp_path, num_workers=3) as cluster:
            observed = []
            errors = []
            stop = threading.Event()

            def serve_loop():
                try:
                    while not stop.is_set():
                        results = cluster.serve_batch(query_pairs)
                        observed.append(results)
                except Exception as exc:  # surfaced below; never swallowed
                    errors.append(exc)

            server = threading.Thread(target=serve_loop)
            server.start()
            try:
                for batch in update_batches:
                    cluster.apply_batch(batch)
                    time.sleep(0.05)  # let some batches serve at this epoch
            finally:
                stop.set()
                server.join()

            assert not errors, f"serve loop raised: {errors[0]!r}"
            assert observed
            epochs_seen = set()
            for results in observed:
                epochs = {r.epoch for r in results}
                assert len(epochs) == 1, f"torn batch: epochs {sorted(epochs)}"
                epochs_seen |= epochs
            # Answers are consistent with the graph of the epoch they report.
            for results in observed:
                epoch = results[0].epoch
                graph = cluster.graph_at(epoch)
                for result in results[:5]:
                    oracle = dijkstra_distance(graph, result.source, result.target)
                    assert result.distance == pytest.approx(oracle, rel=1e-12)
            # The stream actually crossed epochs (else the test proved nothing).
            assert len(epochs_seen) >= 2

    def test_worker_epochs_agree_after_each_broadcast(
        self, pmhl_snapshot, update_batches, tmp_path
    ):
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            for expected, batch in enumerate(update_batches, start=1):
                cluster.apply_batch(batch)
                assert cluster.current_epoch == expected
                assert {w["epoch"] for w in cluster.worker_stats()} == {expected}

    def test_submitted_batches_drain_in_order(
        self, pmhl_snapshot, query_pairs, update_batches, tmp_path
    ):
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            for batch in update_batches:
                cluster.submit_batch(batch)
            assert cluster.wait_for_maintenance(timeout=60)
            assert cluster.pending_batches == 0
            assert cluster.current_epoch == len(update_batches)
            assert not cluster.maintenance_errors
            results = cluster.serve_batch(query_pairs)
            assert {r.epoch for r in results} == {len(update_batches)}

    def test_update_report_is_the_maintainers_own(
        self, pmhl_snapshot, update_batches, tmp_path
    ):
        """One maintainer applies the batch: its report has the stage names
        and per-partition ``parallel_times`` the single-process engine
        reports for the same method and batch."""
        single = ServingEngine.from_snapshot(pmhl_snapshot, cache_capacity=0)
        with make_cluster(pmhl_snapshot, tmp_path) as cluster, single:
            report = cluster.apply_batch(update_batches[0])
            expected = single.apply_batch(update_batches[0])

        def shape(stages):
            return [
                (s.name, None if s.parallel_times is None else len(s.parallel_times))
                for s in stages
            ]

        assert report.stages[0].name == "edge_update"
        assert shape(report.stages) == shape(expected.stages)
        assert any(s.parallel_times for s in report.stages)
        assert report.total_seconds > 0


# ----------------------------------------------------------------------
# Worker death / hang robustness
# ----------------------------------------------------------------------
class TestWorkerFailure:
    def test_crash_fails_batch_typed_then_recovers(
        self, pmhl_snapshot, query_pairs, tmp_path
    ):
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            expected = cluster.query_batch(query_pairs)
            cluster.inject_worker_crash(0)
            time.sleep(0.2)
            with pytest.raises(ClusterWorkerError) as excinfo:
                cluster.query_batch(query_pairs)
            assert excinfo.value.worker_id == 0
            assert isinstance(excinfo.value, ClusterError)
            # The failed worker was respawned: full pool, identical answers.
            assert cluster.query_batch(query_pairs) == expected
            assert cluster.stats()["respawns"] == 1

    def test_hung_worker_hits_timeout_and_recovers(
        self, pmhl_snapshot, query_pairs, tmp_path
    ):
        with make_cluster(
            pmhl_snapshot, tmp_path, worker_timeout=1.0
        ) as cluster:
            expected = cluster.query_batch(query_pairs)
            cluster.inject_worker_hang(0, seconds=30.0)
            started = time.monotonic()
            with pytest.raises(ClusterWorkerError) as excinfo:
                cluster.query_batch(query_pairs)
            assert time.monotonic() - started < 10.0  # timeout, not the sleep
            assert "hung" in excinfo.value.reason or "died" in excinfo.value.reason
            assert cluster.query_batch(query_pairs) == expected

    def test_respawn_uses_last_published_generation(
        self, pmhl_snapshot, query_pairs, update_batches, tmp_path
    ):
        """A respawned reader loads the base snapshot and maps the newest
        store generation: no batch is replayed, the answers are the epoch's."""
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            cluster.apply_batch(update_batches[0])
            cluster.apply_batch(update_batches[1])
            expected = cluster.query_batch(query_pairs)
            cluster.inject_worker_crash(0)
            time.sleep(0.2)
            with pytest.raises(ClusterWorkerError):
                cluster.query_batch(query_pairs)
            results = cluster.serve_batch(query_pairs)
            assert [r.distance for r in results] == expected
            assert {r.epoch for r in results} == {2}
            rows = {row["worker"]: row for row in cluster.worker_stats()}
            assert (rows[0]["epoch"], rows[0]["adopts"]) == (2, 1)
            assert (rows[1]["epoch"], rows[1]["adopts"]) == (2, 2)

    def test_crash_during_update_broadcast_still_closes_barrier(
        self, pmhl_snapshot, query_pairs, update_batches, tmp_path
    ):
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            cluster.inject_worker_crash(0)
            time.sleep(0.2)
            report = cluster.apply_batch(update_batches[0])
            assert report.stages  # the maintainer's timings
            assert cluster.current_epoch == 1
            results = cluster.serve_batch(query_pairs)
            assert {r.epoch for r in results} == {1}
            assert {w["epoch"] for w in cluster.worker_stats()} == {1}
            assert cluster.stats()["respawns"] == 1

    @pytest.mark.parametrize("fault", ["crash", "hang"])
    def test_reader_lost_mid_adopt_rejoins_at_the_new_epoch(
        self, pmhl_snapshot, query_pairs, update_batches, tmp_path, fault
    ):
        """The adopt reaches a reader that then dies (or sleeps past its
        timeout): it is respawned straight into the new generation, its
        readiness ping confirms the epoch, and the barrier closes."""
        single = ServingEngine.from_snapshot(pmhl_snapshot, cache_capacity=0)
        with make_cluster(pmhl_snapshot, tmp_path, worker_timeout=1.0) as cluster, single:
            if fault == "crash":
                cluster.inject_worker_crash(1, on="adopt")
            else:
                cluster.inject_worker_hang(1, seconds=30.0, on="adopt")
            started = time.monotonic()
            cluster.apply_batch(update_batches[0])
            assert time.monotonic() - started < 20.0  # the timeout, not the sleep
            single.apply_batch(update_batches[0])
            assert cluster.current_epoch == 1
            assert cluster.stats()["respawns"] == 1
            rows = {row["worker"]: row for row in cluster.worker_stats()}
            assert {row["epoch"] for row in rows.values()} == {1}
            assert rows[1]["adopts"] == 1  # adopted at spawn, not replayed
            results = cluster.serve_batch(query_pairs)
            assert {r.epoch for r in results} == {1}
            assert [r.distance for r in results] == single.query_batch(query_pairs)


# ----------------------------------------------------------------------
# Graceful shutdown: no orphan processes
# ----------------------------------------------------------------------
class TestShutdown:
    def test_stop_leaves_no_orphans(self, pmhl_snapshot, query_pairs, tmp_path):
        cluster = make_cluster(pmhl_snapshot, tmp_path, num_workers=3)
        cluster.start()
        cluster.query_batch(query_pairs)
        pids = [process.pid for process in cluster._dispatcher.processes()]
        assert len(pids) == 3
        cluster.stop()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # joined and reaped: the pid is gone

    def test_stop_is_idempotent_and_stopped_engine_rejects_work(
        self, pmhl_snapshot, query_pairs, update_batches, tmp_path
    ):
        cluster = make_cluster(pmhl_snapshot, tmp_path)
        cluster.start()
        cluster.stop()
        cluster.stop()
        with pytest.raises(EngineStoppedError):
            cluster.serve_batch(query_pairs)
        with pytest.raises(EngineStoppedError):
            cluster.submit_batch(update_batches[0])
        with pytest.raises(EngineStoppedError):
            cluster.apply_batch(update_batches[0])
        with pytest.raises(EngineStoppedError):
            cluster.publish_snapshot()

    def test_stop_kills_hung_worker(self, pmhl_snapshot, tmp_path):
        cluster = make_cluster(pmhl_snapshot, tmp_path)
        cluster.start()
        pids = [process.pid for process in cluster._dispatcher.processes()]
        cluster.inject_worker_hang(0, seconds=60.0)
        time.sleep(0.2)
        started = time.monotonic()
        cluster.stop()
        assert time.monotonic() - started < 30.0
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


# ----------------------------------------------------------------------
# Snapshot republish lifecycle + atomic writes
# ----------------------------------------------------------------------
class TestRepublish:
    def test_generation_published_after_each_window(
        self, pmhl_snapshot, update_batches, tmp_path
    ):
        """Each committed batch leaves one store generation: the stores the
        readers map, tagged with the epoch they answer for."""
        publish_dir = tmp_path / "pub"
        with make_cluster(pmhl_snapshot, tmp_path, publish_dir=str(publish_dir)) as cluster:
            cluster.apply_batch(update_batches[0])
            cluster.apply_batch(update_batches[1])
            assert cluster.stats()["store_generation"] == 2
            # No full snapshot unless asked for.
            assert cluster.published_snapshots == []
            assert cluster.current_generation == 0
        assert store_generations(publish_dir) == ["stores-000001", "stores-000002"]
        manifest = read_manifest(str(publish_dir / "stores-000002"), STORES_FORMAT)
        assert (manifest["epoch"], manifest["method"]) == (2, "PMHL")
        assert leftovers(publish_dir) == []

    def test_publish_dir_keeps_two_store_generations(
        self, pmhl_snapshot, base_graph, tmp_path
    ):
        publish_dir = tmp_path / "pub"
        batches = generate_update_stream(base_graph, 10, 4, seed=21)
        with make_cluster(pmhl_snapshot, tmp_path, publish_dir=str(publish_dir)) as cluster:
            for number, batch in enumerate(batches, start=1):
                cluster.apply_batch(batch)
                assert len(store_generations(publish_dir)) <= 2
                if number == 5:
                    snapshot = cluster.publish_snapshot()
        assert store_generations(publish_dir) == ["stores-000009", "stores-000010"]
        assert sorted(os.listdir(publish_dir)) == [
            os.path.basename(snapshot), "stores-000009", "stores-000010",
        ]
        assert read_manifest(snapshot)["extras"]["epoch"] == 5

    def test_late_joining_cluster_starts_from_published_generation(
        self, pmhl_snapshot, query_pairs, update_batches, tmp_path
    ):
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            cluster.apply_batch(update_batches[0])
            expected = cluster.query_batch(query_pairs)
            latest = cluster.publish_snapshot()
            exported = str(tmp_path / "exported")
            assert cluster.export_snapshot(exported) == 1
        # A brand-new cluster (a "late joiner") warm-starts from the published
        # generation and serves the updated weights bit-identically.
        with make_cluster(latest, tmp_path, num_workers=1) as fresh:
            assert fresh.current_generation == 1
            assert fresh.query_batch(query_pairs) == expected
        with make_cluster(exported, tmp_path, num_workers=1) as fresh:
            assert fresh.query_batch(query_pairs) == expected

    def test_manual_publish(self, pmhl_snapshot, tmp_path):
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            path = cluster.publish_snapshot()
            assert cluster.current_generation == 1
            assert read_manifest(path)["generation"] == 1


# ----------------------------------------------------------------------
# Readers answer from the maintainer's stores, and from nothing else
# ----------------------------------------------------------------------
class TestReaderCompleteness:
    @pytest.mark.parametrize("method", sorted(NINE_SPECS))
    def test_readers_match_single_process_and_dijkstra(
        self, method, base_graph, query_pairs, update_batches, tmp_path
    ):
        """Every key ``query_many`` reads is exported: two readers answer
        bit-identically to the single-process engine, fresh and after three
        mixed increase/decrease batches, and equal to Dijkstra."""
        index = create_index(NINE_SPECS[method], base_graph.copy())
        index.build()
        single = ServingEngine(index, cache_capacity=0)
        with cluster_from_index(index, tmp_path, num_workers=2) as cluster, single:
            for batch in [None, *update_batches]:
                if batch is not None:
                    cluster.apply_batch(batch)
                    single.apply_batch(batch)
                got = cluster.serve_batch(query_pairs)
                expected = single.serve_batch(query_pairs)
                assert got.epoch == expected.epoch == cluster.current_epoch
                assert got.distances == expected.distances, method
                graph = cluster.graph_at(got.epoch)
                for (source, target), distance in zip(query_pairs, got.distances):
                    oracle = dijkstra_distance(graph, source, target)
                    assert distance == pytest.approx(oracle, rel=1e-9), (method, source, target)
            assert {row["adopts"] for row in cluster.worker_stats()} == {3}

    @pytest.mark.parametrize(
        "method, key",
        [
            ("PMHL", "cross_labels"),
            ("N-CH-P", "overlay"),
            ("P-TD-P", "extended_0"),
            ("BiDijkstra", "__graph__"),
        ],
    )
    def test_generation_missing_a_store_raises_instead_of_answering(
        self, method, key, base_graph, query_pairs, update_batches, tmp_path, monkeypatch
    ):
        index = create_index(NINE_SPECS[method], base_graph.copy())
        index.build()
        with cluster_from_index(index, tmp_path, num_workers=2) as cluster:
            exports = cluster.index._kernel_exports
            monkeypatch.setattr(
                cluster.index,
                "_kernel_exports",
                lambda: {k: f for k, f in exports().items() if k != key},
            )
            cluster.apply_batch(update_batches[0])
            with pytest.raises(ClusterError, match="StoreNotPublishedError"):
                cluster.query_batch(query_pairs)


# ----------------------------------------------------------------------
# A rejected batch commits nothing
# ----------------------------------------------------------------------
class TestRejectedBatch:
    @pytest.mark.parametrize("backend", ["serving", "cluster"])
    @pytest.mark.parametrize(
        "bad, error",
        [
            (EdgeUpdate(0, SIDE * SIDE - 1, 1.0, 2.0), EdgeNotFoundError),
            (EdgeUpdate(0, 1, 1.0, -3.0), InvalidWeightError),
            (EdgeUpdate(0, 1, 1.0, float("inf")), InvalidWeightError),
        ],
        ids=["unknown_edge", "negative_weight", "infinite_weight"],
    )
    def test_rejected_batch_leaves_the_old_epoch_serving(
        self, backend, bad, error, pmhl_snapshot, query_pairs, update_batches, tmp_path
    ):
        """A valid update ahead of the bad one is not written either: the
        batch raises typed, no epoch commits, no generation is published,
        and answers stay those of the old epoch."""
        good = update_batches[0].updates[0]
        batch = UpdateBatch([good, bad])
        if backend == "serving":
            engine = ServingEngine.from_snapshot(pmhl_snapshot, cache_capacity=0)
        else:
            engine = make_cluster(pmhl_snapshot, tmp_path)
        with engine:
            before = engine.query_batch(query_pairs)
            with pytest.raises(error):
                engine.apply_batch(batch)
            assert engine.current_epoch == 0
            assert engine.graph.edge_weight(good.u, good.v) == good.old_weight
            results = engine.serve_batch(query_pairs)
            assert results.epoch == 0
            assert results.distances == before
            graph = engine.graph_at(0)
            for (source, target), distance in zip(query_pairs, results.distances):
                assert distance == pytest.approx(
                    dijkstra_distance(graph, source, target), rel=1e-12
                )
            # The engine keeps installing after the rejection.
            engine.apply_batch(update_batches[0])
            assert engine.current_epoch == 1
        if backend == "cluster":
            assert store_generations(tmp_path / "gens") == ["stores-000001"]


class TestUncommittedBatch:
    @pytest.mark.parametrize("stage", ["write", "adopt"])
    def test_failure_after_the_apply_fails_the_cluster(
        self, stage, pmhl_snapshot, query_pairs, update_batches, tmp_path, monkeypatch
    ):
        """Once the maintainer holds a batch, a failed store write (a full
        disk) or a failed adopt commits no epoch and fails the cluster for
        good: the batch never goes live under a later epoch number, and
        nothing is exported from a maintainer past the committed epoch."""

        def no_space(*_args):
            raise OSError(errno.ENOSPC, "No space left on device")

        cluster = make_cluster(pmhl_snapshot, tmp_path)
        with cluster:
            pids = [process.pid for process in cluster._dispatcher.processes()]
            if stage == "write":
                monkeypatch.setattr("repro.cluster.engine.save_stores", no_space)
            else:
                monkeypatch.setattr(cluster._dispatcher, "adopt", no_space)
            with pytest.raises(ClusterError, match="not committed") as excinfo:
                cluster.apply_batch(update_batches[0])
            assert isinstance(excinfo.value.__cause__, OSError)
            monkeypatch.undo()
            exported = str(tmp_path / "exported")
            for attempt in (
                lambda: cluster.apply_batch(update_batches[1]),
                lambda: cluster.query_batch(query_pairs),
                cluster.publish_snapshot,
                lambda: cluster.export_snapshot(exported),
            ):
                with pytest.raises(ClusterError, match="cluster failed"):
                    attempt()
            assert cluster.current_epoch == 0
            assert cluster.published_snapshots == []
            assert not os.path.exists(exported)
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # stop() still reaps every reader


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
class TestStats:
    def test_stats_report_store_generation_and_adopts(
        self, pmhl_snapshot, update_batches, tmp_path
    ):
        with make_cluster(pmhl_snapshot, tmp_path) as cluster:
            stats = cluster.stats()
            assert stats["store_generation"] == 0
            assert "journal_batches" not in stats
            assert {row["adopts"] for row in stats["workers"]} == {0}
            for batch in update_batches:
                cluster.apply_batch(batch)
            stats = cluster.stats()
            assert stats["store_generation"] == len(update_batches)
            for row in stats["workers"]:
                assert row["adopts"] == len(update_batches)
                assert row["epoch"] == len(update_batches)
                assert "batches_applied" not in row


class TestAtomicSnapshotWrites:
    def test_atomic_overwrite_replaces_whole_directory(self, base_graph, tmp_path):
        index = create_index(get_spec("DCH"), base_graph.copy())
        index.build()
        target = str(tmp_path / "snap")
        save_index(index, target, atomic=True, generation=1)
        before = read_manifest(target)
        save_index(index, target, atomic=True, generation=2)
        after = read_manifest(target)
        assert (before["generation"], after["generation"]) == (1, 2)
        assert [n for n in os.listdir(tmp_path) if ".tmp" in n or ".old" in n] == []
        assert load_snapshot_graph(target).num_edges == base_graph.num_edges

    def test_serving_export_snapshot_is_atomic_with_generation(
        self, base_graph, tmp_path
    ):
        index = create_index(get_spec("DCH"), base_graph.copy())
        engine = ServingEngine(index, cache_capacity=0, snapshot_limit=0)
        target = str(tmp_path / "export")
        engine.export_snapshot(target, generation=7)
        engine.export_snapshot(target, generation=8)  # atomic overwrite
        manifest = read_manifest(target)
        assert manifest["generation"] == 8
        assert manifest["extras"]["epoch"] == 0
        assert [n for n in os.listdir(tmp_path) if ".tmp" in n or ".old" in n] == []

    def test_generation_defaults_to_zero(self, base_graph, tmp_path):
        index = create_index(get_spec("DCH"), base_graph.copy())
        index.build()
        target = str(tmp_path / "plain")
        save_index(index, target)
        assert read_manifest(target)["generation"] == 0
