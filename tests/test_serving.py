"""Tests for the live serving engine: correctness under concurrent updates,
stage routing, admission control, metrics and the reader-writer lock."""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.algorithms.dijkstra import dijkstra, dijkstra_distance
from repro.baselines.bidijkstra_index import BiDijkstraIndex
from repro.core.pmhl import PMHLIndex
from repro.core.postmhl import PostMHLIndex
from repro.exceptions import (
    EngineStoppedError,
    ServingError,
    VertexNotFoundError,
)
from repro.graph.generators import grid_road_network
from repro.graph.updates import generate_update_stream
from repro.hierarchy.ch import DCHIndex
from repro.labeling.h2h import DH2HIndex
from repro.labeling.mhl import MHLIndex
from repro.obs.metrics import Histogram, MetricRegistry
from repro.serving.admission import AdmissionController
from repro.serving.core import BatchResult, QueryResult
from repro.serving.driver import run_mixed_workload
from repro.serving.engine import ServingEngine
from repro.serving.metrics import ServingMetrics
from repro.serving.router import LAST_STAGE, StageRouter
from repro.serving.rwlock import RWLock
from repro.throughput.workload import sample_query_pairs


def _serving_oracle_run(index, graph, *, query_threads, num_batches, seed=3):
    """Drive a mixed workload and replay every answer against Dijkstra."""
    engine = ServingEngine(index, cache_capacity=512)
    pairs = list(sample_query_pairs(graph, 25, seed=5))
    batches = generate_update_stream(graph, num_batches, volume=8, seed=seed)
    with engine:
        report = run_mixed_workload(
            engine,
            pairs,
            duration_seconds=0.8,
            query_threads=query_threads,
            batches=batches,
            collect_results=True,
            seed=11,
        )
    assert report.batches_applied == num_batches
    assert engine.current_epoch == num_batches
    assert report.queries_served > 0
    graphs = _graphs_by_epoch(engine, report.results)
    mismatches = [
        result
        for result in report.results
        if abs(
            dijkstra_distance(graphs[result.epoch], result.source, result.target)
            - result.distance
        )
        > 1e-9
    ]
    assert mismatches == [], f"{len(mismatches)} stale/incorrect answers: {mismatches[:3]}"
    return report


def _graphs_by_epoch(engine, results):
    """One ``graph_at`` copy per epoch the results report."""
    return {epoch: engine.graph_at(epoch) for epoch in {result.epoch for result in results}}


class TestServingCorrectness:
    """The acceptance bar: zero incorrect distances under concurrent updates."""

    def test_postmhl_concurrent_updates(self):
        graph = grid_road_network(7, 7, seed=7)
        index = PostMHLIndex(graph, bandwidth=10, expected_partitions=4)
        report = _serving_oracle_run(index, graph, query_threads=2, num_batches=3)
        # The engine must actually have routed across stages, not just one.
        assert len(report.stats["by_stage"]) >= 1

    def test_pmhl_concurrent_updates(self):
        graph = grid_road_network(6, 6, seed=11)
        index = PMHLIndex(graph, num_partitions=4, seed=0)
        _serving_oracle_run(index, graph, query_threads=3, num_batches=2)

    def test_plain_index_concurrent_updates(self):
        # DH2H has no stage catalog: BiDijkstra fallback until each batch lands.
        graph = grid_road_network(6, 6, seed=3)
        index = DH2HIndex(graph)
        _serving_oracle_run(index, graph, query_threads=2, num_batches=2)

    def test_epochs_are_monotonic_per_client(self):
        graph = grid_road_network(6, 6, seed=5)
        index = PostMHLIndex(graph, bandwidth=10, expected_partitions=4)
        engine = ServingEngine(index)
        batches = generate_update_stream(graph, 2, volume=6, seed=1)
        epochs = []
        with engine:
            for batch in batches:
                epochs.append(engine.serve(0, 35).epoch)
                engine.submit_batch(batch)
                engine.wait_for_maintenance()
            epochs.append(engine.serve(0, 35).epoch)
        assert epochs == sorted(epochs)
        assert epochs[-1] == 2


class TestServingEngineBasics:
    def test_builds_unbuilt_index(self):
        graph = grid_road_network(4, 4, seed=1)
        index = BiDijkstraIndex(graph)
        engine = ServingEngine(index)
        assert index.is_built
        assert engine.serve(0, 15).distance == pytest.approx(
            dijkstra_distance(graph, 0, 15)
        )

    def test_serve_without_start_works(self):
        graph = grid_road_network(4, 4, seed=1)
        engine = ServingEngine(BiDijkstraIndex(graph))
        result = engine.serve(0, 5)
        assert result.epoch == 0
        assert result.stage in ("bidijkstra_fallback", "native")

    def test_submit_requires_running_engine(self):
        graph = grid_road_network(4, 4, seed=1)
        engine = ServingEngine(BiDijkstraIndex(graph))
        with pytest.raises(EngineStoppedError):
            engine.submit_batch(generate_update_stream(graph, 1, volume=2, seed=0)[0])

    def test_maintenance_worker_survives_failed_batch(self):
        from repro.graph.updates import EdgeUpdate, UpdateBatch

        graph = grid_road_network(4, 4, seed=1)
        engine = ServingEngine(BiDijkstraIndex(graph))
        bad = UpdateBatch([EdgeUpdate(0, 15, 1.0, 2.0)])  # edge does not exist
        good_edge = next(iter(graph.edges()))
        good = UpdateBatch([EdgeUpdate(good_edge[0], good_edge[1], good_edge[2], good_edge[2] * 2)])
        with engine:
            engine.submit_batch(bad)
            engine.submit_batch(good)
            assert engine.wait_for_maintenance(timeout=10)
            # The failed batch is recorded; the good one still installed.
            assert len(engine.maintenance_errors) == 1
            assert engine.current_epoch == 1
            assert engine.serve(0, 15).epoch == 1
        assert engine.stats()["maintenance_errors"]

    def test_unknown_vertex_raises_library_error(self):
        graph = grid_road_network(4, 4, seed=1)
        index = PostMHLIndex(graph, bandwidth=8, expected_partitions=2)
        engine = ServingEngine(index)
        with pytest.raises(VertexNotFoundError):
            engine.serve(0, 10_000)
        with pytest.raises(VertexNotFoundError):
            engine.serve(-1, 3)
        # Failed validations are neither served nor shed.
        assert engine.metrics.queries_served == 0
        assert engine.metrics.queries_shed == 0

    def test_stats_shape(self):
        graph = grid_road_network(4, 4, seed=1)
        engine = ServingEngine(BiDijkstraIndex(graph))
        engine.serve(0, 3)
        stats = engine.stats()
        assert stats["queries_served"] == 1
        assert stats["epoch"] == 0
        assert "latency" in stats and "cache" in stats and "stages" in stats


class TestServeBatch:
    """The batch endpoint: one epoch, one routing decision, bulk cache."""

    def _engine(self, cache_capacity=512):
        graph = grid_road_network(7, 7, seed=7)
        index = PostMHLIndex(graph, bandwidth=10, expected_partitions=4)
        return graph, ServingEngine(index, cache_capacity=cache_capacity)

    def test_batch_results_share_one_epoch_and_match_oracle(self):
        graph, engine = self._engine()
        pairs = list(sample_query_pairs(graph, 30, seed=5))
        batches = generate_update_stream(graph, 3, volume=8, seed=3)
        with engine:
            for batch in batches:
                engine.submit_batch(batch)
                results = engine.serve_batch(pairs)
                epochs = {result.epoch for result in results}
                assert len(epochs) == 1, "a batch must be answered at a single epoch"
                epoch = epochs.pop()
                snapshot = engine.graph_at(epoch)
                for result in results:
                    oracle = dijkstra_distance(snapshot, result.source, result.target)
                    assert abs(oracle - result.distance) <= 1e-9
                engine.wait_for_maintenance()
        assert engine.current_epoch == len(batches)

    def test_single_stage_decision_per_batch(self):
        graph, engine = self._engine()
        pairs = list(sample_query_pairs(graph, 10, seed=6))
        results = engine.serve_batch(pairs)
        # No maintenance ran: the whole batch uses the fastest stage.
        assert {result.stage for result in results} == {"CROSS_BOUNDARY"}
        assert {result.epoch for result in results} == {0}

    def test_bulk_cache_probe_and_fill(self):
        # The cache fronts search stages only, so this runs on DCH.
        graph = grid_road_network(7, 7, seed=7)
        engine = ServingEngine(DCHIndex(graph), cache_capacity=512)
        pairs = list(sample_query_pairs(graph, 10, seed=6))
        first = engine.serve_batch(pairs[:6])
        assert first.stage == "native" and first.stages is None
        assert not any(result.from_cache for result in first)
        second = engine.serve_batch(pairs[:6])
        assert second.stage == "cache" and second.stages is None
        assert all(result.from_cache for result in second)
        assert second.distances == first.distances
        # Hits beside misses: a per-pair stages column, and metrics that
        # count each pair under the stage that answered it.
        mixed = engine.serve_batch(pairs)
        assert mixed.stage == "mixed"
        assert mixed.stages == ["cache"] * 6 + ["native"] * 4
        assert [r.from_cache for r in mixed] == [True] * 6 + [False] * 4
        stats = engine.stats()
        assert stats["by_stage"] == {"native": 10, "cache": 12}
        assert stats["cache_hits"] == 12

    def test_rows_are_query_results_built_from_the_columns(self):
        """A mixed cache / compute batch's rows equal rows made with
        ``QueryResult(...)``, with each pair's stage and ``from_cache``, and
        iterating gives the same rows as indexing."""
        graph = grid_road_network(7, 7, seed=7)
        engine = ServingEngine(DCHIndex(graph), cache_capacity=512)
        pairs = list(sample_query_pairs(graph, 10, seed=6))
        engine.serve_batch(pairs[:6])
        mixed = engine.serve_batch(pairs)
        assert mixed.stage == "mixed"
        expected = [
            QueryResult(s, t, d, mixed.epoch, stage, mixed.latency_seconds, stage == "cache")
            for (s, t), d, stage in zip(pairs, mixed.distances, mixed.stages)
        ]
        assert [r.stage for r in expected] == ["cache"] * 6 + ["native"] * 4
        rows = list(mixed)
        assert rows == expected
        assert all(type(row) is QueryResult for row in rows)
        assert [mixed[i] for i in range(len(mixed))] == rows and mixed[-1] == expected[-1]
        assert [r.from_cache for r in rows] == [True] * 6 + [False] * 4
        uniform = BatchResult([(1, 2), (3, 4)], [5.0, 6.0], 7, 0.5, "cache")
        assert list(uniform) == [
            QueryResult(1, 2, 5.0, 7, "cache", 0.5, True),
            QueryResult(3, 4, 6.0, 7, "cache", 0.5, True),
        ]
        assert list(BatchResult([], [], 0, 0.0, "native")) == []

    def test_query_batch_matches_scalar_engine_queries(self):
        graph, engine = self._engine(cache_capacity=0)
        pairs = list(sample_query_pairs(graph, 15, seed=8))
        distances = engine.query_batch(pairs)
        assert distances == [engine.query(s, t) for s, t in pairs]

    def test_batch_validation_and_empty(self):
        _, engine = self._engine()
        assert engine.serve_batch([]) == []
        with pytest.raises(VertexNotFoundError):
            engine.serve_batch([(0, 3), (0, 10_000)])
        assert engine.metrics.queries_served == 0

    def test_batch_under_concurrent_maintenance_stays_consistent(self):
        """Spam serve_batch while batches install; every answer must replay
        against the Dijkstra oracle of the epoch it reports."""
        graph, engine = self._engine()
        pairs = list(sample_query_pairs(graph, 12, seed=9))
        batches = generate_update_stream(graph, 3, volume=10, seed=5)
        collected = []
        with engine:
            for batch in batches:
                engine.submit_batch(batch)
                for _ in range(10):
                    collected.extend(engine.serve_batch(pairs))
            engine.wait_for_maintenance()
        graphs = _graphs_by_epoch(engine, collected)
        mismatches = [
            result
            for result in collected
            if abs(
                dijkstra_distance(graphs[result.epoch], result.source, result.target)
                - result.distance
            )
            > 1e-9
        ]
        assert mismatches == [], f"{len(mismatches)} stale/incorrect batch answers"


class TestStageRouter:
    def test_multistage_validity_lifecycle(self):
        graph = grid_road_network(5, 5, seed=2)
        index = PostMHLIndex(graph, bandwidth=10, expected_partitions=4)
        index.build()
        router = StageRouter(index)

        # Fresh build: everything valid at epoch 0, fastest stage wins.
        best = router.best_valid_stage(0)
        assert best is not None and best.name == "CROSS_BOUNDARY"

        # A new epoch opens: only the live-graph stage is valid.
        router.begin_epoch(1)
        assert router.best_valid_stage(1) is router.stages[0]

        # U-Stage 2 completion releases the PCH query stage.
        router.release("overlay_shortcut_update", 1)
        assert router.best_valid_stage(1).name == "PCH"

        # Batch fully installed: back to the fastest stage.
        router.complete(1)
        assert router.best_valid_stage(1).name == "CROSS_BOUNDARY"

    def test_wait_plan_weighs_release_time_against_cost(self):
        graph = grid_road_network(4, 4, seed=2)
        index = DCHIndex(graph)
        index.build()
        router = StageRouter(index)
        fallback, native = router.stages
        # Another thread installs epoch 1; this one serves.
        opener = threading.Thread(target=router.begin_epoch, args=(1,))
        opener.start()
        opener.join()
        assert router.wait_plan(fallback, 64) is None  # nothing learned yet
        fallback.cost, native.cost = 200e-6, 10e-6
        assert router.wait_plan(fallback, 64) is None  # no release offset yet
        native.release_offset = 0.0  # overdue: waiting costs only native's time
        assert router.wait_plan(fallback, 64) == (native, 64 * 200e-6)
        native.release_offset = 60.0  # due in a minute
        assert router.wait_plan(fallback, 64) is None
        native.release_offset, native.cost = 0.0, 300e-6  # slower than the fallback
        assert router.wait_plan(fallback, 64) is None
        native.cost = 10e-6
        router.begin_epoch(2)  # the installing thread never waits
        assert router.wait_plan(fallback, 64) is None
        native.release_offset = None
        router.complete(2)  # learns native's offset
        row = router.describe()[1]
        assert row["release_offset_ms"] >= 0.0 and row["cost_us_per_pair"] == 10.0

    def test_plain_index_fallback_catalog(self):
        graph = grid_road_network(4, 4, seed=2)
        index = DH2HIndex(graph)
        index.build()
        router = StageRouter(index)
        names = [stage.name for stage in router.stages]
        assert names == ["bidijkstra_fallback", "native"]
        assert router.stages[1].released_after == LAST_STAGE
        router.begin_epoch(1)
        # "native" is only released by complete(), never by a named stage.
        router.release("label_update", 1)
        assert router.best_valid_stage(1).name == "bidijkstra_fallback"
        router.complete(1)
        assert router.best_valid_stage(1).name == "native"


#: The three indexes with a stage catalog, on a small grid.
MULTISTAGE = {
    "MHL": MHLIndex,
    "PMHL": lambda graph: PMHLIndex(graph, num_partitions=4, seed=0),
    "PostMHL": lambda graph: PostMHLIndex(graph, bandwidth=10, expected_partitions=4),
}

#: The query stage that answers right after each update stage's release:
#: the fastest stage released so far in the batch.
RELEASED_STAGE = {
    "MHL": {"shortcut_update": "CH", "label_update": "H2H"},
    "PMHL": {
        "partition_shortcut_update": "BIDIJKSTRA",
        "overlay_shortcut_update": "PCH",
        "partition_label_update": "PCH",
        "overlay_label_update": "NO_BOUNDARY",
        "post_boundary_update": "POST_BOUNDARY",
        "cross_boundary_update": "CROSS_BOUNDARY",
    },
    "PostMHL": {
        "partition_shortcut_update": "BIDIJKSTRA",
        "overlay_shortcut_update": "PCH",
        "overlay_label_update": "PCH",
        "post_boundary_update": "POST_BOUNDARY",
        "cross_boundary_update": "CROSS_BOUNDARY",
    },
}


def _assert_oracle(engine, results):
    """Every answer equals Dijkstra on the graph of the epoch it reports."""
    oracle = {}
    graphs = _graphs_by_epoch(engine, results)
    for result in results:
        key = (result.epoch, result.source, result.target)
        if key not in oracle:
            oracle[key] = dijkstra_distance(graphs[result.epoch], result.source, result.target)
        assert abs(oracle[key] - result.distance) <= 1e-9, (result, oracle[key])


@pytest.fixture
def switch_every_microsecond():
    """Hand the GIL over every microsecond, so reader threads interleave
    with maintenance every few bytecodes instead of every 5 ms."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


@pytest.mark.parametrize("method", sorted(MULTISTAGE))
class TestReleasedStagesDuringInstall:
    """Mid-install queries run on the stages the batch has already released."""

    def test_each_boundary_answers_from_the_fastest_released_stage(
        self, method, monkeypatch
    ):
        graph = grid_road_network(7, 7, seed=7)
        engine = ServingEngine(MULTISTAGE[method](graph), cache_capacity=0)
        pairs = list(sample_query_pairs(graph, 12, seed=3))
        batch = generate_update_stream(graph, 1, volume=8, seed=5)[0]
        answered = {}
        real_release = engine.router.release

        # Runs on the installing thread, right after each stage's release.
        def release(update_stage, epoch):
            real_release(update_stage, epoch)
            answered[update_stage] = engine.serve_batch(pairs)

        monkeypatch.setattr(engine.router, "release", release)
        with engine:
            engine.apply_batch(batch)
        stages = {name: result.stage for name, result in answered.items()}
        assert stages == RELEASED_STAGE[method]
        assert {result.epoch for result in answered.values()} == {1}
        _assert_oracle(engine, [row for result in answered.values() for row in result])

    def test_readers_interleaved_with_installs_match_oracle(
        self, method, switch_every_microsecond
    ):
        # Large enough that an install outlasts several reader batches; no
        # cache, so every answer is computed by the stage that reports it.
        graph = grid_road_network(12, 12, seed=11)
        engine = ServingEngine(MULTISTAGE[method](graph), cache_capacity=0)
        pairs = list(sample_query_pairs(graph, 8, seed=4))
        batches = generate_update_stream(graph, 3, volume=10, seed=2)
        collected, errors = [], []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    collected.extend(engine.serve_batch(pairs))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        with engine:
            readers = [threading.Thread(target=reader, daemon=True) for _ in range(2)]
            for thread in readers:
                thread.start()
            for batch in batches:
                engine.apply_batch(batch)
            stop.set()
            for thread in readers:
                thread.join(30.0)
        assert not errors
        assert not any(thread.is_alive() for thread in readers)
        assert engine.current_epoch == len(batches)
        _assert_oracle(engine, collected)


@contextmanager
def _on_release(engine, hook):
    """Call ``hook(update_stage)`` on the installing thread right after each
    ``router.release`` (every update stage after the edge refresh)."""
    router = engine.router
    real_release = router.release

    def release(update_stage, epoch):
        real_release(update_stage, epoch)
        hook(update_stage)

    router.release = release
    try:
        yield
    finally:
        del router.release


def _signal_waits(engine):
    """An event set whenever a batch is about to wait for a release."""
    router = engine.router
    real_wait = router.wait_for_release
    waiting = threading.Event()

    def wait_for_release(stage, epoch, timeout):
        waiting.set()
        return real_wait(stage, epoch, timeout)

    router.wait_for_release = wait_for_release
    return waiting


class TestStageWaits:
    """Mid-install, a batch waits for a later stage when the router expects
    it to be released and answer sooner than the best valid stage would: on
    DCH, ``native`` against ``bidijkstra_fallback``: DCH's C tree query
    costs far less per pair than the fallback's search, so a wait is worth
    it."""

    def _setup(self):
        graph = grid_road_network(20, 20, seed=7)
        engine = ServingEngine(DCHIndex(graph), cache_capacity=0)
        # Few sources, so the oracle is one Dijkstra per source and epoch;
        # many pairs (every one of the 400 vertices a target), so a wait's
        # budget (what the fallback would take) is long next to a thread
        # hand-over.
        pairs = [(source, target) for source in (0, 57, 210, 399) for target in range(400)]
        return engine, pairs, generate_update_stream(graph, 3, volume=8, seed=5)

    @staticmethod
    def _teach(engine, pairs, batch):
        """Learn every cost and offset the rule reads: native's cost at epoch
        0, the fallback's on the installing thread mid-install (which never
        waits), native's release offset when the install completes."""
        engine.serve_batch(pairs)
        with _on_release(engine, lambda _: engine.serve_batch(pairs)):
            engine.apply_batch(batch)
        rows = engine.router.describe()
        assert all(row["cost_us_per_pair"] is not None for row in rows)
        assert rows[1]["release_offset_ms"] is not None
        return rows

    @staticmethod
    def _assert_oracle(engine, result):
        graph = engine.graph_at(result.epoch)
        exact = {source: dijkstra(graph, source) for source, _ in result.pairs}
        assert result.distances == pytest.approx(
            [exact[s][t] for s, t in result.pairs], rel=1e-12
        )

    def test_mid_install_batch_waits_for_native(self):
        engine, pairs, batches = self._setup()
        results = {}
        reader = threading.Thread(
            target=lambda: results.setdefault("batch", engine.serve_batch(pairs)),
            daemon=True,
        )
        waiting = _signal_waits(engine)

        def slow_install(_update_stage):
            # Past native's expected release, waiting for it costs only what
            # native takes: far less than the fallback.
            time.sleep(2e-3 * rows[1]["release_offset_ms"])
            reader.start()
            assert waiting.wait(10.0), "the mid-install batch did not wait"

        with engine:
            rows = self._teach(engine, pairs, batches[0])
            with _on_release(engine, slow_install):
                engine.apply_batch(batches[1])
            reader.join(10.0)
        result = results["batch"]
        assert (result.stage, result.epoch) == ("native", 2)
        self._assert_oracle(engine, result)
        stats = engine.stats()
        assert stats["stage_waits"] == stats["stage_wait_seconds"]["count"] == 1

    def test_blocked_install_bounds_the_wait(self):
        engine, pairs, batches = self._setup()
        blocked, gate = threading.Event(), threading.Event()

        def block(_update_stage):
            blocked.set()
            gate.wait(30.0)

        with engine:
            rows = self._teach(engine, pairs, batches[0])
            with _on_release(engine, block):
                installer = threading.Thread(
                    target=engine.apply_batch, args=(batches[1],), daemon=True
                )
                installer.start()
                assert blocked.wait(10.0)
                time.sleep(2e-3 * rows[1]["release_offset_ms"])
                result = engine.serve_batch(pairs)
                gate.set()
                installer.join(10.0)
            assert not installer.is_alive()
        assert (result.stage, result.epoch) == ("bidijkstra_fallback", 2)
        self._assert_oracle(engine, result)
        stats = engine.stats()
        budget = 1e-6 * len(pairs) * rows[0]["cost_us_per_pair"]
        assert stats["stage_waits"] == 1
        assert stats["stage_wait_seconds"]["max_seconds"] < budget + 1.0

    def test_fresh_engine_routes_as_before(self):
        engine, pairs, batches = self._setup()
        engine.serve_batch(pairs)  # native's cost is known, no offset yet
        results = {}

        def serve_from_another_thread(_update_stage):
            reader = threading.Thread(
                target=lambda: results.setdefault("batch", engine.serve_batch(pairs))
            )
            reader.start()
            reader.join(10.0)

        with engine, _on_release(engine, serve_from_another_thread):
            engine.apply_batch(batches[0])
        result = results["batch"]
        assert (result.stage, result.epoch) == ("bidijkstra_fallback", 1)
        self._assert_oracle(engine, result)
        assert engine.stats()["stage_waits"] == 0

    def test_waiter_does_not_hold_the_read_lock(self):
        """A batch waiting for a release holds no read lock: while it waits
        for the stage an install held after its edge refresh has not yet
        released, a writer takes the lock at once."""
        engine, pairs, batches = self._setup()
        results = {}
        blocked, gate = threading.Event(), threading.Event()

        def block(_update_stage):
            blocked.set()
            gate.wait(30.0)

        with engine:
            self._teach(engine, pairs, batches[0])
            with _on_release(engine, block):
                installer = threading.Thread(
                    target=engine.apply_batch, args=(batches[1],), daemon=True
                )
                installer.start()
                assert blocked.wait(10.0)
                # Epoch 2 is committed with only the fallback released.  A
                # fallback taught to take a second per pair makes the wait's
                # budget far longer than this test.
                engine.router.stages[0].cost = 1.0
                waiting = _signal_waits(engine)
                reader = threading.Thread(
                    target=lambda: results.setdefault("batch", engine.serve_batch(pairs[:30])),
                    daemon=True,
                )
                reader.start()
                assert waiting.wait(10.0)
                writer = threading.Thread(
                    target=lambda: (
                        engine._graph_rw.acquire_write(), engine._graph_rw.release_write()
                    ),
                    daemon=True,
                )
                writer.start()
                writer.join(5.0)
                acquired = not writer.is_alive()
                gate.set()
                installer.join(10.0)
                reader.join(10.0)
            assert acquired, "the waiting reader holds the read lock"
            assert not installer.is_alive() and not reader.is_alive()
        result = results["batch"]
        assert (result.stage, result.epoch) == ("native", 2)
        self._assert_oracle(engine, result)

    @staticmethod
    def _fail_install(engine, batch, held=None):
        """Install ``batch`` and fail it right after its edge refresh; with
        ``held = (blocked, gate)``, set ``blocked`` and wait for ``gate``
        first.  Whether the install raised."""

        def fail(_update_stage):
            if held is not None:
                held[0].set()
                held[1].wait(30.0)
            raise RuntimeError("maintenance failed after the edge refresh")

        with _on_release(engine, fail):
            try:
                engine.apply_batch(batch)
            except RuntimeError:
                return True
        return False

    def test_failed_install_routes_to_the_fallback_without_waiting(self):
        """An install that fails after its edge refresh releases nothing
        more: a batch from another thread answers through the fallback at
        once instead of waiting for ``native`` first."""
        engine, pairs, batches = self._setup()
        results = {}
        with engine:
            self._teach(engine, pairs, batches[0])
            assert self._fail_install(engine, batches[1])
            # A wait's budget would be 30 s: longer than the join below.
            engine.router.stages[0].cost = 1.0
            waits = engine.stats()["stage_waits"]
            reader = threading.Thread(
                target=lambda: results.setdefault("batch", engine.serve_batch(pairs[:30])),
                daemon=True,
            )
            reader.start()
            reader.join(10.0)
            assert not reader.is_alive(), "the batch waited for a stage that never comes"
            assert engine.stats()["stage_waits"] == waits
        result = results["batch"]
        assert (result.stage, result.epoch) == ("bidijkstra_fallback", 2)
        self._assert_oracle(engine, result)

    def test_failed_install_wakes_a_waiting_batch(self):
        """A batch already waiting for ``native`` when the install fails
        wakes at once and answers through the fallback."""
        engine, pairs, batches = self._setup()
        results, failed = {}, []
        blocked, gate = threading.Event(), threading.Event()
        with engine:
            self._teach(engine, pairs, batches[0])
            installer = threading.Thread(
                target=lambda: failed.append(
                    self._fail_install(engine, batches[1], (blocked, gate))
                ),
                daemon=True,
            )
            installer.start()
            assert blocked.wait(10.0)
            engine.router.stages[0].cost = 1.0  # a 30 s budget
            waiting = _signal_waits(engine)
            reader = threading.Thread(
                target=lambda: results.setdefault("batch", engine.serve_batch(pairs[:30])),
                daemon=True,
            )
            reader.start()
            assert waiting.wait(10.0)
            gate.set()
            installer.join(10.0)
            reader.join(10.0)
            assert failed == [True]
            assert not reader.is_alive(), "the failed install left the batch waiting"
        result = results["batch"]
        assert (result.stage, result.epoch) == ("bidijkstra_fallback", 2)
        self._assert_oracle(engine, result)
        stats = engine.stats()
        assert stats["stage_waits"] == 1
        assert stats["stage_wait_seconds"]["max_seconds"] < 10.0


class TestInstallBesideSearches:
    """The search kernels release the GIL, so an install starts while another
    thread keeps serving DCH batches, not one switch interval later."""

    def test_a_submitted_batch_installs_while_a_thread_serves(self):
        """One thread serves DCH batches, submits an update batch between two
        of them, and serves on until the batch is installed.  Under a 5 s
        switch interval the installer gets the GIL only when the serving
        thread gives it up: at once while a search runs without it, or after
        5 s if the searches held it.  Every answer served matches Dijkstra on
        the epoch it reports."""
        graph = grid_road_network(40, 40, seed=7)
        engine = ServingEngine(DCHIndex(graph), cache_capacity=0)
        pairs = list(sample_query_pairs(graph, 64, seed=5))
        batch = generate_update_stream(graph, 1, volume=10, seed=5)[0]
        collected, elapsed = [], []

        def serve_and_submit():
            for _ in range(5):
                collected.append(engine.serve_batch(pairs))
            started = time.monotonic()
            engine.submit_batch(batch)
            while engine.pending_batches and time.monotonic() - started < 30.0:
                collected.append(engine.serve_batch(pairs))
            elapsed.append(time.monotonic() - started)

        previous = sys.getswitchinterval()
        with engine:
            engine.serve_batch(pairs)  # freeze the store before the clock runs
            reader = threading.Thread(target=serve_and_submit, daemon=True)
            sys.setswitchinterval(5.0)
            try:
                reader.start()
                reader.join(60.0)
            finally:
                sys.setswitchinterval(previous)
            assert not reader.is_alive()
            assert engine.wait_for_maintenance(30.0)
        assert elapsed[0] < 2.0, f"the install took {elapsed[0]:.2f} s beside the searches"
        assert engine.current_epoch == 1
        assert {result.epoch for result in collected} <= {0, 1}
        exact = {}
        for result in collected:
            for (source, target), distance in zip(result.pairs, result.distances):
                key = (result.epoch, source)
                if key not in exact:
                    exact[key] = dijkstra(engine.graph_at(result.epoch), source)
                assert abs(exact[key][target] - distance) <= 1e-9


class TestAdmissionControl:
    def _controller(self, **kwargs):
        clock = [0.0]
        controller = AdmissionController(
            response_qos=0.1,
            window_seconds=1.0,
            min_samples=5,
            clock=lambda: clock[0],
            **kwargs,
        )
        return controller, clock

    def test_warming_up_admits_everything(self):
        controller, _ = self._controller()
        decision = controller.decide()
        assert decision.admitted and decision.reason == "warming_up"

    def test_sheds_when_offered_load_exceeds_qos_rate(self):
        controller, clock = self._controller()
        for _ in range(10):
            controller.observe_latency(0.05)  # half the QoS per query
        # Lemma 1 with deterministic 50 ms service and R*_q = 100 ms allows
        # ~6.7 qps; offer far more within the window.
        for _ in range(50):
            clock[0] += 0.01
            decision = controller.decide()
        assert not decision.admitted
        assert decision.reason == "offered_load"
        assert decision.arrival_rate > decision.sustainable_rate

    def test_admits_light_load(self):
        controller, clock = self._controller()
        for _ in range(10):
            controller.observe_latency(0.001)
        clock[0] += 10.0  # the arrival window is empty again
        decision = controller.decide()
        assert decision.admitted and decision.reason == "ok"

    def test_sheds_on_inflight_backlog(self):
        controller, clock = self._controller()
        for _ in range(10):
            controller.observe_latency(0.05)
        clock[0] += 10.0
        decision = controller.decide(inflight=10)  # 10 × 50ms ≫ R*_q
        assert not decision.admitted and decision.reason == "inflight_backlog"


def _latency_histogram():
    """The histogram :class:`ServingMetrics` keeps its latencies in."""
    return Histogram(min_value=1e-6, max_value=10.0, buckets_per_decade=10)


class TestMetrics:
    def test_histogram_quantiles_bracket_samples(self):
        histogram = _latency_histogram()
        for _ in range(99):
            histogram.record(0.001)
        histogram.record(0.5)
        assert histogram.count == 100
        assert 0.0005 < histogram.quantile(0.5) < 0.002
        assert histogram.quantile(0.99) <= 0.5
        assert histogram.quantile(1.0) == pytest.approx(0.5)
        assert histogram.mean == pytest.approx((99 * 0.001 + 0.5) / 100)

    def test_histogram_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            _latency_histogram().quantile(1.5)

    def test_serving_metrics_accounting(self):
        clock = [0.0]
        metrics = ServingMetrics(clock=lambda: clock[0], window_seconds=1.0)
        for _ in range(10):
            clock[0] += 0.05
            metrics.record_query("CROSS_BOUNDARY", 0.002)
        metrics.record_query("cache", 0.0001, from_cache=True)
        metrics.record_shed()
        snapshot = metrics.snapshot()
        assert snapshot["queries_served"] == 11
        assert snapshot["queries_shed"] == 1
        assert snapshot["cache_hits"] == 1
        assert snapshot["by_stage"]["CROSS_BOUNDARY"] == 10
        assert metrics.qps() > 0

    def test_stage_waits_in_snapshot_and_registry(self):
        metrics = ServingMetrics()
        registry = MetricRegistry()
        metrics.install(registry)
        for seconds in (0.001, 0.004):
            metrics.record_stage_wait(seconds)
        snapshot = metrics.snapshot()
        assert snapshot["stage_waits"] == 2
        waits = snapshot["stage_wait_seconds"]
        assert waits["count"] == 2 and waits["max_seconds"] == 0.004
        assert registry.get("repro_serving_stage_waits_total").value == 2
        assert registry.get("repro_serving_stage_wait_seconds").count == 2


def _in_thread(action):
    """Run ``action`` on a daemon thread; the returned event is set when it
    returns (a daemon, so a failing test never hangs interpreter exit)."""
    returned = threading.Event()

    def run():
        action()
        returned.set()

    threading.Thread(target=run, daemon=True).start()
    return returned


class TestRWLock:
    def test_readers_share_writers_exclude(self):
        lock = RWLock()
        lock.acquire_read()
        assert _in_thread(lock.acquire_read).wait(2.0)  # readers share
        writer = _in_thread(lock.acquire_write)
        lock.release_read()
        assert not writer.wait(0.05)  # one reader is still in
        lock.release_read()
        assert writer.wait(2.0)
        reader = _in_thread(lock.acquire_read)
        assert not reader.wait(0.05)  # the writer excludes readers
        lock.release_write()
        assert reader.wait(2.0)
        lock.release_read()

    def test_writer_blocks_until_reader_drains(self):
        lock = RWLock()
        lock.acquire_read()
        acquired = threading.Event()

        def writer():
            lock.acquire_write()
            acquired.set()
            lock.release_write()

        thread = threading.Thread(target=writer)
        thread.start()
        assert not acquired.wait(0.05)
        lock.release_read()
        assert acquired.wait(2.0)
        thread.join()

    def test_waiting_writer_turns_new_readers_away(self):
        """Write preference: overlapping readers cannot starve an install."""
        lock = RWLock()
        lock.acquire_read()
        writer = _in_thread(lock.acquire_write)
        deadline = time.monotonic() + 5.0
        while not lock._writers_waiting:  # until the writer is queued
            assert time.monotonic() < deadline, "the writer never queued"
            time.sleep(0.001)
        reader = _in_thread(lock.acquire_read)
        assert not reader.wait(0.05)  # a new reader queues behind the writer
        assert not writer.is_set()  # the first reader is still in
        lock.release_read()
        assert writer.wait(5.0)  # ...and its release is all the writer needed
        assert not reader.is_set()
        lock.release_write()
        assert reader.wait(5.0)
        lock.release_read()

    def test_release_without_acquire_raises(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()


class TestWorkloadDriver:
    def test_rejects_empty_pairs(self):
        graph = grid_road_network(4, 4, seed=1)
        engine = ServingEngine(BiDijkstraIndex(graph))
        with pytest.raises(ServingError):
            run_mixed_workload(engine, [], duration_seconds=0.1)

    def test_requires_running_engine_for_batches(self):
        graph = grid_road_network(4, 4, seed=1)
        engine = ServingEngine(BiDijkstraIndex(graph))
        batches = generate_update_stream(graph, 1, volume=2, seed=0)
        with pytest.raises(ServingError):
            run_mixed_workload(
                engine, [(0, 1)], duration_seconds=0.1, batches=batches
            )

    def test_pure_query_workload_needs_no_start(self):
        graph = grid_road_network(4, 4, seed=1)
        engine = ServingEngine(BiDijkstraIndex(graph))
        report = run_mixed_workload(
            engine, [(0, 15), (3, 12)], duration_seconds=0.15, query_threads=2
        )
        assert report.queries_served > 0
        assert report.batches_applied == 0
        assert report.measured_qps > 0
