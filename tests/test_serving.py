"""Tests for the live serving engine: correctness under concurrent updates,
stage routing, admission control, metrics and the reader-writer lock."""

from __future__ import annotations

import threading
import time

import pytest

from repro.algorithms.dijkstra import dijkstra_distance
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
from repro.obs.metrics import Histogram
from repro.serving.admission import AdmissionController
from repro.serving.driver import run_mixed_workload
from repro.serving.engine import ServingEngine
from repro.serving.metrics import ServingMetrics
from repro.serving.router import LAST_STAGE, StageRouter
from repro.serving.rwlock import RWLock
from repro.throughput.workload import sample_query_pairs


def _serving_oracle_run(index, graph, *, query_threads, num_batches, seed=3):
    """Drive a mixed workload and replay every answer against Dijkstra."""
    engine = ServingEngine(
        index,
        snapshot_limit=num_batches + 1,
        cache_capacity=512,
    )
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
    mismatches = [
        result
        for result in report.results
        if abs(
            dijkstra_distance(engine.graph_at(result.epoch), result.source, result.target)
            - result.distance
        )
        > 1e-9
    ]
    assert mismatches == [], f"{len(mismatches)} stale/incorrect answers: {mismatches[:3]}"
    return report


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
        engine = ServingEngine(index, snapshot_limit=4)
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
        engine = ServingEngine(BiDijkstraIndex(graph), snapshot_limit=4)
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
        return graph, ServingEngine(
            index, snapshot_limit=8, cache_capacity=cache_capacity
        )

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
        mismatches = [
            result
            for result in collected
            if abs(
                dijkstra_distance(engine.graph_at(result.epoch), result.source, result.target)
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
        best = router.best_valid_index_stage(0)
        assert best is not None and best.name == "CROSS_BOUNDARY"

        # A new epoch opens: only the live-graph stage is valid.
        router.begin_epoch(1)
        assert router.best_valid_index_stage(1) is None
        assert router.best_valid_stage(1) is router.graph_stage

        # U-Stage 2 completion releases the PCH query stage.
        router.release("overlay_shortcut_update", 1)
        assert router.best_valid_index_stage(1).name == "PCH"

        # Batch fully installed: back to the fastest stage.
        router.complete(1)
        assert router.best_valid_index_stage(1).name == "CROSS_BOUNDARY"

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
        assert router.best_valid_index_stage(1) is None
        router.complete(1)
        assert router.best_valid_index_stage(1).name == "native"


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


class TestRWLock:
    def test_readers_share_writers_exclude(self):
        lock = RWLock()
        assert lock.acquire_read()
        assert lock.acquire_read()
        assert lock.active_readers == 2
        assert not lock.acquire_write(timeout=0.01)
        lock.release_read()
        lock.release_read()
        assert lock.acquire_write(timeout=1.0)
        assert not lock.acquire_read(blocking=False)
        lock.release_write()
        assert lock.acquire_read(blocking=False)
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
        acquired, done = threading.Event(), threading.Event()

        def writer():
            lock.acquire_write()
            acquired.set()
            done.wait(5.0)
            lock.release_write()

        thread = threading.Thread(target=writer, daemon=True)  # a failure must not hang exit
        thread.start()
        deadline = time.monotonic() + 5.0
        while lock.acquire_read(blocking=False):  # until the writer is waiting
            lock.release_read()
            assert time.monotonic() < deadline, "the writer never queued"
            time.sleep(0.001)
        assert not acquired.is_set()  # the first reader is still in
        lock.release_read()
        assert acquired.wait(5.0)  # ...and its release is all the writer needed
        done.set()
        thread.join(5.0)
        assert not thread.is_alive()
        assert lock.acquire_read(blocking=False)
        # A writer that gave up no longer holds readers back.
        assert not lock.acquire_write(timeout=0.01)
        assert lock.acquire_read(blocking=False)

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
