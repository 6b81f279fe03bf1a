"""Conformance suite for the engine core, run against both backends.

:class:`~repro.serving.core.EngineCore` owns lifecycle, admission, in-flight
accounting, epochs with bounded graph retention, and the maintenance queue;
:class:`~repro.serving.engine.ServingEngine` and
:class:`~repro.cluster.engine.ClusterEngine` only supply where queries run
and how a batch installs.  Every test here exercises the shared contract
through the public surface of each backend (the two backend hooks
``_answer`` / ``_install`` are patched only to inject failures).
"""

from __future__ import annotations

import pytest

from repro.algorithms.dijkstra import dijkstra_distance
from repro.cluster import ClusterEngine
from repro.exceptions import (
    EngineStoppedError,
    QueryRejectedError,
    ServingError,
    VertexNotFoundError,
)
from repro.graph.generators import grid_road_network
from repro.graph.updates import EdgeUpdate, UpdateBatch, generate_update_stream
from repro.registry import create_index
from repro.serving import core
from repro.serving.admission import AdmissionDecision, AlwaysAdmit
from repro.serving.core import BatchResult, QueryResult
from repro.serving.engine import ServingEngine

SIDE = 5
FAR = SIDE * SIDE - 1


class RecordingAdmission(AlwaysAdmit):
    """Admits (or sheds) everything and records the in-flight count it saw."""

    def __init__(self, admit: bool = True) -> None:
        self.admit = admit
        self.seen_inflight = []

    def decide(self, inflight: int = 0) -> AdmissionDecision:
        self.seen_inflight.append(inflight)
        return AdmissionDecision(self.admit, "test", 0.0, 0.0)


@pytest.fixture()
def graph():
    return grid_road_network(SIDE, SIDE, seed=7)


@pytest.fixture(params=["serving", "cluster"])
def make_engine(request, graph, tmp_path):
    """Factory for one backend over a fresh PMHL index; stops what it made."""
    engines = []

    def factory(**kwargs):
        index = create_index("PMHL", graph.copy(), num_partitions=4, seed=0)
        index.build()
        if request.param == "serving":
            engine = ServingEngine(index, **kwargs)
        else:
            workdir = tmp_path / f"cluster-{len(engines)}"
            engine = ClusterEngine.from_index(index, str(workdir), num_workers=1, **kwargs)
        engines.append(engine)
        return engine

    yield factory
    for engine in engines:
        engine.stop()


class TestLifecycle:
    def test_start_and_stop_are_idempotent(self, make_engine):
        engine = make_engine()
        assert not engine.is_running
        assert engine.start() is engine
        assert engine.start() is engine
        assert engine.is_running
        assert engine.query(0, FAR) > 0
        engine.stop()
        engine.stop()
        assert not engine.is_running

    def test_context_manager_starts_and_stops(self, make_engine):
        with make_engine() as engine:
            assert engine.is_running
        assert not engine.is_running

    def test_stopped_engine_rejects_maintenance(self, make_engine, graph):
        engine = make_engine()
        batch = generate_update_stream(graph, 1, volume=2, seed=0)[0]
        with pytest.raises(EngineStoppedError):
            engine.submit_batch(batch)
        with pytest.raises(EngineStoppedError):
            engine.apply_batch(batch)
        assert engine.pending_batches == 0
        assert engine.current_epoch == 0


class TestEpochRetention:
    def test_graph_at_retains_the_newest_epoch_retention_epochs(
        self, make_engine, graph, monkeypatch
    ):
        monkeypatch.setattr(core, "EPOCH_RETENTION", 2)
        batches = generate_update_stream(graph, 3, volume=4, seed=5)
        with make_engine() as engine:
            assert engine.graph_at(0).num_edges == graph.num_edges
            for expected, batch in enumerate(batches, start=1):
                report = engine.apply_batch(batch)
                assert report.stages
                assert engine.current_epoch == expected
            assert len(engine.update_reports) == 3
            with pytest.raises(ServingError, match="retained: 1..3"):
                engine.graph_at(0)
            with pytest.raises(ServingError, match="retained: 1..3"):
                engine.graph_at(4)
            # Each retained epoch's graph is the graph right after its own batch.
            for epoch in (1, 2, 3):
                snapshot = engine.graph_at(epoch)
                for update in batches[epoch - 1]:
                    assert snapshot.edge_weight(update.u, update.v) == update.new_weight
            assert engine.graph_at(3) is not engine.graph
            assert engine.graph_at(3) is not engine.graph_at(3)

    def test_graph_at_equals_the_graph_each_epoch_committed(
        self, make_engine, graph, monkeypatch
    ):
        """Byte for byte through the graph's arrays (neighbour order too), for
        every retained epoch, with a batch that names one edge twice."""
        u, v, weight = next(graph.edges())
        batches = generate_update_stream(graph, 3, volume=4, seed=5)
        batches.insert(1, UpdateBatch([
            EdgeUpdate(u, v, weight, 2 * weight), EdgeUpdate(v, u, 2 * weight, 0.5 * weight),
        ]))
        with make_engine() as engine:
            committed = {}
            commit = engine._commit_epoch

            def recording_commit(epoch, batch):
                commit(epoch, batch)
                committed[epoch] = engine.graph.copy()

            monkeypatch.setattr(engine, "_commit_epoch", recording_commit)
            committed[0] = engine.graph.copy()
            for batch in batches:
                engine.apply_batch(batch)
            assert sorted(committed) == list(range(len(batches) + 1))
            assert engine.graph_at(2).edge_weight(u, v) == 0.5 * weight
            for epoch, expected in committed.items():
                replayed = engine.graph_at(epoch)
                for name in ("ids", "indptr", "indices", "edge", "weights"):
                    assert getattr(replayed, name).tobytes() == getattr(expected, name).tobytes()


class TestAdmissionAndInflight:
    def test_shed_raises_counts_and_leaves_nothing_in_flight(self, make_engine):
        admission = RecordingAdmission(admit=False)
        with make_engine(admission=admission) as engine:
            with pytest.raises(QueryRejectedError):
                engine.serve(0, FAR)
            with pytest.raises(QueryRejectedError):
                engine.serve_batch([(0, 1), (2, 3)])  # shed as a whole
            assert engine.metrics.queries_shed == 2
            assert engine.metrics.queries_served == 0
            assert engine.stats()["queries_shed"] == 2
            assert admission.seen_inflight == [0, 0]

    def test_inflight_returns_to_zero_after_answer_raises(self, make_engine, monkeypatch):
        admission = RecordingAdmission()
        with make_engine(admission=admission) as engine:
            real_answer = engine._answer

            def failing_answer(pair_list, started):
                # A query arriving while this one executes sees it in flight.
                monkeypatch.setattr(engine, "_answer", real_answer)
                engine.serve_batch([(0, 1)])
                raise RuntimeError("backend blew up")

            monkeypatch.setattr(engine, "_answer", failing_answer)
            with pytest.raises(RuntimeError, match="blew up"):
                engine.serve_batch([(0, FAR)])
            assert engine.serve_batch([(0, FAR)])[0].epoch == 0
            # outer admitted at 0, nested at 1, and the failure released its slot
            assert admission.seen_inflight == [0, 1, 0]
            assert engine.metrics.queries_served == 2

    def test_unknown_vertex_fails_before_admission_is_consulted(self, make_engine):
        admission = RecordingAdmission(admit=False)
        with make_engine(admission=admission) as engine:
            with pytest.raises(VertexNotFoundError):
                engine.serve(0, 10_000)
            with pytest.raises(VertexNotFoundError):
                engine.serve_batch([(0, 1), (-1, 3)])
            with pytest.raises(VertexNotFoundError):
                engine.serve_one_to_many(0, [1, 10_000])
            assert engine.serve_batch([]) == []
            assert admission.seen_inflight == []
            assert engine.metrics.queries_shed == 0
            assert engine.metrics.queries_served == 0


class TestQueryPlane:
    def test_one_to_many_is_answered_at_a_single_epoch(self, make_engine, graph):
        batch = generate_update_stream(graph, 1, volume=6, seed=9)[0]
        targets = list(range(1, SIDE * SIDE, 3))
        with make_engine() as engine:
            engine.apply_batch(batch)
            results = engine.serve_one_to_many(0, targets)
            assert [(r.source, r.target) for r in results] == [(0, t) for t in targets]
            assert {r.epoch for r in results} == {1}
            snapshot = engine.graph_at(1)
            for result in results:
                oracle = dijkstra_distance(snapshot, 0, result.target)
                assert result.distance == pytest.approx(oracle, rel=1e-12)
            distances = engine.query_one_to_many(0, targets)
            assert distances == [r.distance for r in results]
            assert engine.query_batch([(0, t) for t in targets]) == distances
            assert engine.query(0, targets[-1]) == distances[-1]


class TestBatchResult:
    """``serve_batch`` returns columns that still read as ``QueryResult`` rows."""

    def test_sequence_semantics(self, make_engine):
        pairs = [(0, FAR), (1, 7), (3, 3), (FAR, 2), (5, 6)]
        with make_engine() as engine:
            result = engine.serve_batch(iter(pairs))
            assert isinstance(result, BatchResult)
            # the columns are arrays: (k, 2) ids and float64 distances
            assert result.pairs.tolist() == [list(pair) for pair in pairs]
            assert result.distance_array.dtype == "float64"
            assert result.distance_array.tolist() == result.distances
            assert len(result.distances) == len(pairs)
            assert len(result) == len(pairs)
            rows = list(result)
            assert all(isinstance(row, QueryResult) for row in rows)
            assert [(r.source, r.target) for r in rows] == pairs
            assert [r.distance for r in rows] == result.distances
            # indexing, negative indexing, slices and a second iteration all
            # yield rows equal to the first pass (and memoised, so identical)
            assert [result[i] for i in range(len(pairs))] == rows
            assert result[-1] == rows[-1] and result[-1] is result[len(pairs) - 1]
            assert result[1:4] == rows[1:4] and result[::-1] == rows[::-1]
            assert list(result) == rows and list(reversed(result)) == rows[::-1]
            assert rows[2] in result and result.index(rows[2]) == 2
            assert result == rows and result == tuple(rows) and rows == result
            assert result != rows[:-1] and result != "rows"
            with pytest.raises(IndexError):
                result[len(pairs)]

    def test_one_epoch_and_one_amortised_latency_per_batch(self, make_engine, graph):
        batch = generate_update_stream(graph, 1, volume=4, seed=3)[0]
        pairs = [(0, t) for t in range(1, SIDE * SIDE)]
        with make_engine() as engine:
            engine.apply_batch(batch)
            result = engine.serve_batch(pairs)
            assert result.epoch == 1 and result.latency_seconds > 0
            assert {row.epoch for row in result} == {1}
            assert {row.latency_seconds for row in result} == {result.latency_seconds}
            assert {row.stage for row in result} == set(result.stage_counts())
            snapshot = engine.graph_at(1)
            for row in result:
                oracle = dijkstra_distance(snapshot, row.source, row.target)
                assert row.distance == pytest.approx(oracle, rel=1e-12)
            # the histogram took one weighted sample for the whole batch
            latency = engine.stats()["latency"]
            assert latency["count"] == len(pairs)
            assert latency["min_seconds"] == latency["max_seconds"] == result.latency_seconds

    def test_empty_batch_is_an_empty_result(self, make_engine):
        with make_engine() as engine:
            for result in (engine.serve_batch([]), engine.serve_one_to_many(0, [])):
                assert isinstance(result, BatchResult)
                assert len(result) == 0 and list(result) == [] and result == []
                assert result.distances == [] and result.epoch == 0
            assert engine.query_batch([]) == []
            assert engine.metrics.queries_served == 0

    def test_by_stage_totals_equal_queries_served(self, make_engine):
        """Whether recorded per batch (``serve_batch``, one-to-many) or per
        query (``serve``), every served query lands in exactly one stage."""
        with make_engine() as engine:
            engine.serve_batch([(0, t) for t in range(1, 9)])
            engine.serve_one_to_many(2, range(3, 8))
            for target in (4, 5, 6):
                engine.serve(0, target)
            stats = engine.stats()
            assert stats["queries_served"] == 8 + 5 + 3
            assert sum(stats["by_stage"].values()) == stats["queries_served"]
            assert stats["latency"]["count"] == stats["queries_served"]
            assert stats["qps"] == pytest.approx(stats["queries_served"] / 2.0)


class TestMaintenanceErrors:
    @staticmethod
    def _fail_next_install(engine, monkeypatch):
        real_install = engine._install

        def install(batch):
            monkeypatch.setattr(engine, "_install", real_install)
            raise RuntimeError("install failed")

        monkeypatch.setattr(engine, "_install", install)

    def test_apply_batch_raises_to_its_caller_only(self, make_engine, graph, monkeypatch):
        bad, good = generate_update_stream(graph, 2, volume=3, seed=2)
        with make_engine() as engine:
            self._fail_next_install(engine, monkeypatch)
            with pytest.raises(RuntimeError, match="install failed"):
                engine.apply_batch(bad)
            # The failing call raised; nothing sticks to later installs.
            assert engine.maintenance_errors == []
            assert engine.current_epoch == 0
            engine.apply_batch(good)
            assert engine.current_epoch == 1
            assert engine.stats()["batches_applied"] == 1

    def test_queued_failure_is_recorded_once_and_the_worker_survives(
        self, make_engine, graph, monkeypatch
    ):
        bad, good = generate_update_stream(graph, 2, volume=3, seed=2)
        with make_engine() as engine:
            self._fail_next_install(engine, monkeypatch)
            engine.submit_batch(bad)
            engine.submit_batch(good)
            assert engine.wait_for_maintenance(timeout=60)
            assert engine.pending_batches == 0
            assert [str(exc) for exc in engine.maintenance_errors] == ["install failed"]
            assert len(engine.stats()["maintenance_errors"]) == 1
            assert engine.current_epoch == 1
            result = engine.serve(0, FAR)
            assert result.epoch == 1
            oracle = dijkstra_distance(engine.graph_at(1), 0, FAR)
            assert result.distance == pytest.approx(oracle, rel=1e-12)
