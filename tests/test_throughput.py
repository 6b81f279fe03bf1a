"""Unit tests for the throughput substrate: parallel model, QoS bounds, simulator, evaluator."""

import math

import pytest

from repro.base import StageTiming, UpdateReport
from repro.core.postmhl import PostMHLIndex
from repro.exceptions import WorkloadError
from repro.graph.generators import grid_road_network
from repro.graph.updates import generate_update_batch
from repro.labeling.h2h import DH2HIndex
from repro.throughput.evaluator import ThroughputEvaluator, measure_query_cost
from repro.throughput.parallel import (
    cumulative_release_times,
    lpt_makespan,
    parallel_speedup,
    report_wall_seconds,
    stage_wall_seconds,
)
from repro.throughput.qos import (
    StageSegment,
    build_segments,
    interval_service_moments,
    lemma1_max_throughput,
    multistage_max_throughput,
    pollaczek_khinchine_response,
    qos_constrained_rate,
)
from repro.throughput.queue_sim import QueueSimulator
from repro.throughput.workload import (
    poisson_arrival_times,
    sample_query_pairs,
)
from repro.partitioning.natural_cut import natural_cut_partition
from repro.registry import create_index
from repro.serving.router import StageRouter


class TestParallelModel:
    def test_single_worker_is_sequential(self):
        assert lpt_makespan([1.0, 2.0, 3.0], 1) == pytest.approx(6.0)

    def test_many_workers_bounded_by_longest_job(self):
        assert lpt_makespan([1.0, 2.0, 3.0], 10) == pytest.approx(3.0)

    def test_two_workers(self):
        # LPT: 3 -> w1, 2 -> w2, 1 -> w2 => makespan 3
        assert lpt_makespan([1.0, 2.0, 3.0], 2) == pytest.approx(3.0)

    def test_empty_jobs(self):
        assert lpt_makespan([], 4) == 0.0
        assert lpt_makespan([0.0, 0.0], 4) == 0.0

    def test_invalid_workers(self):
        with pytest.raises(WorkloadError):
            lpt_makespan([1.0], 0)

    def test_speedup_monotone_in_workers(self):
        times = [0.5, 0.4, 0.3, 0.2, 0.1, 0.6, 0.7, 0.8]
        speedups = [parallel_speedup(times, p) for p in (1, 2, 4, 8, 16)]
        assert speedups[0] == pytest.approx(1.0)
        for a, b in zip(speedups, speedups[1:]):
            assert b >= a - 1e-9
        # Plateau: more workers than jobs cannot help further.
        assert parallel_speedup(times, 8) == pytest.approx(parallel_speedup(times, 160))

    def test_stage_and_report_wall_seconds(self):
        report = UpdateReport(
            stages=[
                StageTiming("serial", 1.0),
                StageTiming("parallel", 4.0, parallel_times=[1.0, 1.0, 1.0, 1.0]),
            ]
        )
        assert stage_wall_seconds(report.stages[1], 4) == pytest.approx(1.0)
        assert report_wall_seconds(report, 4) == pytest.approx(2.0)
        assert report_wall_seconds(report, 1) == pytest.approx(5.0)
        assert cumulative_release_times(report, 4) == pytest.approx([1.0, 2.0])


class TestQoSBounds:
    def test_pk_formula_matches_mm1(self):
        """With exponential service (variance = mean²) P-K reduces to M/M/1."""
        mean = 0.01
        rate = 50.0
        response = pollaczek_khinchine_response(rate, mean, mean ** 2)
        expected = mean / (1.0 - rate * mean)
        assert response == pytest.approx(expected)

    def test_pk_unstable_queue(self):
        assert pollaczek_khinchine_response(200.0, 0.01, 0.0) == math.inf

    def test_qos_rate_zero_when_service_exceeds_qos(self):
        assert qos_constrained_rate(0.5, 0.0, 0.1) == 0.0

    def test_lemma1_zero_when_update_exceeds_interval(self):
        assert lemma1_max_throughput(0.001, 0.0, 61.0, 60.0, 1.0) == 0.0

    def test_lemma1_capacity_term(self):
        # Deterministic fast queries, generous QoS: capacity term dominates.
        value = lemma1_max_throughput(0.01, 0.0, 30.0, 60.0, 10.0)
        assert value == pytest.approx((60.0 - 30.0) / (0.01 * 60.0))

    def test_lemma1_qos_term(self):
        # Tight QoS with slow queries: the QoS term dominates.
        value = lemma1_max_throughput(0.05, 0.0025, 1.0, 60.0, 0.2)
        qos_term = 2 * (0.2 - 0.05) / (0.0025 + 2 * 0.2 * 0.05 - 0.05 ** 2)
        assert value == pytest.approx(qos_term)

    def test_interval_moments(self):
        segments = [
            StageSegment(0.0, 1.0, 0.2, 0.0),
            StageSegment(1.0, 3.0, 0.1, 0.0),
        ]
        mean, second = interval_service_moments(segments)
        assert mean == pytest.approx((1 * 0.2 + 2 * 0.1) / 3)
        assert second == pytest.approx((1 * 0.04 + 2 * 0.01) / 3)

    def test_multistage_reduces_to_lemma1_with_single_stage(self):
        tq, vq, tu, dt, rq = 0.01, 0.0, 5.0, 60.0, 1.0
        segments = [
            StageSegment(0.0, tu, tq, vq),
            StageSegment(tu, dt, tq, vq),
        ]
        value = multistage_max_throughput(segments, dt, rq, tu)
        # Same query cost in both segments -> capacity is the full interval.
        assert value == pytest.approx(min(
            qos_constrained_rate(tq, vq, rq), (dt / tq) / dt
        ))

    def test_multistage_zero_when_update_too_slow(self):
        segments = [StageSegment(0.0, 60.0, 0.01, 0.0)]
        assert multistage_max_throughput(segments, 60.0, 1.0, 61.0) == 0.0

    def test_faster_final_stage_increases_throughput(self):
        slow = [StageSegment(0.0, 10.0, 0.01, 0.0), StageSegment(10.0, 60.0, 0.01, 0.0)]
        fast = [StageSegment(0.0, 10.0, 0.01, 0.0), StageSegment(10.0, 60.0, 0.0001, 0.0)]
        assert multistage_max_throughput(fast, 60.0, 1.0, 10.0) > multistage_max_throughput(
            slow, 60.0, 1.0, 10.0
        )

    def test_build_segments_covers_interval(self):
        segments = build_segments(
            release_times=[0.5, 2.0, 100.0],
            stage_names=["a", "b", "c"],
            mean_services=[0.1, 0.01, 0.001],
            service_variances=[0.0, 0.0, 0.0],
            update_interval=10.0,
        )
        assert segments[0].start == 0.0
        assert segments[-1].end == 10.0
        total = sum(s.length for s in segments)
        assert total == pytest.approx(10.0)


class TestWorkload:
    def test_poisson_arrivals_rate(self):
        times = poisson_arrival_times(100.0, 10.0, seed=1)
        assert 800 <= len(times) <= 1200
        assert all(0 <= t < 10.0 for t in times)
        assert times == sorted(times)

    def test_poisson_zero_rate(self):
        assert poisson_arrival_times(0.0, 10.0) == []

    def test_sample_pairs_uniform(self):
        graph = grid_road_network(5, 5, seed=0)
        workload = sample_query_pairs(graph, 50, seed=0)
        assert len(workload) == 50
        for s, t in workload:
            assert graph.has_vertex(s) and graph.has_vertex(t)

    def test_sample_pairs_same_partition_bias(self):
        graph = grid_road_network(8, 8, seed=1)
        partitioning = natural_cut_partition(graph, 4, seed=1)
        workload = sample_query_pairs(
            graph, 100, seed=1, partitioning=partitioning, same_partition_fraction=1.0
        )
        assert all(
            partitioning.partition_of(s) == partitioning.partition_of(t)
            for s, t in workload
        )
        workload = sample_query_pairs(
            graph, 100, seed=2, partitioning=partitioning, same_partition_fraction=0.0
        )
        assert all(
            partitioning.partition_of(s) != partitioning.partition_of(t)
            for s, t in workload
        )

    def test_sample_pairs_validation(self):
        graph = grid_road_network(3, 3, seed=0)
        with pytest.raises(WorkloadError):
            sample_query_pairs(graph, -1)
        with pytest.raises(WorkloadError):
            sample_query_pairs(graph, 5, same_partition_fraction=0.5)


class TestQueueSimulator:
    def test_low_rate_meets_qos(self):
        segments = [StageSegment(0.0, 10.0, 0.01, 0.0)]
        simulator = QueueSimulator(segments, 10.0)
        result = simulator.run(arrival_rate=5.0, num_intervals=2, response_qos=0.5, seed=0)
        assert not result.qos_violated
        assert result.completed == result.arrivals

    def test_overload_violates_qos(self):
        segments = [StageSegment(0.0, 10.0, 0.05, 0.0)]
        simulator = QueueSimulator(segments, 10.0)
        result = simulator.run(arrival_rate=100.0, num_intervals=2, response_qos=0.5, seed=0)
        assert result.qos_violated

    def test_max_throughput_close_to_analytic(self):
        mean = 0.02
        segments = [StageSegment(0.0, 10.0, mean, 0.0)]
        simulator = QueueSimulator(segments, 10.0)
        simulated = simulator.max_throughput(response_qos=0.5, num_intervals=2, seed=3)
        analytic = qos_constrained_rate(mean, 0.0, 0.5)
        capacity = 1.0 / mean
        assert simulated <= capacity * 1.05
        assert simulated >= 0.3 * min(analytic, capacity)

    def test_service_time_lookup(self):
        segments = [
            StageSegment(0.0, 5.0, 0.1, 0.0),
            StageSegment(5.0, 10.0, 0.01, 0.0),
        ]
        simulator = QueueSimulator(segments, 10.0)
        assert simulator.service_time_at(1.0) == 0.1
        assert simulator.service_time_at(7.0) == 0.01


class TestEvaluator:
    def test_measure_query_cost(self):
        graph = grid_road_network(5, 5, seed=0)
        from repro.algorithms.dijkstra import bidijkstra

        mean, variance = measure_query_cost(
            lambda s, t: bidijkstra(graph, s, t), [(0, 24), (3, 20), (5, 19)]
        )
        assert mean > 0
        assert variance >= 0

    def test_evaluator_validation(self):
        with pytest.raises(WorkloadError):
            ThroughputEvaluator(update_interval=0, response_qos=1.0)
        with pytest.raises(WorkloadError):
            ThroughputEvaluator(update_interval=1.0, response_qos=0)
        with pytest.raises(WorkloadError):
            ThroughputEvaluator(update_interval=1.0, response_qos=1.0, threads=0)

    def test_multistage_index_beats_plain_dh2h(self):
        """The core claim (shape): PostMHL sustains at least DH2H's throughput."""
        graph_a = grid_road_network(8, 8, seed=4)
        graph_b = graph_a.copy()
        workload = sample_query_pairs(graph_a, 30, seed=4)
        evaluator = ThroughputEvaluator(
            update_interval=2.0, response_qos=0.2, threads=4, query_sample_size=20
        )

        dh2h = DH2HIndex(graph_a)
        dh2h.build()
        postmhl = PostMHLIndex(graph_b, bandwidth=12, expected_partitions=4)
        postmhl.build()

        batch_a = generate_update_batch(graph_a, volume=10, seed=4)
        batch_b = generate_update_batch(graph_b, volume=10, seed=4)
        result_dh2h = evaluator.evaluate(dh2h, batch_a, workload)
        result_post = evaluator.evaluate(postmhl, batch_b, workload)

        assert result_post.max_throughput > 0
        assert result_post.max_throughput >= 0.5 * result_dh2h.max_throughput

    def test_qps_evolution_monotone(self):
        graph = grid_road_network(8, 8, seed=5)
        index = PostMHLIndex(graph, bandwidth=12, expected_partitions=4)
        index.build()
        workload = sample_query_pairs(graph, 20, seed=5)
        evaluator = ThroughputEvaluator(
            update_interval=1.0, response_qos=0.5, threads=4, query_sample_size=10
        )
        report = index.apply_batch(generate_update_batch(graph, volume=10, seed=5))
        samples = evaluator.qps_evolution(index, report, workload, num_points=10)
        assert len(samples) == 10
        values = [qps for _, qps in samples]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-9

    @pytest.mark.parametrize(
        "method, params",
        (
            ("MHL", {}),
            ("PMHL", {"num_partitions": 4, "seed": 0}),
            ("PostMHL", {"bandwidth": 10, "expected_partitions": 4}),
            ("DCH", {}),
        ),
        ids=("MHL", "PMHL", "PostMHL", "DCH"),
    )
    def test_stage_names_match_the_live_router(self, method, params):
        """The modelled timeline names its stages as the serving router does."""
        graph = grid_road_network(6, 6, seed=3)
        index = create_index(method, graph, **params)
        index.build()
        evaluator = ThroughputEvaluator(
            update_interval=1.0, response_qos=0.5, threads=2, query_sample_size=5
        )
        batch = generate_update_batch(graph, volume=6, seed=3)
        result = evaluator.evaluate(index, batch, sample_query_pairs(graph, 5, seed=3))
        names = [stage.name for stage in StageRouter(index).stages]
        assert [cost.name for cost in result.stage_costs] == names
        assert {segment.stage_name for segment in result.segments} <= set(names)
