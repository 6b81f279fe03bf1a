"""End-to-end throughput evaluation of a shortest-distance index.

The evaluator reproduces the paper's measurement pipeline for one method on
one dataset:

1. install an update batch and record the per-stage maintenance times,
2. convert them into a simulated parallel wall-clock with ``p`` virtual
   threads (``repro.throughput.parallel``),
3. measure the average per-query time (and variance) of every query stage by
   sampling a query workload,
4. assemble the query-processing timeline of one update interval and compute
   the maximum sustainable throughput ``λ*_q`` under the response-time QoS
   (``repro.throughput.qos``), and
5. optionally validate the analytic figure with the discrete-event queue
   simulator.

The query stages come from the index's ``stage_catalog()``, the table the
live serving router dispatches on: MHL, PMHL and PostMHL list their own
multi-stage timeline; plain indexes (DCH, DH2H, …) are treated as the paper
treats them — BiDijkstra answers queries while their index is being repaired,
and their native query takes over once the update completes.

Analytic λ*_q versus measured serving QPS
-----------------------------------------

The figure produced here is an *analytic upper bound*: it assumes Poisson
arrivals, measures each stage's query cost in isolation on a single thread,
and simulates the maintenance parallelism (``repro.throughput.parallel``).
Its live counterpart is the *measured* served QPS of
:class:`repro.serving.engine.ServingEngine`, where real concurrent clients
contend with the maintenance worker for locks and the GIL;
``repro.experiments.exp9_live_serving`` reports the two side by side.  They
are expected to agree on the story (method ordering, trends), not on the
numbers — the analytic bound abstracts away contention and caching, while
the measured figure is capped by the load the driver offers.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.base import DistanceIndex, UpdateReport
from repro.exceptions import WorkloadError
from repro.graph.updates import UpdateBatch
from repro.throughput.parallel import cumulative_release_times, report_wall_seconds
from repro.throughput.qos import StageSegment, build_segments, multistage_max_throughput
from repro.throughput.queue_sim import QueueSimulator
from repro.throughput.workload import QueryWorkload


@dataclass
class StageQueryCost:
    """Measured per-query cost of one query stage."""

    name: str
    mean_seconds: float
    variance: float
    released_after: str


@dataclass
class ThroughputResult:
    """Everything the experiments report for one (method, dataset, setting) cell."""

    method: str
    max_throughput: float
    update_wall_seconds: float
    stage_costs: List[StageQueryCost] = field(default_factory=list)
    segments: List[StageSegment] = field(default_factory=list)
    release_times: List[float] = field(default_factory=list)
    update_report: Optional[UpdateReport] = None

    @property
    def final_query_seconds(self) -> float:
        """Average query time of the fastest (final) stage."""
        return self.stage_costs[-1].mean_seconds if self.stage_costs else float("inf")


def measure_query_cost(
    query: Callable[[int, int], float], pairs: Sequence[Tuple[int, int]]
) -> Tuple[float, float]:
    """Mean and variance of the per-query wall-clock time of ``query`` over ``pairs``.

    One untimed warm-up call is issued first so lazily-built helpers (e.g. the
    LCA oracle of H2H-style indexes) are charged to construction rather than to
    the first measured query.
    """
    if not pairs:
        raise WorkloadError("cannot measure query cost on an empty workload")
    query(pairs[0][0], pairs[0][1])
    samples: List[float] = []
    for source, target in pairs:
        start = time.perf_counter()
        query(source, target)
        samples.append(time.perf_counter() - start)
    mean = statistics.fmean(samples)
    variance = statistics.pvariance(samples) if len(samples) > 1 else 0.0
    return mean, variance


class ThroughputEvaluator:
    """Measure the maximum sustainable query throughput of an index.

    Parameters
    ----------
    update_interval:
        ``δt`` in seconds (scaled down relative to the paper, see DESIGN.md §3).
    response_qos:
        ``R*_q`` in seconds.
    threads:
        Number of virtual maintenance threads ``p`` for the parallel cost model.
    query_sample_size:
        How many workload pairs to use when measuring per-stage query cost.
    """

    def __init__(
        self,
        update_interval: float,
        response_qos: float,
        threads: int = 4,
        query_sample_size: int = 50,
    ):
        if update_interval <= 0:
            raise WorkloadError("update_interval must be positive")
        if response_qos <= 0:
            raise WorkloadError("response_qos must be positive")
        if threads < 1:
            raise WorkloadError("threads must be >= 1")
        self.update_interval = update_interval
        self.response_qos = response_qos
        self.threads = threads
        self.query_sample_size = query_sample_size

    # ------------------------------------------------------------------
    def evaluate(
        self,
        index: DistanceIndex,
        batch: UpdateBatch,
        workload: QueryWorkload,
        validate_with_simulation: bool = False,
        simulation_seed: int = 0,
    ) -> ThroughputResult:
        """Apply ``batch`` to ``index`` and compute its maximum throughput."""
        report = index.apply_batch(batch)
        return self.evaluate_from_report(
            index,
            report,
            workload,
            validate_with_simulation=validate_with_simulation,
            simulation_seed=simulation_seed,
        )

    def evaluate_from_report(
        self,
        index: DistanceIndex,
        report: UpdateReport,
        workload: QueryWorkload,
        validate_with_simulation: bool = False,
        simulation_seed: int = 0,
    ) -> ThroughputResult:
        """Compute throughput from an already-installed update report."""
        pairs = list(workload)[: self.query_sample_size]
        if not pairs:
            raise WorkloadError("the query workload is empty")

        costs, release_times, total_wall = self._stage_timeline(index, report, pairs)
        segments = build_segments(
            release_times,
            [cost.name for cost in costs],
            [cost.mean_seconds for cost in costs],
            [cost.variance for cost in costs],
            self.update_interval,
        )
        max_throughput = multistage_max_throughput(
            segments, self.update_interval, self.response_qos, total_wall
        )
        result = ThroughputResult(
            method=index.name,
            max_throughput=max_throughput,
            update_wall_seconds=total_wall,
            stage_costs=costs,
            segments=segments,
            release_times=release_times,
            update_report=report,
        )
        if validate_with_simulation and max_throughput > 0:
            simulator = QueueSimulator(segments, self.update_interval)
            simulated = simulator.max_throughput(
                self.response_qos, num_intervals=2, seed=simulation_seed
            )
            # Keep the more conservative figure when the simulation disagrees badly.
            result.max_throughput = min(max_throughput, max(simulated, 0.0)) or simulated
        return result

    # ------------------------------------------------------------------
    def qps_evolution(
        self,
        index: DistanceIndex,
        report: UpdateReport,
        workload: QueryWorkload,
        num_points: int = 20,
    ) -> List[Tuple[float, float]]:
        """Queries-per-second (``1 / t_q``) over the update interval (Figure 13).

        Returns ``(time, qps)`` samples: at each time point the QPS of the
        fastest query stage already released is reported.
        """
        pairs = list(workload)[: self.query_sample_size]
        costs, release_times, _ = self._stage_timeline(index, report, pairs)
        stage_points = [
            (release, 1.0 / cost.mean_seconds if cost.mean_seconds > 0 else float("inf"))
            for release, cost in zip(release_times, costs)
        ]

        samples: List[Tuple[float, float]] = []
        for i in range(num_points):
            t = self.update_interval * i / max(1, num_points - 1)
            qps = 0.0
            for release, stage_qps in stage_points:
                if release <= t:
                    qps = max(qps, stage_qps)
            if qps == 0.0:
                qps = stage_points[0][1]
            samples.append((t, qps))
        return samples

    # ------------------------------------------------------------------
    def _stage_timeline(
        self, index: DistanceIndex, report: UpdateReport, pairs: Sequence[Tuple[int, int]]
    ) -> Tuple[List[StageQueryCost], List[float], float]:
        """Measured cost and simulated release time of every query stage.

        Returns ``(costs, release_times, total_wall)``: one cost and one
        release time per row of ``index.stage_catalog()``, and the update's
        simulated wall-clock under ``threads`` workers.  A stage released
        after :data:`~repro.base.LAST_STAGE` (or after a stage the report
        lacks) is released when the whole update completes.
        """
        total_wall = report_wall_seconds(report, self.threads)
        released_at = {
            stage.name: release
            for stage, release in zip(
                report.stages, cumulative_release_times(report, self.threads)
            )
        }
        costs: List[StageQueryCost] = []
        release_times: List[float] = []
        for row in index.stage_catalog():
            mean, variance = measure_query_cost(row.query, pairs)
            costs.append(StageQueryCost(row.name, mean, variance, row.released_after))
            release_times.append(released_at.get(row.released_after, total_wall))
        return costs, release_times, total_wall
