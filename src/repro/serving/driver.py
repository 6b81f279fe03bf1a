"""Closed-loop mixed query/update workload driver.

Runs the measurement protocol of the live-serving experiment (``exp9``): a
set of client threads issue queries back-to-back against a
:class:`~repro.serving.engine.ServingEngine` while the driver thread feeds
update batches at a fixed interval — the live counterpart of the analytic
batch-arrival model of :mod:`repro.throughput`.  The report carries the
measured QPS and latency quantiles next to everything needed to replay each
answer against a per-epoch Dijkstra oracle.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import QueryRejectedError, ServingError
from repro.graph.updates import UpdateBatch
from repro.serving.core import QueryResult
from repro.serving.engine import ServingEngine


@dataclass
class MixedWorkloadReport:
    """Outcome of one :func:`run_mixed_workload` run."""

    duration_seconds: float
    queries_attempted: int
    queries_served: int
    queries_shed: int
    batches_applied: int
    #: Served queries per second of wall-clock driving time.
    measured_qps: float
    #: Individual results (populated when ``collect_results`` is set).
    results: List[QueryResult] = field(default_factory=list)
    #: Engine stats snapshot taken right after the run.
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def shed_fraction(self) -> float:
        return self.queries_shed / self.queries_attempted if self.queries_attempted else 0.0


def run_mixed_workload(
    engine: ServingEngine,
    pairs: Sequence[Tuple[int, int]],
    duration_seconds: float,
    query_threads: int = 2,
    batches: Sequence[UpdateBatch] = (),
    update_interval: Optional[float] = None,
    collect_results: bool = False,
    seed: int = 0,
) -> MixedWorkloadReport:
    """Drive ``engine`` with concurrent queries and update batches.

    ``query_threads`` closed-loop clients draw (source, target) pairs at
    random from ``pairs`` until ``duration_seconds`` elapse; meanwhile the
    calling thread submits each batch of ``batches`` spaced by
    ``update_interval`` (default: the duration split evenly so every batch
    lands inside the run).  The engine must already be started.
    """
    if not pairs:
        raise ServingError("cannot drive a workload without query pairs")
    if query_threads < 1:
        raise ServingError(f"query_threads must be >= 1, got {query_threads}")
    if duration_seconds <= 0:
        raise ServingError(f"duration_seconds must be positive, got {duration_seconds}")
    if not engine.is_running and batches:
        raise ServingError("engine must be started to install update batches")

    if update_interval is None:
        update_interval = duration_seconds / (len(batches) + 1) if batches else duration_seconds

    deadline = time.perf_counter() + duration_seconds
    attempted = [0] * query_threads
    served = [0] * query_threads
    shed = [0] * query_threads
    collected: List[List[QueryResult]] = [[] for _ in range(query_threads)]

    def client(worker: int) -> None:
        rng = random.Random(seed + worker)
        while time.perf_counter() < deadline:
            source, target = pairs[rng.randrange(len(pairs))]
            attempted[worker] += 1
            try:
                result = engine.serve(source, target)
            except QueryRejectedError:
                shed[worker] += 1
                continue
            served[worker] += 1
            if collect_results:
                collected[worker].append(result)

    threads = [
        threading.Thread(target=client, args=(worker,), name=f"repro-client-{worker}")
        for worker in range(query_threads)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()

    applied = 0
    for batch in batches:
        time.sleep(update_interval)
        if time.perf_counter() >= deadline:
            break
        engine.submit_batch(batch)
        applied += 1

    for thread in threads:
        thread.join()
    # QPS is served-over-driving-time; the maintenance drain below must not
    # deflate it (it is method-dependent and no client is querying anymore).
    elapsed = time.perf_counter() - started
    if applied:
        engine.wait_for_maintenance()

    total_served = sum(served)
    results: List[QueryResult] = []
    if collect_results:
        for chunk in collected:
            results.extend(chunk)
    return MixedWorkloadReport(
        duration_seconds=elapsed,
        queries_attempted=sum(attempted),
        queries_served=total_served,
        queries_shed=sum(shed),
        batches_applied=applied,
        measured_qps=total_served / elapsed if elapsed > 0 else 0.0,
        results=results,
        stats=engine.stats(),
    )
