"""repro.serving — a concurrent query-serving engine on top of the indexes.

Where :mod:`repro.throughput` *models* the maximum sustainable query rate
analytically (Lemma 1 over sequential stage timings), this package *runs* the
system: queries from concurrent client threads are answered against
consistent per-epoch snapshots while update batches install on a dedicated
maintenance worker, with each index's multi-stage catalog dispatched live.

Modules
-------
``core``       ``EngineCore`` — lifecycle, admission, epochs, update queue;
               ``BatchResult`` — one served batch as columns.
``engine``     :class:`ServingEngine` — the in-process backend: the epoch
               lock, stage release during installs.
``router``     stage-aware dispatch with per-stage validity epochs.
``cache``      epoch-versioned LRU distance cache, cleared per epoch.
``admission``  Lemma-1-style QoS admission control / load shedding.
``metrics``    ``ServingMetrics`` — per-stage counters and p50/p95/p99 latency
               as ``repro.obs`` instruments, ``snapshot()`` their view, plus
               the sliding-window QPS.
``driver``     closed-loop mixed query/update workload runner (``exp9``).
``rwlock``     the write-preferring reader-writer lock held for each
               batch's edge refresh.

Quickstart::

    from repro import PostMHLIndex, generate_update_batch, grid_road_network
    from repro.serving import ServingEngine

    graph = grid_road_network(12, 12, seed=7)
    with ServingEngine(PostMHLIndex(graph), response_qos=0.2) as engine:
        engine.submit_batch(generate_update_batch(graph, volume=20, seed=1))
        result = engine.serve(0, 143)
        print(result.distance, result.stage, result.epoch)
"""

from repro.exceptions import EngineStoppedError, QueryRejectedError, ServingError
from repro.serving.admission import AdmissionController, AdmissionDecision, AlwaysAdmit
from repro.serving.cache import CacheStats, EpochDistanceCache
from repro.serving.driver import MixedWorkloadReport, run_mixed_workload
from repro.serving.core import BatchResult, QueryResult
from repro.serving.engine import ServingEngine
from repro.serving.metrics import ServingMetrics
from repro.serving.router import LAST_STAGE, RoutedStage, StageRouter
from repro.serving.rwlock import RWLock

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AlwaysAdmit",
    "BatchResult",
    "CacheStats",
    "EngineStoppedError",
    "EpochDistanceCache",
    "QueryRejectedError",
    "ServingError",
    "LAST_STAGE",
    "MixedWorkloadReport",
    "QueryResult",
    "RoutedStage",
    "RWLock",
    "ServingEngine",
    "ServingMetrics",
    "StageRouter",
    "run_mixed_workload",
]
