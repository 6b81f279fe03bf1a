"""The live concurrent query-serving engine (the in-process backend).

:class:`ServingEngine` turns any :class:`~repro.base.DistanceIndex` into a
running service: queries execute on the calling thread (or a small thread
pool via :meth:`submit`) while update batches install on a dedicated
maintenance worker — operationalising the paper's core idea that the
multi-stage indexes keep answering queries, with progressively faster
algorithms, *while* they are being maintained.  (Lifecycle, admission and
the update queue are inherited from :class:`~repro.serving.core.EngineCore`.)

Consistency model (see DESIGN.md §5)
------------------------------------

The engine counts **epochs**: epoch ``e`` is the graph state after ``e``
update batches.  Two reader-writer locks split the state by what each query
stage reads:

* the **graph lock** guards the live graph — held for writing only during the
  on-spot edge refresh (U-Stage 1), for reading by the index-free BiDijkstra
  stage;
* the **index lock** guards every index structure — held for writing for the
  remainder of ``apply_batch``, for reading by the index-backed query stages.

The update-stage listener installed on the index (see
:meth:`repro.base.DistanceIndex.set_stage_listener`) fires at every stage
boundary — the only points where the index structures are consistent.  The
first stage bumps the epoch, snapshots the graph, invalidates the affected
cache partitions and releases the graph lock (BiDijkstra serves the new epoch
from then on, concurrently with the remaining maintenance).  Every later
stage publishes its released query stage to the router and briefly reopens
the index lock so queued readers can use the newly released stage.  Readers
acquire the index lock *non-blocking*: while a stage is mutating they fall
back to BiDijkstra instead of queueing behind the writer — exactly the
paper's query-processing timeline, with real threads instead of a simulated
one.

Every answer therefore equals a fresh Dijkstra run on the graph snapshot of
the epoch it reports — the invariant the serving tests enforce.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional

from repro import obs
from repro.base import DistanceIndex, QueryPair, StageTiming, UpdateReport
from repro.exceptions import EngineStoppedError, ServingError
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
from repro.serving.admission import AdmissionController
from repro.serving.cache import EpochDistanceCache
from repro.serving.core import (
    CACHE_STAGE,
    MIXED_STAGE,
    BatchResult,
    EngineCore,
    QueryResult,
)
from repro.serving.router import RoutedStage, StageRouter
from repro.serving.rwlock import RWLock


class ServingEngine(EngineCore):
    """Serve concurrent shortest-distance queries over a dynamic index.

    Parameters
    ----------
    index:
        Any :class:`~repro.base.DistanceIndex`; built on demand if needed.
    response_qos:
        Optional ``R*_q`` bound in seconds — enables Lemma-1-style admission
        control (:mod:`repro.serving.admission`).  ``None`` admits everything.
    query_threads:
        Pool size for the asynchronous :meth:`submit` API.
    cache_capacity:
        LRU distance-cache capacity; ``0`` disables caching.  The cache
        fronts search stages only — an index whose final stage is a label
        lookup (``DistanceIndex.final_stage_is_label_lookup``) is cached only
        while its slower fallback stages answer during an install.
    snapshot_limit:
        How many per-epoch graph snapshots to retain for :meth:`graph_at`
        (used by correctness oracles); ``0`` disables snapshotting.
    stage_grace_seconds:
        How long the maintenance worker leaves the index lock open at each
        stage boundary so queued readers can use the just-released stage.
    """

    _obs_prefix = "serving"

    def __init__(
        self,
        index: DistanceIndex,
        response_qos: Optional[float] = None,
        query_threads: int = 2,
        cache_capacity: int = 4096,
        snapshot_limit: int = 16,
        stage_grace_seconds: float = 0.0005,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        if query_threads < 1:
            raise ServingError(f"query_threads must be >= 1, got {query_threads}")
        if not index.is_built:
            index.build()
        self.index = index
        self.router = StageRouter(index)
        self.cache = EpochDistanceCache(cache_capacity) if cache_capacity > 0 else None
        self.stage_grace_seconds = stage_grace_seconds
        self._graph_rw = RWLock()
        self._index_rw = RWLock()
        self._query_threads = query_threads
        self._pool: Optional[ThreadPoolExecutor] = None
        super().__init__(response_qos, admission, snapshot_limit)

    def _register_obs_gauges(self) -> None:
        super()._register_obs_gauges()
        registry = obs.registry()
        registry.gauge(
            "repro_serving_inflight", "Queries currently executing"
        ).set_function(lambda: self._inflight)
        if self.cache is not None:
            for key in (
                "size", "hits", "misses", "hit_rate",
                "stale_rejections", "invalidated", "evictions",
            ):
                registry.gauge(
                    f"repro_serving_cache_{key}", f"Distance cache {key}"
                ).set_function(lambda k=key: self.cache.snapshot()[k])
        sustainable = getattr(self.admission, "sustainable_rate", None)
        if callable(sustainable):
            registry.gauge(
                "repro_serving_admission_sustainable_rate",
                "Lemma-1 sustainable arrival rate under the configured QoS",
            ).set_function(sustainable)

    def _start_backend(self) -> None:
        self._pool = ThreadPoolExecutor(
            max_workers=self._query_threads, thread_name_prefix="repro-serve"
        )

    def _stop_backend(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    # Epochs and snapshots
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The live served graph (the index's graph at the current epoch)."""
        return self.index.graph

    @classmethod
    def from_snapshot(
        cls, path: str, graph: Optional[Graph] = None, **engine_kwargs
    ) -> "ServingEngine":
        """Warm-start an engine from a snapshot instead of rebuilding.

        ``load_index`` reconstructs (or fingerprint-verifies) the graph and
        reattaches the frozen kernel stores, so the engine is ready to serve
        its first query without paying the construction cost the snapshot
        captured.  ``engine_kwargs`` are forwarded to the constructor.
        """
        from repro.store import load_index

        return cls(load_index(path, graph=graph), **engine_kwargs)

    # ------------------------------------------------------------------
    # Maintenance path
    # ------------------------------------------------------------------
    def _install(self, batch: UpdateBatch) -> UpdateReport:
        """Install one batch under the stage-by-stage epoch protocol."""
        index = self.index
        pending_epoch = self._epoch + 1
        affected = {index.vertex_partition(u.u) for u in batch}
        affected |= {index.vertex_partition(u.v) for u in batch}

        self._index_rw.acquire_write()
        self._graph_rw.acquire_write()
        graph_locked = True
        epoch_open = False

        def on_stage(timing: StageTiming) -> None:
            nonlocal graph_locked, epoch_open
            if not epoch_open:
                # First stage of every index: the on-spot edge refresh.  The
                # graph now *is* epoch ``pending_epoch``; publish it while
                # still holding both write locks so no query can observe a
                # half-open epoch.
                epoch_open = True
                self._commit_epoch(pending_epoch)
                # Key the frozen query kernels to the serving epoch: every
                # store frozen from here on belongs to ``pending_epoch`` and
                # is frozen at most once per stage (apply_batch also
                # invalidates at entry; this call is the engine-side guard
                # for indexes installed behind custom apply_batch wrappers).
                # Both write locks are held, so no reader can be mid-freeze.
                index.invalidate_kernels()
                self.router.begin_epoch(pending_epoch)
                if self.cache is not None:
                    self.cache.invalidate_partitions(affected)
                self._graph_rw.release_write()
                graph_locked = False
            else:
                self.router.release(timing.name, pending_epoch)
                # Reopen the index lock briefly: readers queued on the newly
                # released stage get a consistent window before the next
                # update stage starts mutating.
                self._index_rw.release_write()
                if self.stage_grace_seconds > 0:
                    time.sleep(self.stage_grace_seconds)
                self._index_rw.acquire_write()

        index.set_stage_listener(on_stage)
        try:
            with obs.span(
                "serving.install_batch", epoch=pending_epoch, updates=len(batch)
            ):
                report = index.apply_batch(batch)
            self.router.complete(pending_epoch)
        finally:
            index.set_stage_listener(None)
            if graph_locked:
                self._graph_rw.release_write()
            self._index_rw.release_write()
        return report

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def _answer(self, pair_list: List[QueryPair], started: float) -> BatchResult:
        """One lock acquisition and one stage-routing decision per batch
        (a scalar query is a batch of one)."""
        # Index-backed path.  Non-blocking: while an update stage is mutating
        # the structures we fall back to the live graph instead of queueing
        # behind the writer.  Holding the read lock pins the epoch for the
        # whole batch (the edge refresh needs both write locks).
        if self._index_rw.acquire_read(blocking=False):
            try:
                epoch = self._epoch
                stage = self.router.best_valid_index_stage(epoch)
                if stage is not None:
                    return self._answer_batch(pair_list, epoch, stage, started)
            finally:
                self._index_rw.release_read()

        # Live-graph fallback (Q-Stage 1): the graph read lock pins the epoch
        # instead.  Blocks only for the duration of an on-spot edge refresh.
        with self._graph_rw.read_locked():
            return self._answer_batch(
                pair_list, self._epoch, self.router.graph_stage, started
            )

    def _answer_batch(
        self, pair_list: List[QueryPair], epoch: int, stage: RoutedStage, started: float
    ) -> BatchResult:
        """Answer ``pair_list`` at ``epoch`` through ``stage``.

        The cache fronts search stages only: through a label-lookup stage
        (``stage.cached`` false) the whole batch goes straight to the index,
        with no per-pair work on this side of the kernel.
        """
        cache = self.cache
        name = stage.name
        stages: Optional[List[str]] = None
        if cache is None or not stage.cached:
            distances = self._compute(stage, pair_list)
        else:
            distances = [cache.get(source, target, epoch) for source, target in pair_list]
            misses = [position for position, hit in enumerate(distances) if hit is None]
            if not misses:
                name = CACHE_STAGE
            else:
                answers = self._compute(stage, [pair_list[position] for position in misses])
                for position, distance in zip(misses, answers):
                    distances[position] = distance
                    source, target = pair_list[position]
                    self._cache_put(source, target, distance, epoch)
                if len(misses) < len(pair_list):
                    stages = [CACHE_STAGE] * len(pair_list)
                    for position in misses:
                        stages[position] = name
                    name = MIXED_STAGE
        latency = (time.perf_counter() - started) / len(pair_list)
        return BatchResult(pair_list, distances, epoch, latency, name, stages)

    def _compute(self, stage: RoutedStage, pairs: List[QueryPair]) -> List[float]:
        """``pairs`` through ``stage``: the index's native fastest stage
        amortises a batch in ``query_many``; every other stage (and a lone
        pair) answers through its scalar algorithm."""
        if stage.final and len(pairs) > 1:
            return self.index.query_many(pairs)
        return [stage.query(source, target) for source, target in pairs]

    def submit(self, source: int, target: int) -> "Future[QueryResult]":
        """Asynchronous :meth:`serve` on the engine's query pool."""
        if not self._running or self._pool is None:
            raise EngineStoppedError("submit on a stopped engine; call start()")
        return self._pool.submit(self.serve, source, target)

    def _cache_put(self, source: int, target: int, distance: float, epoch: int) -> None:
        tags = (self.index.vertex_partition(source), self.index.vertex_partition(target))
        self.cache.put(source, target, distance, epoch, tags)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """One merged snapshot of metrics, cache, router and epoch state."""
        snapshot = super().stats()
        snapshot["stages"] = self.router.describe()
        if self.cache is not None:
            snapshot["cache"] = self.cache.snapshot()
        return snapshot
