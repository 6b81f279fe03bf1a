"""The live concurrent query-serving engine (the in-process backend).

:class:`ServingEngine` turns any :class:`~repro.base.DistanceIndex` into a
running service: queries execute on the calling thread while update
batches install on a dedicated maintenance worker — operationalising the paper's core idea that the
multi-stage indexes keep answering queries, with progressively faster
algorithms, *while* they are being maintained.  (Lifecycle, admission and
the update queue are inherited from :class:`~repro.serving.core.EngineCore`.)

Consistency model (see DESIGN.md §5)
------------------------------------

The engine counts **epochs**: epoch ``e`` is the graph state after ``e``
update batches.  One write-preferring reader-writer lock is the only
exclusion, and the maintenance worker holds it for writing only during the
on-spot edge refresh (U-Stage 1) — the one stage that rewrites what a
released query stage may read (the live graph).  Every later update stage
writes only structures that no already-released query stage of the same
batch reads (the audit table in DESIGN.md §5), so queries need not wait for
them.

The update-stage listener installed on the index (see
:meth:`repro.base.DistanceIndex.set_stage_listener`) fires at every stage
boundary.  The first stage bumps the epoch, snapshots the graph, drops the
frozen stores, clears the distance cache and releases the lock (BiDijkstra
serves the new epoch from then on, concurrently with the remaining
maintenance).  Every later stage publishes the query stage it
releases to the router, with no lock.  A query takes the read lock, reads
the epoch and runs on the fastest stage valid at it; holding the lock pins
the epoch, since the next batch's edge refresh needs the write lock.  That
is the paper's query-processing timeline, with real threads instead of a
simulated one.

Every answer therefore equals a fresh Dijkstra run on the graph snapshot of
the epoch it reports — the invariant the serving tests enforce.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro import obs
from repro.base import DistanceIndex, QueryPair, StageTiming, UpdateReport
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
from repro.obs.metrics import MetricRegistry
from repro.serving.admission import AdmissionController
from repro.serving.cache import EpochDistanceCache
from repro.serving.core import (
    CACHE_STAGE,
    MIXED_STAGE,
    BatchResult,
    EngineCore,
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
    cache_capacity:
        LRU distance-cache capacity; ``0`` disables caching.  The cache
        fronts search stages only — an index whose final stage is a label
        lookup (``DistanceIndex.final_stage_is_label_lookup``) is cached only
        while its slower fallback stages answer during an install.
    snapshot_limit:
        How many per-epoch graph snapshots to retain for :meth:`graph_at`
        (used by correctness oracles); ``0`` disables snapshotting.
    """

    _obs_prefix = "serving"

    def __init__(
        self,
        index: DistanceIndex,
        response_qos: Optional[float] = None,
        cache_capacity: int = 4096,
        snapshot_limit: int = 16,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        if not index.is_built:
            index.build()
        self.index = index
        self.router = StageRouter(index)
        self.cache = EpochDistanceCache(cache_capacity) if cache_capacity > 0 else None
        #: Held for writing only during a batch's edge refresh (U-Stage 1).
        self._graph_rw = RWLock()
        super().__init__(response_qos, admission, snapshot_limit)

    def _register_obs(self, registry: MetricRegistry) -> None:
        super()._register_obs(registry)
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
        self._graph_rw.acquire_write()
        refreshing = True

        def on_stage(timing: StageTiming) -> None:
            nonlocal refreshing
            if not refreshing:
                # The structures this stage wrote are final for the batch.
                self.router.release(timing.name, pending_epoch)
                return
            # First stage of every index: the on-spot edge refresh.  The graph
            # now *is* epoch ``pending_epoch``; publish it while still holding
            # the write lock so no query can observe a half-open epoch.
            self._commit_epoch(pending_epoch)
            # Key the frozen query kernels to the serving epoch: every store
            # frozen from here on belongs to ``pending_epoch`` and is frozen at
            # most once per stage (apply_batch also invalidates at entry; this
            # call is the engine-side guard for indexes installed behind
            # custom apply_batch wrappers).  No reader can be mid-freeze.
            index.invalidate_kernels()
            self.router.begin_epoch(pending_epoch)
            if self.cache is not None:
                # No entry can be served at the new epoch (``get`` rejects
                # it), so clearing is eviction, not the correctness gate.
                self.cache.invalidate_all()
            refreshing = False
            self._graph_rw.release_write()

        index.set_stage_listener(on_stage)
        try:
            with obs.span(
                "serving.install_batch", epoch=pending_epoch, updates=len(batch)
            ):
                report = index.apply_batch(batch)
            self.router.complete(pending_epoch)
        finally:
            index.set_stage_listener(None)
            if refreshing:
                self._graph_rw.release_write()
        return report

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def _answer(self, pair_list: List[QueryPair], started: float) -> BatchResult:
        """One lock acquisition and one stage-routing decision per batch
        (a scalar query is a batch of one).  Holding the read lock pins the
        epoch for the whole batch: the next edge refresh needs the write lock."""
        lock = self._graph_rw
        lock.acquire_read()
        try:
            epoch = self._epoch
            return self._answer_batch(
                pair_list, epoch, self.router.best_valid_stage(epoch), started
            )
        finally:
            lock.release_read()

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
                    cache.put(*pair_list[position], distance, epoch)
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
