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
boundary.  The index drops its frozen stores before the edge refresh, under
the write lock (:meth:`repro.base.DistanceIndex.apply_batch`).  The first
stage boundary bumps the epoch (the core retains the batch, not a copy of
the graph, for :meth:`graph_at`), clears the distance cache and releases
the lock (BiDijkstra serves the new epoch from then on, concurrently with
the remaining maintenance).  Every later stage publishes the query stage it
releases to the router, with no lock.  A query takes the read lock, reads
the epoch and runs on the fastest stage valid at it; holding the lock pins
the epoch, since the next batch's edge refresh needs the write lock.  That
is the paper's query-processing timeline, with real threads instead of a
simulated one.  Mid-install, a batch that the router expects a later stage
to answer sooner, release included, waits for that release without the
read lock and routes again (:meth:`ServingEngine._answer`).

Every answer therefore equals a fresh Dijkstra run on the graph of the
epoch it reports (:meth:`graph_at`) — the invariant the serving tests
enforce.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Dict, Optional

import numpy as np

from repro import obs
from repro.base import DistanceIndex, StageTiming, UpdateReport
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
    """

    _obs_prefix = "serving"

    def __init__(
        self,
        index: DistanceIndex,
        response_qos: Optional[float] = None,
        cache_capacity: int = 4096,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        if not index.is_built:
            index.build()
        self.index = index
        self.router = StageRouter(index)
        self.cache = EpochDistanceCache(cache_capacity) if cache_capacity > 0 else None
        #: Held for writing only during a batch's edge refresh (U-Stage 1).
        self._graph_rw = RWLock()
        super().__init__(response_qos, admission)

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
            # the write lock so no query can observe a half-open epoch.  The
            # index dropped its frozen stores before the refresh, under this
            # lock, so every store frozen from here on belongs to
            # ``pending_epoch``.
            self._commit_epoch(pending_epoch, batch)
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
        except BaseException:
            if not refreshing:
                # The epoch is committed and serves from the stages released
                # so far; none waits for a release that will not come.
                self.router.abandon()
            raise
        else:
            self.router.complete(pending_epoch)
        finally:
            index.set_stage_listener(None)
            if refreshing:
                self._graph_rw.release_write()
        return report

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def _answer(self, pairs: np.ndarray, started: float) -> BatchResult:
        """One lock acquisition and one stage-routing decision per batch
        (a scalar query is a batch of one).  Holding the read lock pins the
        epoch for the whole batch: the next edge refresh needs the write lock.

        Mid-install, when the router expects a later stage to be released
        and answer the batch sooner than the best valid stage would
        (:meth:`StageRouter.wait_plan`), the batch drops the read lock, waits
        for that release (at most what the best valid stage would take) and
        takes the lock and routes again.  It waits unlocked so that a stage
        that never comes cannot hold up the next edge refresh; blocked in a
        condition, the waiting thread leaves the GIL to the installer."""
        router = self.router
        lock = self._graph_rw
        lock.acquire_read()
        try:
            epoch = self._epoch
            stage = router.best_valid_stage(epoch)
            plan = None if stage.final else router.wait_plan(stage, len(pairs))
            if plan is None:
                return self._answer_batch(pairs, epoch, stage, started)
        finally:
            lock.release_read()
        waited = time.perf_counter()
        target, budget = plan
        router.wait_for_release(target, epoch, budget)
        self.metrics.record_stage_wait(time.perf_counter() - waited)
        lock.acquire_read()
        try:
            epoch = self._epoch
            return self._answer_batch(
                pairs, epoch, router.best_valid_stage(epoch), started
            )
        finally:
            lock.release_read()

    def _answer_batch(
        self, pairs: np.ndarray, epoch: int, stage: RoutedStage, started: float
    ) -> BatchResult:
        """Answer ``pairs`` at ``epoch`` through ``stage``.

        The cache fronts search stages only: through a label-lookup stage
        (``stage.cached`` false) the whole batch goes straight to the index
        as the id array, with no per-pair work on this side of the kernel.
        Through a search stage the cache is probed once for the batch, the
        stage computes the misses and the cache is filled once with them
        (:meth:`EpochDistanceCache.answer`).
        """
        cache, name, stage_ids = self.cache, stage.name, None
        if cache is None or not stage.cached:
            distances = self._compute(stage, pairs)
        else:
            distances = np.empty(len(pairs))
            stage_ids = np.empty(len(pairs), dtype=np.uint8)
            hits = cache.answer(
                pairs, epoch, partial(self._compute, stage), distances, stage_ids
            )
            if hits == len(pairs):
                name, stage_ids = CACHE_STAGE, None
            elif hits:
                name = MIXED_STAGE
            else:
                stage_ids = None
        latency = (time.perf_counter() - started) / len(pairs)
        return BatchResult(
            pairs, distances, epoch, latency, name, stage_ids, (CACHE_STAGE, stage.name)
        )

    def _compute(self, stage: RoutedStage, pairs: np.ndarray) -> np.ndarray:
        """``pairs`` through ``stage``: the index's final stage answers the
        whole id array in one kernel call (``query_ids``); every other stage
        answers pair by pair through its scalar algorithm.  The wall time
        teaches the router the stage's cost per pair."""
        started = time.perf_counter()
        if stage.final and len(pairs) > 1:
            distances = self.index.query_ids(pairs)
        else:
            distances = np.array([stage.query(*pair) for pair in pairs.tolist()], np.float64)
        self.router.observe_cost(stage, time.perf_counter() - started, len(pairs))
        return distances

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
