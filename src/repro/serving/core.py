"""The engine core: everything a serving backend does regardless of *where*
queries execute.

:class:`EngineCore` owns the paper's serving contract — Lemma-1 admission,
answers consistent with exactly one **epoch** (the graph state after that
many installed update batches), and maintenance that installs batches one at
a time while queries keep flowing — and leaves to a backend only the parts
that depend on where the index lives (the "Backend interface" methods below).

:class:`~repro.serving.engine.ServingEngine` (threads over an in-process
index) and :class:`~repro.cluster.engine.ClusterEngine` (shard processes over
a shared snapshot) are the two backends; :class:`~repro.server.QueryServer`
speaks this surface and nothing else.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import Counter, OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, List, Mapping, Optional, TypeVar

from repro import obs
from repro.base import DistanceIndex, QueryPair, UpdateReport
from repro.exceptions import (
    EngineStoppedError,
    QueryRejectedError,
    ServingError,
    VertexNotFoundError,
)
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
from repro.serving.admission import AdmissionController, AlwaysAdmit
from repro.serving.metrics import ServingMetrics

_STOP = object()
_Engine = TypeVar("_Engine", bound="EngineCore")

#: Stage name of answers served from the distance cache.
CACHE_STAGE = "cache"
#: :attr:`BatchResult.stage` of a batch whose answers came from several stages.
MIXED_STAGE = "mixed"


@dataclass(frozen=True)
class QueryResult:
    """One served query: the answer plus the serving context."""

    source: int
    target: int
    distance: float
    #: Epoch (number of installed update batches) the answer is consistent with.
    epoch: int
    #: Name of the query stage that produced the answer (``"cache"`` for hits,
    #: ``"shardN"`` from the cluster).
    stage: str
    latency_seconds: float
    from_cache: bool = False


class BatchResult(Sequence):
    """One served batch, held as columns instead of a row object per query.

    ``pairs`` and ``distances`` are parallel lists.  The whole batch shares one
    ``epoch`` and one ``latency_seconds`` — the batch wall time amortised over
    its queries (wall / len), which keeps metrics and the admission
    controller's service-time estimator commensurable with scalar samples
    (the whole-batch wall would inflate the estimate len-fold and shed
    batches spuriously).  ``stage`` names the query stage that answered every
    pair; when answers mix (cache hits beside computed ones, several shards)
    it is :data:`MIXED_STAGE` and ``stages`` holds the per-pair column.

    The result is also a read-only ``Sequence[QueryResult]``: the rows are
    built on first indexing/iteration and memoised, so callers that only
    want the columns (the wire plane, ``query_batch``) never pay for them.
    """

    __slots__ = (
        "pairs", "distances", "epoch", "latency_seconds", "stage", "stages", "_rows",
    )

    def __init__(
        self,
        pairs: List[QueryPair],
        distances: List[float],
        epoch: int,
        latency_seconds: float,
        stage: str,
        stages: Optional[List[str]] = None,
    ) -> None:
        self.pairs = pairs
        self.distances = distances
        self.epoch = epoch
        self.latency_seconds = latency_seconds
        self.stage = stage
        self.stages = stages
        self._rows: Optional[List[QueryResult]] = None

    def stage_counts(self) -> Mapping[str, int]:
        """How many of the batch's queries each stage answered."""
        if self.stages is None:
            return {self.stage: len(self.pairs)}
        return Counter(self.stages)

    def _materialise(self) -> List[QueryResult]:
        rows = self._rows
        if rows is None:
            epoch, latency = self.epoch, self.latency_seconds
            stages = repeat(self.stage) if self.stages is None else self.stages
            rows = self._rows = [
                QueryResult(source, target, distance, epoch, stage, latency, stage == CACHE_STAGE)
                for (source, target), distance, stage in zip(self.pairs, self.distances, stages)
            ]
        return rows

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, index):
        return self._materialise()[index]

    def __iter__(self):
        return iter(self._materialise())

    def __eq__(self, other) -> bool:
        if isinstance(other, (BatchResult, list, tuple)):
            return self._materialise() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"BatchResult(queries={len(self.pairs)}, epoch={self.epoch}, "
            f"stage={self.stage!r})"
        )


class EngineCore:
    """Lifecycle, admission, epochs and maintenance shared by every backend.

    A backend sets up whatever :attr:`graph` and its obs gauges read *before*
    calling this constructor (epoch 0 is snapshotted here); the three
    arguments are documented on the backends' own constructors.
    """

    #: ``"serving"`` / ``"cluster"`` — prefixes the backend's span names and
    #: ``repro_<prefix>_*`` gauges.
    _obs_prefix: str

    def __init__(
        self,
        response_qos: Optional[float],
        admission: Optional[AdmissionController],
        snapshot_limit: int,
    ) -> None:
        self.metrics = ServingMetrics()
        if admission is not None:
            self.admission = admission
        elif response_qos is not None:
            self.admission = AdmissionController(response_qos)
        else:
            self.admission = AlwaysAdmit()
        self.response_qos = response_qos
        self.update_reports: List[UpdateReport] = []
        #: Exceptions raised by *queued* installs (a failing :meth:`apply_batch`
        #: call raises to its caller instead).  A batch the graph rejects
        #: (unknown edge, bad weight) raises before anything is written and
        #: commits no epoch (``UpdateBatch.apply`` is all or nothing).
        self.maintenance_errors: List[Exception] = []
        #: Set by a backend whose install failed after :attr:`index` took the
        #: batch (no epoch can be committed truthfully after that); from then
        #: on queries, batches and exports raise it.
        self._failure: Optional[ServingError] = None

        self._state = threading.Lock()
        self._inflight = 0
        #: Serialises installs: one batch at a time, whichever thread runs it.
        self._install_lock = threading.Lock()
        self._worker: Optional[threading.Thread] = None
        self._queue: "queue.Queue" = queue.Queue()
        self._pending = 0
        self._pending_cond = threading.Condition()
        self._running = False

        self._snapshot_limit = snapshot_limit
        self._snapshots: "OrderedDict[int, Graph]" = OrderedDict()
        self._commit_epoch(0)

        if obs.is_enabled():
            self._register_obs_gauges()

    def _register_obs_gauges(self) -> None:
        """Re-export engine state as registry gauges (backends add their own).

        Gauges read live callbacks at exposition time.  The registry is
        process-wide, so with several engines of one kind the most recently
        constructed one owns these series (last registration wins).
        """
        registry = obs.registry()
        registry.gauge(
            f"repro_{self._obs_prefix}_epoch", "Current serving epoch (installed batches)"
        ).set_function(lambda: self._epoch)
        registry.gauge(
            f"repro_{self._obs_prefix}_pending_batches",
            "Update batches queued or installing",
        ).set_function(lambda: self.pending_batches)

    # ------------------------------------------------------------------
    # Backend interface
    # ------------------------------------------------------------------
    #: The one mutable index: the served index of ``ServingEngine``, the
    #: maintainer of ``ClusterEngine``.  Only ``_install`` mutates it.
    index: DistanceIndex

    @property
    def graph(self) -> Graph:
        """The live served graph at the current epoch."""
        raise NotImplementedError

    def _answer(self, pair_list: List[QueryPair], started: float) -> BatchResult:
        """Answer a validated, admitted, non-empty batch at a single epoch;
        the result's latency is ``(now - started) / len(pair_list)``."""
        raise NotImplementedError

    def _install(self, batch: UpdateBatch) -> UpdateReport:
        """Install ``batch`` as the next epoch (the install lock is held)."""
        raise NotImplementedError

    def _start_backend(self) -> None:
        raise NotImplementedError

    def _stop_backend(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self: _Engine) -> _Engine:
        """Start the backend and the maintenance worker (idempotent)."""
        if self._running:
            return self
        self._start_backend()
        self._running = True
        self._worker = threading.Thread(
            target=self._maintenance_loop,
            name=f"repro-{self._obs_prefix}-maintain",
            daemon=True,
        )
        self._worker.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the engine; with ``drain`` wait for queued batches first
        (without, batches still queued fail with ``EngineStoppedError``)."""
        if not self._running:
            return
        if drain:
            self.wait_for_maintenance()
        self._running = False
        self._queue.put(_STOP)
        if self._worker is not None:
            self._worker.join()
            self._worker = None
        self._stop_backend()

    def __enter__(self: _Engine) -> _Engine:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def is_running(self) -> bool:
        return self._running

    # ------------------------------------------------------------------
    # Epochs and snapshots
    # ------------------------------------------------------------------
    @property
    def current_epoch(self) -> int:
        return self._epoch

    def graph_at(self, epoch: int) -> Graph:
        """Graph snapshot of ``epoch`` (for per-epoch correctness oracles)."""
        with self._state:
            snapshot = self._snapshots.get(epoch)
        if snapshot is None:
            raise ServingError(
                f"no graph snapshot retained for epoch {epoch} "
                f"(snapshot_limit={self._snapshot_limit})"
            )
        return snapshot

    def _commit_epoch(self, epoch: int) -> None:
        """Make ``epoch`` current and retain its graph snapshot.

        Backends call this from :meth:`_install` once :attr:`graph` is at the
        new state, while whatever excludes their readers is still held.
        """
        with self._state:
            self._epoch = epoch
            if self._snapshot_limit > 0:
                self._snapshots[epoch] = self.graph.copy()
                while len(self._snapshots) > self._snapshot_limit:
                    self._snapshots.popitem(last=False)

    def export_snapshot(
        self, path: str, timeout: Optional[float] = None, **save_kwargs
    ) -> int:
        """Persist :attr:`index` as an epoch-consistent on-disk snapshot.

        Waits for every queued batch to install, then serializes while
        holding the install mutex — so the export proceeds concurrently with
        queries but never alongside an update batch (mid-install the
        structures are at best *stage*-consistent).  Returns the epoch the
        snapshot captured; the manifest records it under ``extras.epoch``.
        Works on a stopped engine too.

        Under a sustained update stream a quiescent point may never arrive on
        its own; pass ``timeout`` (seconds) to bound the wait — on expiry a
        :class:`~repro.exceptions.ServingError` is raised and nothing is
        written.

        The write is atomic (staging directory + rename): a cluster starting
        from ``path`` concurrently can never mmap a half-written snapshot.
        ``save_kwargs`` forward to :func:`repro.store.save_index` (e.g.
        ``generation=``).
        """
        from repro.store import save_index

        deadline = None if timeout is None else time.monotonic() + timeout
        drained = self.wait_for_maintenance(timeout)
        remaining = -1 if deadline is None else max(0.0, deadline - time.monotonic())
        if not (drained and self._install_lock.acquire(timeout=remaining)):
            raise ServingError(
                f"export_snapshot timed out after {timeout}s waiting for "
                "the update stream to quiesce"
            )
        try:
            self._check_intact()
            epoch = self._epoch
            extras = dict(save_kwargs.pop("extras", None) or {})
            extras["epoch"] = epoch
            save_kwargs.setdefault("atomic", True)
            save_index(self.index, path, extras=extras, **save_kwargs)
        finally:
            self._install_lock.release()
        return epoch

    def _check_intact(self) -> None:
        if self._failure is not None:
            raise self._failure

    # ------------------------------------------------------------------
    # Maintenance path
    # ------------------------------------------------------------------
    def apply_batch(self, batch: UpdateBatch) -> UpdateReport:
        """Install ``batch`` on the calling thread; raises if the install fails.

        Returns once queries observe the new epoch.  Installs are serialised
        by a mutex; the :meth:`submit_batch` worker drains through this too.
        """
        if not self._running:
            raise EngineStoppedError("apply_batch on a stopped engine; call start()")
        started = time.perf_counter()
        with self._install_lock:
            self._check_intact()
            report = self._install(batch)
            self.update_reports.append(report)
        self.metrics.record_batch(time.perf_counter() - started)
        return report

    def submit_batch(self, batch: UpdateBatch) -> None:
        """Queue an update batch for the maintenance worker."""
        if not self._running:
            raise EngineStoppedError("submit_batch on a stopped engine; call start()")
        with self._pending_cond:
            self._pending += 1
        self._queue.put(batch)

    def wait_for_maintenance(self, timeout: Optional[float] = None) -> bool:
        """Block until every queued batch is fully installed."""
        with self._pending_cond:
            return self._pending_cond.wait_for(lambda: self._pending == 0, timeout)

    @property
    def pending_batches(self) -> int:
        with self._pending_cond:
            return self._pending

    def _maintenance_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                break
            try:
                self.apply_batch(item)
            except Exception as exc:  # keep the worker alive for later batches
                self.maintenance_errors.append(exc)
            finally:
                with self._pending_cond:
                    self._pending -= 1
                    self._pending_cond.notify_all()

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def serve(self, source: int, target: int) -> QueryResult:
        """Serve one query on the calling thread.

        Raises :class:`~repro.exceptions.QueryRejectedError` when admission
        control sheds the query.
        """
        return self._serve(((source, target),), "serve")[0]

    def serve_batch(self, pairs: Iterable[QueryPair]) -> BatchResult:
        """Serve a whole batch of queries against a *single* epoch.

        One admission decision, one backend call and one metrics record for
        the whole batch instead of per-pair overhead.  The returned
        :class:`BatchResult` carries the one epoch every answer is consistent
        with and the amortised per-query latency; it indexes and iterates as
        ``QueryResult`` rows.

        Raises :class:`~repro.exceptions.QueryRejectedError` when admission
        control sheds the batch (the batch is admitted or shed as a whole).
        """
        return self._serve(pairs, "serve_batch")

    def _serve(self, pairs: Iterable[QueryPair], span: str) -> BatchResult:
        """Validate → admit → answer → record: the one serving template."""
        started = time.perf_counter()
        self._check_intact()
        pair_list: List[QueryPair] = list(pairs)
        # Validate up front: backends skip the vertex checks of
        # ``index.query`` and would otherwise surface raw KeyErrors.
        missing = self.graph.missing_endpoint(pair_list)
        if missing is not None:
            raise VertexNotFoundError(missing)
        if not pair_list:
            return BatchResult([], [], self._epoch, 0.0, "")
        decision = self.admission.decide(inflight=self._inflight)
        if not decision.admitted:
            self.metrics.record_shed()
            raise QueryRejectedError(decision.reason)
        with self._state:
            self._inflight += 1
        try:
            result = self._answer(pair_list, started)
        finally:
            with self._state:
                self._inflight -= 1
        counts = result.stage_counts()
        self.metrics.record_queries(
            counts, result.latency_seconds, counts.get(CACHE_STAGE, 0)
        )
        self.admission.observe_latency(result.latency_seconds)
        if obs.is_enabled():
            obs.record_span(
                f"{self._obs_prefix}.{span}", time.perf_counter() - started,
                size=len(pair_list), stage=result.stage, epoch=result.epoch,
            )
        return result

    def query(self, source: int, target: int) -> float:
        """Distance-only convenience wrapper around :meth:`serve`."""
        return self._serve(((source, target),), "serve").distances[0]

    def query_batch(self, pairs: Iterable[QueryPair]) -> List[float]:
        """Distance-only convenience wrapper around :meth:`serve_batch`."""
        return self.serve_batch(pairs).distances

    def serve_one_to_many(self, source: int, targets: Iterable[int]) -> BatchResult:
        """Serve one source against many targets at a single epoch.

        Rides the batch plane: same-source pairs amortise into the index's
        native one-to-many path (in the cluster, on the one shard that owns
        the source's partition).
        """
        return self.serve_batch(zip(repeat(source), targets))

    def query_one_to_many(self, source: int, targets: Iterable[int]) -> List[float]:
        """Distance-only convenience wrapper around :meth:`serve_one_to_many`."""
        return self.serve_one_to_many(source, targets).distances

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Metrics, epoch and maintenance state (backends merge in their own)."""
        snapshot = self.metrics.snapshot()
        snapshot["epoch"] = self._epoch
        snapshot["qps"] = self.metrics.qps()
        snapshot["lifetime_qps"] = self.metrics.lifetime_qps()
        snapshot["maintenance_errors"] = [repr(exc) for exc in self.maintenance_errors]
        return snapshot
