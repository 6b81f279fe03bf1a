"""Sharded multi-process serving over a shared mmap snapshot.

:class:`ClusterEngine` is the sharded backend of
:class:`~repro.serving.core.EngineCore` — the same surface as
:class:`~repro.serving.engine.ServingEngine`, inherited rather than copied —
but answers through N worker *processes* instead of threads.
Each worker warm-starts with :func:`repro.store.load_index` from the same
snapshot directory, so the heavy flat arrays are mapped read-only from one
file and the per-worker incremental RSS is near zero; unlike threads, the
workers then execute queries on distinct cores, which is what lets measured
QPS honestly exceed Lemma 1's single-core bound (DESIGN.md §11 — threads in
one process only interleave under the GIL).

Consistency model
-----------------

The engine counts epochs exactly like the single-process engine: epoch ``e``
is the state after ``e`` committed update batches.  A single dispatch lock
serializes *dispatcher-side* work (scatter/gather is cheap; the shards do the
real work in parallel), which yields a two-phase epoch barrier:

* **Phase 1 (install):** the update batch is broadcast to every worker and
  the dispatcher waits for all acks.  Queries never interleave here — they
  would need the dispatch lock — and worker pipes are FIFO, so anything sent
  earlier was answered at the old epoch.
* **Phase 2 (commit):** only after every shard acked the new epoch does the
  engine bump its epoch, update the graph mirror, and resume dispatching
  queries (now tagged/verified against the new epoch).

Every serve_batch therefore observes one epoch across all shards — the
answers either all precede a batch or all follow it, never a mix — and the
engine double-checks by comparing the epoch each shard reports against its
own (a mismatch raises :class:`~repro.exceptions.ClusterError` rather than
returning a torn read).

After each maintenance window the engine republishes a fresh snapshot
generation (``gen-NNNNNN`` under ``publish_dir``; atomic rename, manifest
``generation`` field), so restarted or late-joining workers warm-start near
the current epoch and replay only the short journal since.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

from repro import obs
from repro.base import QueryPair, StageTiming, UpdateReport
from repro.exceptions import ClusterError, ClusterWorkerError, EngineStoppedError
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
from repro.serving.core import MIXED_STAGE, BatchResult, EngineCore
from repro.store import load_snapshot_graph, read_manifest

from repro.cluster.dispatcher import DEFAULT_WORKER_TIMEOUT, Dispatcher
from repro.cluster.routing import ShardRouter


class ClusterEngine(EngineCore):
    """Serve shortest-distance queries from N shard processes.

    Parameters
    ----------
    snapshot_path:
        Snapshot directory every worker warm-starts from (written by
        :func:`repro.store.save_index` or
        :meth:`~repro.serving.engine.ServingEngine.export_snapshot`).
    num_workers:
        Shard process count.
    response_qos / admission:
        Cluster-wide admission control, decided once per batch at the
        dispatcher — shards never shed independently, so a batch is admitted
        or rejected as a whole exactly like the single-process engine.
    publish_dir:
        Where republished snapshot generations go (default:
        ``<snapshot_path>-gens``).
    publish_interval:
        Republish a fresh generation after every N committed update batches
        (the paper's maintenance window); ``0`` disables republishing.
    worker_timeout:
        Seconds a shard may stay silent before the in-flight batch fails
        with :class:`~repro.exceptions.ClusterWorkerError` and the shard is
        respawned from the last published generation.
    snapshot_limit:
        Per-epoch graph-mirror snapshots retained for :meth:`graph_at`
        (correctness oracles); ``0`` disables.
    start_method:
        Multiprocessing start method override (default: fork where
        available).
    """

    _obs_prefix = "cluster"

    def __init__(
        self,
        snapshot_path: str,
        num_workers: int = 2,
        response_qos: Optional[float] = None,
        admission=None,
        publish_dir: Optional[str] = None,
        publish_interval: int = 1,
        worker_timeout: float = DEFAULT_WORKER_TIMEOUT,
        snapshot_limit: int = 16,
        start_method: Optional[str] = None,
    ) -> None:
        manifest = read_manifest(snapshot_path)
        self.snapshot_path = snapshot_path
        self.method = manifest.get("method")
        self.publish_interval = publish_interval
        self.publish_dir = (
            publish_dir
            if publish_dir is not None
            else snapshot_path.rstrip("/\\") + "-gens"
        )
        #: Dispatcher-side graph mirror: vertex validation + per-epoch oracles.
        self._graph = load_snapshot_graph(snapshot_path)
        self._generation = int(manifest.get("generation", 0))
        self._dispatcher = Dispatcher(
            snapshot_path,
            num_workers,
            base_epoch=0,
            worker_timeout=worker_timeout,
            start_method=start_method,
        )
        self._router: Optional[ShardRouter] = None
        #: Serialises dispatcher-side work: a scatter/gather, an update
        #: broadcast + commit, a publish.
        self._dispatch = threading.Lock()
        self._batches_since_publish = 0
        self._published: List[str] = []
        super().__init__(response_qos, admission, snapshot_limit)

    @classmethod
    def from_index(cls, index, workdir: str, **engine_kwargs) -> "ClusterEngine":
        """Persist ``index`` as generation 0 under ``workdir`` and cluster it.

        Convenience for tests/benchmarks that start from an in-process index
        rather than an existing snapshot; republished generations land next
        to generation 0 in ``workdir``.
        """
        from repro.store import save_index

        path = os.path.join(workdir, "gen-000000")
        save_index(index, path, atomic=True, generation=0, extras={"epoch": 0})
        engine_kwargs.setdefault("publish_dir", workdir)
        return cls(path, **engine_kwargs)

    def _register_obs_gauges(self) -> None:
        super()._register_obs_gauges()
        registry = obs.registry()
        registry.gauge(
            "repro_cluster_workers", "Configured shard process count"
        ).set_function(lambda: self._dispatcher.num_workers)
        registry.gauge(
            "repro_cluster_generation", "Latest published snapshot generation"
        ).set_function(lambda: self._generation)
        registry.gauge(
            "repro_cluster_journal_batches",
            "Batches a respawned worker must replay over the last generation",
        ).set_function(lambda: len(self._dispatcher.journal))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _start_backend(self) -> None:
        """Fork the shard pool and learn the partition map from one shard."""
        with obs.span("cluster.start", workers=self._dispatcher.num_workers):
            self._dispatcher.start()
            partition_map = self._dispatcher.request(
                self._dispatcher.worker_ids()[0], "partition_map"
            )
            self._router = ShardRouter(self._dispatcher.num_workers, partition_map)

    def _stop_backend(self) -> None:
        """Stop every shard; no orphans remain."""
        self._dispatcher.stop()

    @property
    def num_workers(self) -> int:
        return self._dispatcher.num_workers

    @property
    def current_generation(self) -> int:
        return self._generation

    @property
    def graph(self) -> Graph:
        """The dispatcher-side graph mirror at the current epoch."""
        return self._graph

    @property
    def published_snapshots(self) -> List[str]:
        return list(self._published)

    @property
    def partition_aware(self) -> bool:
        return self._router is not None and self._router.partition_aware

    # ------------------------------------------------------------------
    # Query plane
    # ------------------------------------------------------------------
    # ServingEngine's batch plane calls this ``query_batch``; the index-level
    # name is ``query_many`` — the cluster answers to both.
    query_many = EngineCore.query_batch

    def _answer(self, pair_list: List[QueryPair], started: float) -> BatchResult:
        """Scatter the batch across the shards and gather at one epoch.

        The batch is split by the partition-aware router and the shards
        answer concurrently; every reply must carry the dispatcher's epoch or
        the call raises :class:`~repro.exceptions.ClusterError` instead of
        returning a torn read.
        """
        if not self._running:
            raise EngineStoppedError("serve_batch on a stopped cluster; call start()")
        with self._dispatch:
            epoch = self._epoch
            assignments = self._router.split(pair_list)
            replies = self._dispatcher.query_shards(
                {
                    worker_id: [pair for _pos, pair in entries]
                    for worker_id, entries in assignments.items()
                }
            )
        epochs = {shard_epoch for shard_epoch, _distances in replies.values()}
        if epochs != {epoch}:
            raise ClusterError(
                f"torn epoch: dispatcher at {epoch}, shards answered at "
                f"{sorted(epochs)} — the barrier protocol was violated"
            )
        if len(assignments) == 1:
            [(worker_id, (_epoch, distances))] = replies.items()
            stage, stages = f"shard{worker_id}", None
        else:
            distances = [0.0] * len(pair_list)
            stage, stages = MIXED_STAGE, [""] * len(pair_list)
            for worker_id, entries in assignments.items():
                name = f"shard{worker_id}"
                for (position, _pair), distance in zip(entries, replies[worker_id][1]):
                    distances[position] = distance
                    stages[position] = name
        latency = (time.perf_counter() - started) / len(pair_list)
        return BatchResult(pair_list, distances, epoch, latency, stage, stages)

    # ------------------------------------------------------------------
    # Maintenance plane
    # ------------------------------------------------------------------
    def _install(self, batch: UpdateBatch) -> UpdateReport:
        """Install ``batch`` on every shard under the two-phase barrier.

        Blocks until every shard serves the new epoch, commits it, applies
        the batch to the graph mirror, and republishes a snapshot generation
        when the maintenance window closes.  A shard that dies mid-install is
        respawned with the batch folded into its replay journal, so the
        barrier closes regardless (DESIGN.md §11, failure model).
        """
        with self._dispatch:
            pending_epoch = self._epoch + 1
            with obs.span(
                "cluster.update_broadcast", epoch=pending_epoch, updates=len(batch)
            ):
                acks, _respawned = self._dispatcher.broadcast_update(batch)
            epochs = {epoch for epoch, _stages in acks.values()}
            if epochs - {pending_epoch}:
                raise ClusterError(
                    f"update barrier broke: expected every shard at epoch "
                    f"{pending_epoch}, got {sorted(epochs)}"
                )
            # Commit: from here on queries observe (and verify) the new epoch.
            batch.apply(self._graph)
            self._commit_epoch(pending_epoch)
            self._batches_since_publish += 1
            if (
                self.publish_interval > 0
                and self._batches_since_publish >= self.publish_interval
            ):
                self._publish_locked()
        return self._ack_report(acks)

    @staticmethod
    def _ack_report(acks: Dict[int, tuple]) -> UpdateReport:
        """Aggregate per-shard stage timings: every shard ran the same
        stages; the barrier pays the slowest, so report per-stage maxima."""
        report = UpdateReport()
        timings = [stages for _worker, (_epoch, stages) in sorted(acks.items())]
        if not timings:
            return report
        for position, (name, seconds) in enumerate(timings[0]):
            worst = max(
                (stages[position][1] for stages in timings if position < len(stages)),
                default=seconds,
            )
            report.stages.append(StageTiming(name=name, seconds=worst))
        return report

    # ------------------------------------------------------------------
    # Snapshot republish
    # ------------------------------------------------------------------
    def publish_snapshot(self) -> str:
        """Republish the current epoch as a fresh snapshot generation now."""
        if not self._running:
            raise EngineStoppedError("publish_snapshot on a stopped cluster")
        with self._dispatch:
            return self._publish_locked()

    def _publish_locked(self) -> str:
        generation = self._generation + 1
        path = os.path.join(self.publish_dir, f"gen-{generation:06d}")
        errors: List[ClusterWorkerError] = []
        with obs.span("cluster.publish", generation=generation, epoch=self._epoch):
            # Any shard can publish — they are replicas.  Walk the pool so a
            # publisher dying mid-write (it is respawned by ``request``) only
            # fails the publish if every shard fails.
            for worker_id in self._dispatcher.worker_ids():
                try:
                    epoch, published = self._dispatcher.request(
                        worker_id, "publish",
                        (path, generation, {"cluster_epoch": self._epoch}),
                    )
                except ClusterWorkerError as exc:
                    errors.append(exc)
                    continue
                if epoch != self._epoch:  # pragma: no cover - barrier guards this
                    raise ClusterError(
                        f"publisher {worker_id} at epoch {epoch}, cluster at "
                        f"{self._epoch}"
                    )
                self._generation = generation
                self._batches_since_publish = 0
                self._published.append(published)
                self._dispatcher.note_published(published, self._epoch)
                return published
        raise errors[0]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def worker_stats(self) -> List[Dict[str, object]]:
        """Per-shard counters, pulled live from every worker.

        With ``repro.obs`` enabled each shard's counters are re-exported as
        ``repro_cluster_worker_*`` gauges (labelled by worker id), so the
        process-wide registry sees the whole cluster even though the workers
        meter in their own processes.
        """
        rows: List[Dict[str, object]] = []
        with self._dispatch:
            for worker_id in self._dispatcher.worker_ids():
                try:
                    rows.append(self._dispatcher.request(worker_id, "stats"))
                except ClusterWorkerError:
                    continue  # respawned; fresh worker reports zeros next pull
        if obs.is_enabled():
            registry = obs.registry()
            for row in rows:
                for key in ("queries_served", "batches_applied", "epoch", "publishes"):
                    registry.gauge(
                        f"repro_cluster_worker_{key}",
                        f"Per-shard {key.replace('_', ' ')}",
                        worker=row["worker"],
                    ).set(row[key])
        return rows

    def stats(self) -> Dict[str, object]:
        """Merged dispatcher metrics, shard counters and epoch state."""
        snapshot = super().stats()
        snapshot["workers"] = self.worker_stats()
        snapshot["num_workers"] = self._dispatcher.num_workers
        snapshot["respawns"] = self._dispatcher.respawns
        snapshot["generation"] = self._generation
        snapshot["published_snapshots"] = list(self._published)
        snapshot["journal_batches"] = len(self._dispatcher.journal)
        snapshot["partition_aware"] = self.partition_aware
        return snapshot

    # ------------------------------------------------------------------
    # Failure injection (robustness tests)
    # ------------------------------------------------------------------
    def inject_worker_crash(self, worker_id: int, exitcode: int = 13) -> None:
        """Make one shard die mid-protocol (fire-and-forget test hook)."""
        self._dispatcher._send(
            self._dispatcher._handles[worker_id], "_crash", exitcode
        )

    def inject_worker_hang(self, worker_id: int, seconds: float) -> None:
        """Make one shard sleep through its timeout (fire-and-forget test hook)."""
        self._dispatcher._send(
            self._dispatcher._handles[worker_id], "_hang", seconds
        )
