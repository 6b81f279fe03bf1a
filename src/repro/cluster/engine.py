"""Sharded multi-process serving: one maintainer, N store readers.

:class:`ClusterEngine` is the sharded backend of
:class:`~repro.serving.core.EngineCore` — the same surface as
:class:`~repro.serving.engine.ServingEngine`, inherited rather than copied —
but answers through N reader *processes* instead of threads.  The engine's
own process is the **maintainer**: it loads the one mutable index from the
snapshot and installs every update batch on it, once.  Each reader loads the
same snapshot with :func:`repro.store.load_index` (the heavy flat arrays are
mapped read-only from one file) and never mutates it; after every batch the
maintainer writes the stores its ``query_many`` reads as a *store
generation* and the readers map those.  Unlike threads, readers execute
queries on distinct cores, which is what lets measured QPS honestly exceed
Lemma 1's single-core bound (DESIGN.md §11).

Consistency model
-----------------

The engine counts epochs exactly like the single-process engine: epoch ``e``
is the state after ``e`` committed update batches.  Installing batch
``e + 1`` is a two-phase barrier:

* **Prepare:** the maintainer applies the batch and writes the epoch
  ``e + 1`` store generation (``stores-NNNNNN`` under ``publish_dir``,
  atomic rename).  No lock is held against queries: readers keep answering
  epoch ``e`` from stores nothing mutates.
* **Commit:** under the dispatch lock — which every scatter/gather also
  takes, and pipes are FIFO — every reader adopts the generation, then the
  engine commits the epoch.  A batch the graph rejects raises before the
  prepare writes anything, so no epoch and no generation follow it.

Every served batch therefore observes one epoch across all readers, and the
engine verifies it: each reader reports the epoch it answered at, and a
mismatch raises :class:`~repro.exceptions.ClusterError` rather than
returning a torn read.  Only the current and the previous store generation
are kept on disk; full snapshots are written on request
(:meth:`ClusterEngine.publish_snapshot`, :meth:`~ClusterEngine.export_snapshot`).
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from typing import Dict, List, Optional

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

from repro import obs
from repro.base import QueryPair, UpdateReport
from repro.exceptions import ClusterError, ClusterWorkerError, EngineStoppedError
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
from repro.serving.core import MIXED_STAGE, BatchResult, EngineCore
from repro.store import load_index, read_manifest, save_index, save_stores

from repro.cluster.dispatcher import DEFAULT_WORKER_TIMEOUT, Dispatcher
from repro.cluster.routing import ShardRouter

_STORES = "stores-"


class ClusterEngine(EngineCore):
    """Serve shortest-distance queries from N reader processes.

    Parameters
    ----------
    snapshot_path:
        Snapshot directory the maintainer and every reader load (written by
        :func:`repro.store.save_index` or :meth:`export_snapshot`).
    num_workers:
        Reader process count.
    response_qos / admission:
        Cluster-wide admission control, decided once per batch at the
        dispatcher — readers never shed independently, so a batch is admitted
        or rejected as a whole exactly like the single-process engine.
    publish_dir:
        Where store generations and published full snapshots go (default:
        ``<snapshot_path>-gens``).
    worker_timeout:
        Seconds a reader may stay silent before the in-flight call fails
        with :class:`~repro.exceptions.ClusterWorkerError` and the reader is
        respawned into the newest store generation.
    snapshot_limit:
        Per-epoch graph snapshots retained for :meth:`graph_at`
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
        worker_timeout: float = DEFAULT_WORKER_TIMEOUT,
        snapshot_limit: int = 16,
        start_method: Optional[str] = None,
    ) -> None:
        if np is None:
            raise ClusterError(
                "ClusterEngine needs numpy: readers map the maintainer's "
                "stores from npz store generations"
            )
        manifest = read_manifest(snapshot_path)
        self.snapshot_path = snapshot_path
        self.method = manifest.get("method")
        self.publish_dir = (
            publish_dir
            if publish_dir is not None
            else snapshot_path.rstrip("/\\") + "-gens"
        )
        self._dispatcher = Dispatcher(
            snapshot_path,
            num_workers,
            worker_timeout=worker_timeout,
            start_method=start_method,
        )
        #: The maintainer: the cluster's one mutable index (its graph is the
        #: engine's graph).  Only ``_install`` mutates it.
        self.index = load_index(snapshot_path, use_kernels=True)
        self._maintainer_is_base = True
        self._router = ShardRouter(
            num_workers,
            {
                vertex: partition
                for vertex in self.index.graph.vertices()
                if (partition := self.index.vertex_partition(vertex)) is not None
            },
        )
        self._generation = int(manifest.get("generation", 0))
        #: Serialises dispatcher-side work: a scatter/gather, an adopt +
        #: commit, a stats pull.
        self._dispatch = threading.Lock()
        self._published: List[str] = []
        super().__init__(response_qos, admission, snapshot_limit)

    @classmethod
    def from_index(cls, index, workdir: str, **engine_kwargs) -> "ClusterEngine":
        """Persist ``index`` as generation 0 under ``workdir`` and cluster it.

        Convenience for tests/benchmarks that start from an in-process index
        rather than an existing snapshot; store generations and published
        snapshots land next to generation 0 in ``workdir``.
        """
        path = os.path.join(workdir, "gen-000000")
        save_index(index, path, atomic=True, generation=0, extras={"epoch": 0})
        engine_kwargs.setdefault("publish_dir", workdir)
        return cls(path, **engine_kwargs)

    def _register_obs_gauges(self) -> None:
        super()._register_obs_gauges()
        registry = obs.registry()
        registry.gauge(
            "repro_cluster_workers", "Configured reader process count"
        ).set_function(lambda: self._dispatcher.num_workers)
        registry.gauge(
            "repro_cluster_generation", "Latest published full snapshot generation"
        ).set_function(lambda: self._generation)
        registry.gauge(
            "repro_cluster_store_generation",
            "Epoch of the store generation the readers answer from",
        ).set_function(lambda: self._dispatcher.generation[0])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _start_backend(self) -> None:
        """Fork the reader pool; until a batch is installed the maintainer
        is the base snapshot, which the readers then inherit."""
        with obs.span("cluster.start", workers=self._dispatcher.num_workers):
            self._dispatcher.start(self.index if self._maintainer_is_base else None)

    def _stop_backend(self) -> None:
        """Stop every reader; no orphans remain."""
        self._dispatcher.stop()

    @property
    def num_workers(self) -> int:
        return self._dispatcher.num_workers

    @property
    def current_generation(self) -> int:
        return self._generation

    @property
    def graph(self) -> Graph:
        """The maintainer's graph (at the current epoch between installs)."""
        return self.index.graph

    @property
    def published_snapshots(self) -> List[str]:
        return list(self._published)

    @property
    def partition_aware(self) -> bool:
        return self._router.partition_aware

    # ------------------------------------------------------------------
    # Query plane
    # ------------------------------------------------------------------
    # ServingEngine's batch plane calls this ``query_batch``; the index-level
    # name is ``query_many`` — the cluster answers to both.
    query_many = EngineCore.query_batch

    def _answer(self, pair_list: List[QueryPair], started: float) -> BatchResult:
        """Scatter the batch across the readers and gather at one epoch.

        The batch is split by the partition-aware router and the readers
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
        """Apply ``batch`` once on the maintainer, then flip every reader.

        Returns the maintainer's own report — the stages and
        ``parallel_times`` :class:`~repro.serving.engine.ServingEngine`
        reports for the same method.  A reader lost mid-adopt is respawned
        into the new generation, so the barrier closes regardless
        (DESIGN.md §11, failure model).  Any other failure once the
        maintainer holds the batch fails the engine for good.
        """
        epoch = self._epoch + 1
        self._maintainer_is_base = False
        # Prepare, outside the dispatch lock: readers keep answering the
        # current epoch from immutable stores meanwhile.  A batch the graph
        # rejects raises here, with nothing written.
        with obs.span("cluster.apply_batch", epoch=epoch, updates=len(batch)):
            report = self.index.apply_batch(batch)
        try:
            path = os.path.join(self.publish_dir, f"{_STORES}{epoch:06d}")
            with obs.span("cluster.write_stores", epoch=epoch):
                save_stores(self.index, path, epoch)
            # Commit: from here on queries observe (and verify) the new epoch.
            with self._dispatch, obs.span("cluster.adopt", epoch=epoch):
                epochs = set(self._dispatcher.adopt(epoch, path).values())
                if epochs != {epoch}:
                    raise ClusterError(
                        f"adopt barrier broke: expected every reader at epoch "
                        f"{epoch}, got {sorted(epochs)}"
                    )
                self._commit_epoch(epoch)
        except Exception as exc:
            # The maintainer carries the batch and cannot take it back, so no
            # later epoch can be committed truthfully: the cluster stops
            # serving and installing until it is restarted from a snapshot.
            self._failure = ClusterError(
                f"cluster failed: epoch {epoch} was applied on the maintainer "
                f"but not committed ({exc!r}); restart it from a snapshot"
            )
            raise self._failure from exc
        self._retire_store_generations(epoch)
        return report

    def _retire_store_generations(self, epoch: int) -> None:
        """Delete every store generation but ``epoch``'s and the previous
        one (a reader may still map that one mid-flip)."""
        keep = {f"{_STORES}{e:06d}" for e in (epoch, epoch - 1)}
        for name in os.listdir(self.publish_dir):
            if name.lstrip(".").startswith(_STORES) and name not in keep:
                shutil.rmtree(os.path.join(self.publish_dir, name), ignore_errors=True)

    # ------------------------------------------------------------------
    # Full snapshots
    # ------------------------------------------------------------------
    def publish_snapshot(self) -> str:
        """Write the maintainer's index at the current epoch as the next full
        snapshot generation (``gen-NNNNNN`` under ``publish_dir``): a base a
        new cluster can start from."""
        if not self._running:
            raise EngineStoppedError("publish_snapshot on a stopped cluster")
        with self._install_lock:
            self._check_intact()
            generation = self._generation + 1
            path = os.path.join(self.publish_dir, f"gen-{generation:06d}")
            with obs.span("cluster.publish", generation=generation, epoch=self._epoch):
                save_index(
                    self.index, path, atomic=True, generation=generation,
                    extras={"epoch": self._epoch},
                )
            self._generation = generation
            self._published.append(path)
        return path

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def worker_stats(self) -> List[Dict[str, object]]:
        """Per-reader counters, pulled live from every reader.

        With ``repro.obs`` enabled each reader's counters are re-exported as
        ``repro_cluster_worker_*`` gauges (labelled by worker id), so the
        process-wide registry sees the whole cluster even though the readers
        meter in their own processes.
        """
        rows: List[Dict[str, object]] = []
        with self._dispatch:
            for worker_id in self._dispatcher.worker_ids():
                try:
                    rows.append(self._dispatcher.request(worker_id, "stats"))
                except ClusterWorkerError:
                    continue  # respawned; fresh reader reports zeros next pull
        if obs.is_enabled():
            registry = obs.registry()
            for row in rows:
                for key in ("queries_served", "adopts", "epoch"):
                    registry.gauge(
                        f"repro_cluster_worker_{key}",
                        f"Per-reader {key.replace('_', ' ')}",
                        worker=row["worker"],
                    ).set(row[key])
        return rows

    def stats(self) -> Dict[str, object]:
        """Merged dispatcher metrics, reader counters and epoch state."""
        snapshot = super().stats()
        snapshot["workers"] = self.worker_stats()
        snapshot["num_workers"] = self._dispatcher.num_workers
        snapshot["respawns"] = self._dispatcher.respawns
        snapshot["generation"] = self._generation
        snapshot["store_generation"] = self._dispatcher.generation[0]
        snapshot["published_snapshots"] = list(self._published)
        snapshot["partition_aware"] = self.partition_aware
        return snapshot

    # ------------------------------------------------------------------
    # Failure injection (robustness tests)
    # ------------------------------------------------------------------
    def inject_worker_crash(
        self, worker_id: int, exitcode: int = 13, on: Optional[str] = None
    ) -> None:
        """Make one reader die — now, or when command ``on`` next reaches it
        (fire-and-forget test hook)."""
        self._dispatcher._send(
            self._dispatcher._handles[worker_id], "_crash", (exitcode, on)
        )

    def inject_worker_hang(
        self, worker_id: int, seconds: float, on: Optional[str] = None
    ) -> None:
        """Make one reader sleep through its timeout — now, or when command
        ``on`` next reaches it (fire-and-forget test hook)."""
        self._dispatcher._send(
            self._dispatcher._handles[worker_id], "_hang", (seconds, on)
        )
