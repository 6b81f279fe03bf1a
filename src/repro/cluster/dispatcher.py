"""Reader-process management for the cluster engine.

The :class:`Dispatcher` owns the reader pool: it forks N processes (each
loading the shared base snapshot via ``repro.cluster.worker``), routes
per-reader sub-batches through their pipes, enforces liveness (reply timeout
+ ``is_alive`` check), and respawns dead or hung readers straight into the
newest store generation — so a respawned reader rejoins at exactly the
cluster's current epoch.

Concurrency model: the dispatcher itself is *not* thread-safe — the
:class:`~repro.cluster.engine.ClusterEngine` serializes access under its
dispatch lock.  Parallelism comes from the worker processes: a scatter sends
every sub-batch before gathering any reply, so all shards compute
concurrently while the dispatcher blocks on the slowest one.

Failure model: a worker that dies, hangs past ``worker_timeout`` or reports a
command error fails the in-flight batch with a typed
:class:`~repro.exceptions.ClusterWorkerError` *after* being respawned, so the
next batch finds a full pool again.  Adopt broadcasts are the exception — the
generation is already the respawn target, so a reader lost mid-adopt comes
back at the new epoch and the barrier still closes (see
:meth:`Dispatcher.adopt`).
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.exceptions import ClusterError, ClusterWorkerError
from repro.obs.metrics import Counter

from repro.cluster.worker import worker_main

#: Default seconds a worker may stay silent before it is declared hung.
DEFAULT_WORKER_TIMEOUT = 60.0


def _pick_context(name: Optional[str] = None):
    """The multiprocessing context to spawn workers with.

    ``fork`` is preferred where available: it is fast and lets the page cache
    warmed by the dispatcher's own snapshot reads benefit the children
    immediately.  Everything sent over the pipes is picklable, so ``spawn``
    (macOS/Windows default) works identically, just with a slower start.
    """
    if name is not None:
        return multiprocessing.get_context(name)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class WorkerHandle:
    """One live worker process plus its dispatcher-side pipe end."""

    __slots__ = ("worker_id", "process", "conn")

    def __init__(self, worker_id: int, process, conn) -> None:
        self.worker_id = worker_id
        self.process = process
        self.conn = conn

    def is_alive(self) -> bool:
        return self.process.is_alive()


class Dispatcher:
    """Spawn, talk to, supervise and respawn the cluster's worker pool."""

    def __init__(
        self,
        snapshot_path: str,
        num_workers: int,
        worker_timeout: float = DEFAULT_WORKER_TIMEOUT,
        spawn_timeout: float = 120.0,
        start_method: Optional[str] = None,
    ) -> None:
        if num_workers < 1:
            raise ClusterError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.worker_timeout = worker_timeout
        self.spawn_timeout = spawn_timeout
        #: The base snapshot every reader loads.
        self.snapshot_path = snapshot_path
        #: ``(epoch, path)`` of the newest store generation, which a
        #: (re)spawned reader adopts before answering (no path at epoch 0).
        self.generation: Tuple[int, Optional[str]] = (0, None)
        #: Readers respawned so far (the cluster installs it in the registry).
        self.respawns = Counter("repro_cluster_respawns_total")
        self._ctx = _pick_context(start_method)
        self._handles: Dict[int, WorkerHandle] = {}
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, base_index=None) -> None:
        """Launch the pool and await every reader's readiness.

        ``base_index`` is the base snapshot already loaded in this process
        and not modified since; under fork the readers inherit it instead of
        loading the snapshot again.
        """
        if self._started:
            return
        self._started = True
        if self._ctx.get_start_method() != "fork":
            base_index = None  # would be pickled: loading is cheaper
        try:
            # Launch every reader before awaiting any, so the loads overlap.
            for worker_id in range(self.num_workers):
                self._handles[worker_id] = self._launch(worker_id, base_index)
            for handle in self._handles.values():
                self._await_ready(handle)
        except Exception:
            self.stop()
            raise

    def stop(self, timeout: float = 5.0) -> None:
        """Shut every worker down; no orphan processes survive this call."""
        handles, self._handles = self._handles, {}
        self._started = False
        for handle in handles.values():
            try:
                handle.conn.send(("shutdown", None))
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + timeout
        for handle in handles.values():
            handle.process.join(max(0.0, deadline - time.monotonic()))
            self._destroy(handle)  # escalates only past the graceful deadline

    def worker_ids(self) -> List[int]:
        return sorted(self._handles)

    def processes(self) -> List[object]:
        """Live process handles (tests assert none survive ``stop``)."""
        return [handle.process for handle in self._handles.values()]

    # ------------------------------------------------------------------
    # Spawning and respawning
    # ------------------------------------------------------------------
    def _launch(self, worker_id: int, base_index=None) -> WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, worker_id, self.snapshot_path, self.generation, base_index),
            name=f"repro-shard-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return WorkerHandle(worker_id, process, parent_conn)

    def _await_ready(self, handle: WorkerHandle) -> None:
        """Readiness check: the ping only returns once the reader loaded the
        base snapshot and adopted the newest generation, so it must report
        that generation's epoch."""
        reply = self._request(handle, "ping", None, timeout=self.spawn_timeout)
        if reply["epoch"] != self.generation[0]:
            raise ClusterError(
                f"worker {handle.worker_id} started at epoch {reply['epoch']}, "
                f"expected {self.generation[0]}"
            )

    def _destroy(self, handle: WorkerHandle) -> None:
        """Tear one worker down hard: close its pipe, terminate (then kill)
        it if still alive, and release the process object's resources."""
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(1.0)
            if handle.process.is_alive():  # pragma: no cover - last resort
                handle.process.kill()
                handle.process.join(1.0)
        if hasattr(handle.process, "close"):
            handle.process.close()  # semaphores, pidfd

    def _respawn(self, worker_id: int, reason: str) -> None:
        """Replace a failed worker with a fresh one at the current epoch."""
        started = time.perf_counter()
        old = self._handles.pop(worker_id, None)
        if old is not None:
            self._destroy(old)
        handle = self._launch(worker_id)
        try:
            self._await_ready(handle)
        except Exception:
            self._destroy(handle)
            raise
        self._handles[worker_id] = handle
        self.respawns.inc()
        obs.record_span(
            "cluster.respawn", time.perf_counter() - started,
            worker=worker_id, reason=reason,
        )

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _request(
        self, handle: WorkerHandle, command: str, payload, timeout: Optional[float]
    ):
        """One send/recv round trip; raises ``ClusterWorkerError`` untyped
        (without respawning — callers own the recovery policy)."""
        self._send(handle, command, payload)
        return self._recv(handle, command, timeout)

    def _send(self, handle: WorkerHandle, command: str, payload) -> None:
        try:
            handle.conn.send((command, payload))
        except (OSError, ValueError) as exc:
            raise ClusterWorkerError(
                handle.worker_id, f"pipe closed sending {command!r}: {exc}"
            ) from exc

    def _recv(self, handle: WorkerHandle, command: str, timeout: Optional[float]):
        budget = self.worker_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                alive = handle.is_alive()
                raise ClusterWorkerError(
                    handle.worker_id,
                    f"{'hung (alive but silent)' if alive else 'died'} "
                    f"after {budget:.1f}s awaiting {command!r} reply",
                )
            try:
                # Bounded poll so a worker that dies *without* closing the
                # pipe (SIGKILL) is still detected by the liveness check.
                if handle.conn.poll(min(remaining, 0.05)):
                    status, result = handle.conn.recv()
                    break
            except (EOFError, OSError) as exc:
                raise ClusterWorkerError(
                    handle.worker_id, f"pipe closed awaiting {command!r}: {exc}"
                ) from exc
            if not handle.is_alive() and not handle.conn.poll(0):
                raise ClusterWorkerError(
                    handle.worker_id,
                    f"died (exitcode {handle.process.exitcode}) awaiting {command!r}",
                )
        if status != "ok":
            raise ClusterWorkerError(handle.worker_id, f"command {command!r}: {result}")
        return result

    def request(
        self, worker_id: int, command: str, payload=None, timeout: Optional[float] = None
    ):
        """Round trip to one worker, with the standard recovery policy:
        on failure the worker is respawned, then the error propagates."""
        handle = self._handles.get(worker_id)
        if handle is None:
            raise ClusterError(f"no worker {worker_id} (cluster not started?)")
        try:
            return self._request(handle, command, payload, timeout)
        except ClusterWorkerError as exc:
            self._respawn(worker_id, exc.reason)
            raise

    def _scatter(
        self, requests: Dict[int, Tuple[str, object]], timeout: Optional[float] = None
    ) -> Tuple[Dict[int, object], Dict[int, ClusterWorkerError]]:
        """Send every request before gathering any reply.

        Always drains a reply (or a failure) from *every* worker it reached,
        so pipes never hold stale responses for the next batch.  Returns
        ``(results, failures)`` keyed by worker id.
        """
        results: Dict[int, object] = {}
        failures: Dict[int, ClusterWorkerError] = {}
        sent: List[int] = []
        for worker_id, (command, payload) in requests.items():
            handle = self._handles.get(worker_id)
            if handle is None:
                failures[worker_id] = ClusterWorkerError(worker_id, "no such worker")
                continue
            try:
                self._send(handle, command, payload)
                sent.append(worker_id)
            except ClusterWorkerError as exc:
                failures[worker_id] = exc
        for worker_id in sent:
            handle = self._handles[worker_id]
            command = requests[worker_id][0]
            try:
                results[worker_id] = self._recv(handle, command, timeout)
            except ClusterWorkerError as exc:
                failures[worker_id] = exc
        return results, failures

    # ------------------------------------------------------------------
    # Batch operations
    # ------------------------------------------------------------------
    def query_shards(
        self, slices: List[List], timeout: Optional[float] = None
    ) -> List[Tuple[int, List[float]]]:
        """Scatter slice ``i`` to worker ``i``, gather ``(epoch, distances)``
        per slice, in slice order.

        On any shard failure the surviving replies are discarded, every
        failed worker is respawned at the current epoch, and the first
        failure is raised — the in-flight batch fails as a whole, typed.
        """
        results, failures = self._scatter(
            {worker_id: ("query", pairs) for worker_id, pairs in enumerate(slices)},
            timeout,
        )
        if failures:
            for worker_id, failure in sorted(failures.items()):
                self._respawn(worker_id, failure.reason)
            raise next(iter(sorted(failures.items())))[1]
        return [results[worker_id] for worker_id in range(len(slices))]

    def adopt(self, epoch: int, path: str) -> Dict[int, int]:
        """Commit phase of the epoch barrier: every reader adopts the store
        generation at ``path`` and reports ``epoch``.

        The generation becomes the respawn target *before* the broadcast, so
        a reader that dies or hangs mid-adopt is respawned straight into it
        and the barrier still closes: after this call every reader is at
        ``epoch``, unconditionally.  Returns each reader's reported epoch.
        """
        self.generation = (epoch, path)
        results, failures = self._scatter(
            {wid: ("adopt", (epoch, path)) for wid in range(self.num_workers)}
        )
        for worker_id, failure in sorted(failures.items()):
            self._respawn(worker_id, failure.reason)
            results[worker_id] = epoch  # the readiness ping confirmed it
        return results
