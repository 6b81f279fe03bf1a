"""The cluster reader process: one reader answering from frozen stores.

``worker_main`` is the child-process entry point.  It loads the base
snapshot with :func:`repro.store.load_index` — every reader maps the *same*
mmap-backed ``.npz`` payload read-only — or, when the cluster first starts
under fork, inherits the maintainer's copy, adopts the newest store generation
the dispatcher hands it (none while the cluster is at epoch 0), and then
serves commands from its pipe until told to shut down.  A reader never
mutates its index: the maintainer applies every update batch and writes the
stores its queries read as a store generation; the reader maps those and
answers from them alone (:meth:`repro.base.DistanceIndex.adopt_stores`).

The protocol is strictly request/response over a ``multiprocessing`` pipe:
the dispatcher sends ``(command, payload)`` tuples and the worker answers
``("ok", result)`` or ``("err", message)``.  Pipes are FIFO, so every query
sent before an ``adopt`` is answered at the previous epoch — the per-reader
half of the cluster's epoch barrier.

Commands
--------
``ping``            liveness check; replies with worker id, epoch and pid.
``query``           answer a sub-batch of pairs via ``query_many`` at the
                    reader's current epoch.
``adopt``           map the store generation ``(epoch, path)`` and answer at
                    that epoch from now on (the commit of the barrier).
``stats``           serving counters for dispatcher-side aggregation.
``shutdown``        drain and exit cleanly.

``_crash`` and ``_hang`` are failure-injection hooks for the robustness
tests, sent without awaiting a reply: with payload ``(value, None)`` the
worker dies (exit code ``value``) or sleeps ``value`` seconds right away;
with ``(value, command)`` it does so when ``command`` next arrives, i.e. in
the middle of that command's round trip.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Optional, Tuple

from repro.exceptions import ClusterError


def _adopt(index, epoch: int, path: str) -> None:
    from repro.store import load_stores

    found, stores = load_stores(path, index.graph)
    if found != epoch:
        raise ClusterError(f"store generation {path!r} holds epoch {found}, not {epoch}")
    index.adopt_stores(stores)


def _spring(hook: str, value) -> None:
    """Run a failure-injection hook: ``_crash`` exits, ``_hang`` sleeps."""
    if hook == "_crash":
        os._exit(value)
    time.sleep(value)


def worker_main(
    conn,
    worker_id: int,
    snapshot_path: str,
    generation: Tuple[int, Optional[str]],
    base_index=None,
) -> None:
    """Child-process entry point (see module docstring).

    Parameters
    ----------
    conn:
        The worker end of a ``multiprocessing.Pipe``.
    worker_id:
        Stable shard id (survives respawns).
    snapshot_path:
        The cluster's base snapshot.
    generation:
        ``(epoch, path)`` of the newest store generation, adopted before the
        first command; ``path`` is ``None`` at epoch 0.
    base_index:
        The base snapshot already loaded, inherited by fork (the dispatcher
        passes it only while it is unmodified); ``None`` loads
        ``snapshot_path``.
    """
    from repro.store import load_index

    # Under fork this process inherits the maintainer's heap; freezing it
    # keeps the collector from touching — and so copying — its pages.
    gc.freeze()
    try:
        index = (
            base_index
            if base_index is not None
            else load_index(snapshot_path, use_kernels=True)
        )
        epoch, path = generation
        adopts = 0
        if path is not None:
            _adopt(index, epoch, path)
            adopts += 1
        queries_served = 0
        query_seconds = 0.0
        traps = {}

        while True:
            try:
                command, payload = conn.recv()
            except (EOFError, OSError):
                break  # dispatcher went away; die quietly
            if command in traps:
                _spring(*traps.pop(command))
            if command in ("_crash", "_hang"):
                value, on = payload
                if on is None:
                    _spring(command, value)
                else:
                    traps[on] = (command, value)
                continue  # fire-and-forget: no reply
            try:
                if command == "ping":
                    result = {"worker": worker_id, "epoch": epoch, "pid": os.getpid()}
                elif command == "query":
                    started = time.perf_counter()
                    distances = index.query_many(payload)
                    query_seconds += time.perf_counter() - started
                    queries_served += len(payload)
                    result = (epoch, distances)
                elif command == "adopt":
                    _adopt(index, *payload)
                    epoch = payload[0]
                    adopts += 1
                    result = epoch
                elif command == "stats":
                    result = {
                        "worker": worker_id,
                        "pid": os.getpid(),
                        "epoch": epoch,
                        "queries_served": queries_served,
                        "query_seconds": query_seconds,
                        "adopts": adopts,
                    }
                elif command == "shutdown":
                    conn.send(("ok", None))
                    break
                else:
                    conn.send(("err", f"unknown command {command!r}"))
                    continue
            except Exception as exc:  # report, keep serving later commands
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
                continue
            conn.send(("ok", result))
    finally:
        # Return normally rather than os._exit: multiprocessing's bootstrap
        # owns the exit (prints startup tracebacks, sets the exitcode) and
        # subprocess coverage only flushes when ``run()`` completes.
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
