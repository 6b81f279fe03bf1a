"""The asyncio network front end over the serving stack.

:class:`QueryServer` listens on a TCP socket, speaks the length-prefixed
frame protocol of :mod:`repro.server.protocol`, and answers through any
*backend* with the serving-engine surface — a single-process
:class:`~repro.serving.engine.ServingEngine` or a sharded
:class:`~repro.cluster.engine.ClusterEngine`.  This puts serialization,
scheduling and backpressure on the measured path, so throughput numbers are
end-to-end service numbers rather than in-process kernel microseconds.

Concurrency model
-----------------

The event loop owns all protocol state; backend calls block (engine locks,
shard round trips), so each admitted request runs on a bounded thread pool
via ``run_in_executor`` while the loop keeps decoding frames.  Clients may
pipeline: requests on one connection are answered out of order, matched by
the echoed ``seq``.

Backpressure (DESIGN.md §12)
----------------------------

Three conditions shed a request with a typed RETRY frame instead of queueing
it unboundedly — the HTTP-429 analogue:

* the **global in-flight cap** (``max_inflight``) is reached;
* the **per-connection in-flight cap** (``max_inflight_per_connection``) is
  reached — a slow or greedy client saturates its own connection, never the
  whole dispatcher;
* the backend's **Lemma-1 admission control** sheds the query
  (:class:`~repro.exceptions.QueryRejectedError`).

Every RETRY carries a ``queue_depth`` hint — the current in-flight count
plus the run of consecutive sheds since the last accepted request, so under
sustained overload successive hints increase monotonically — and a
``suggested_wait_seconds`` proportional to that depth times the recent
service-time estimate.

Shutdown drains: :meth:`stop` refuses new connections immediately, lets
every in-flight request finish and deliver its response, then closes the
remaining connections.  No admitted request is ever dropped.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Set, Tuple

from repro import obs
from repro.exceptions import (
    EdgeNotFoundError,
    FrameTooLargeError,
    InvalidWeightError,
    ProtocolError,
    QueryRejectedError,
    ReproError,
    ServerError,
)
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    OP_APPLY_BATCH,
    OP_DISTANCES,
    OP_ERROR,
    OP_NAMES,
    OP_ONE_TO_MANY,
    OP_PING,
    OP_QUERY,
    OP_QUERY_BATCH,
    OP_RESULT,
    OP_RETRY,
    OP_STATS,
    REQUEST_OPS,
    Frame,
    encode_frame,
    read_frame,
)


class _Connection:
    """Per-connection state: the writer, its lock, and the in-flight count."""

    __slots__ = ("writer", "lock", "inflight", "closed")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()
        self.inflight = 0
        self.closed = False

    async def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class QueryServer:
    """Serve the frame protocol over a serving-engine backend.

    Parameters
    ----------
    backend:
        A started :class:`~repro.serving.engine.ServingEngine` or
        :class:`~repro.cluster.engine.ClusterEngine` — the server speaks the
        :class:`~repro.serving.core.EngineCore` surface (``serve``,
        ``serve_batch``, ``serve_one_to_many``, ``apply_batch``, ``graph``,
        ``stats``, ``current_epoch``) and does not own the backend's lifecycle.
    host / port:
        Listen address; port 0 binds an ephemeral port (read it back from
        :attr:`address` after :meth:`start`).
    max_inflight:
        Global cap on concurrently executing requests; excess arrivals get
        RETRY frames.
    max_inflight_per_connection:
        Per-connection cap, strictly enforced before the global cap so one
        pipelining client cannot monopolise the executor.
    max_frame_bytes:
        Frame size cap, both directions.
    executor_threads:
        Thread-pool size for blocking backend calls (default:
        ``min(8, max_inflight)``).
    write_timeout:
        Seconds a response write may stall on a non-reading client before
        the connection is dropped (the response slot is freed either way).
    """

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        max_inflight_per_connection: int = 16,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        executor_threads: Optional[int] = None,
        write_timeout: float = 15.0,
    ) -> None:
        if max_inflight < 1:
            raise ServerError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_inflight_per_connection < 1:
            raise ServerError(
                "max_inflight_per_connection must be >= 1, "
                f"got {max_inflight_per_connection}"
            )
        self.backend = backend
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.max_inflight_per_connection = max_inflight_per_connection
        self.max_frame_bytes = max_frame_bytes
        self.write_timeout = write_timeout
        self._executor_threads = executor_threads or min(8, max_inflight)

        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._connections: Set[_Connection] = set()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._tasks: Set[asyncio.Task] = set()
        self._draining = False
        self._inflight = 0
        self._shed_streak = 0
        self._service_ewma = 0.0
        self._requests_total = 0
        self._retries_total = 0
        self._errors_total = 0
        self._connections_total = 0

        if obs.is_enabled():
            registry = obs.registry()
            registry.gauge(
                "repro_server_inflight", "Requests currently executing"
            ).set_function(lambda: self._inflight)
            registry.gauge(
                "repro_server_connections", "Open client connections"
            ).set_function(lambda: len(self._connections))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "QueryServer":
        """Bind the listen socket and start accepting (idempotent)."""
        if self._server is not None:
            return self
        self._draining = False
        self._executor = ThreadPoolExecutor(
            max_workers=self._executor_threads, thread_name_prefix="repro-server"
        )
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolves port 0 to the real port."""
        if self._server is None or not self._server.sockets:
            raise ServerError("server is not listening; call start()")
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    @property
    def is_serving(self) -> bool:
        return self._server is not None and not self._draining

    @property
    def inflight(self) -> int:
        return self._inflight

    async def stop(self) -> None:
        """Graceful drain: refuse new connects, finish in-flight, close."""
        if self._server is None:
            return
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        # Every admitted request completes and writes its response before the
        # connection goes away — zero dropped in-flight queries.
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        for conn in list(self._connections):
            await conn.close()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=5.0)
        self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def __aenter__(self) -> "QueryServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        if self._draining:
            # The listener is closing concurrently; anything that slipped in
            # gets a typed refusal rather than a silent hang.
            await self._safe_send(
                conn, OP_ERROR, 0,
                {"code": "shutting_down", "message": "server is draining"},
            )
            await conn.close()
            return
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._connections.add(conn)
        self._connections_total += 1
        obs.counter("repro_server_connections_total", "Accepted connections").inc()
        try:
            await self._read_loop(reader, conn)
        finally:
            self._connections.discard(conn)
            await conn.close()
            if task is not None:
                self._conn_tasks.discard(task)

    async def _read_loop(self, reader: asyncio.StreamReader, conn: _Connection) -> None:
        while True:
            try:
                frame = await read_frame(reader, self.max_frame_bytes)
            except ProtocolError as exc:
                # Malformed frame: answer with a typed error; keep the
                # connection only when the stream is provably still in sync.
                self._errors_total += 1
                obs.counter(
                    "repro_server_protocol_errors_total",
                    "Malformed frames received", code=exc.code,
                ).inc()
                await self._safe_send(
                    conn, OP_ERROR, exc.seq or 0,
                    {"code": exc.code, "message": str(exc)},
                )
                if exc.recoverable:
                    continue
                return
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return  # clean close: peer went away (possibly mid-frame)
            await self._handle_frame(conn, frame)

    async def _handle_frame(self, conn: _Connection, frame: Frame) -> None:
        if frame.op == OP_PING:
            await self._safe_send(
                conn, OP_RESULT, frame.seq,
                {"pong": True, "epoch": self.backend.current_epoch},
            )
            return
        if frame.op not in REQUEST_OPS:
            self._errors_total += 1
            await self._safe_send(
                conn, OP_ERROR, frame.seq,
                {"code": "unknown_op", "message": f"unknown op {frame.op:#x}"},
            )
            return
        if self._draining:
            await self._send_retry(conn, frame.seq, "draining")
            return
        if (
            conn.inflight >= self.max_inflight_per_connection
            or self._inflight >= self.max_inflight
        ):
            await self._send_retry(conn, frame.seq, "queue_full")
            return
        conn.inflight += 1
        self._inflight += 1
        task = asyncio.ensure_future(self._process(conn, frame))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------
    async def _process(self, conn: _Connection, frame: Frame) -> None:
        started = time.perf_counter()
        op_name = OP_NAMES[frame.op]
        loop = asyncio.get_running_loop()
        try:
            payload = await loop.run_in_executor(
                self._executor, self._execute, frame
            )
        except QueryRejectedError:
            # Admission control shed the query — backpressure, not failure.
            await self._send_retry(conn, frame.seq, "admission")
            return
        except ProtocolError as exc:
            self._errors_total += 1
            await self._safe_send(
                conn, OP_ERROR, frame.seq, {"code": exc.code, "message": str(exc)}
            )
            return
        except ReproError as exc:
            self._errors_total += 1
            code = _ERROR_CODES.get(type(exc).__name__, "request_failed")
            obs.counter(
                "repro_server_errors_total", "Typed request failures", code=code
            ).inc()
            await self._safe_send(
                conn, OP_ERROR, frame.seq, {"code": code, "message": str(exc)}
            )
            return
        except Exception as exc:  # never let a request kill the server
            self._errors_total += 1
            obs.counter(
                "repro_server_errors_total", "Typed request failures", code="internal"
            ).inc()
            await self._safe_send(
                conn, OP_ERROR, frame.seq,
                {"code": "internal", "message": f"{type(exc).__name__}: {exc}"},
            )
            return
        finally:
            conn.inflight -= 1
            self._inflight -= 1

        serve_seconds = time.perf_counter() - started
        self._shed_streak = 0
        self._requests_total += 1
        alpha = 0.2
        self._service_ewma = (
            serve_seconds
            if self._service_ewma == 0.0
            else (1 - alpha) * self._service_ewma + alpha * serve_seconds
        )
        await self._safe_send(conn, _RESPONSE_OPS.get(frame.op, OP_RESULT), frame.seq, payload)
        if obs.is_enabled():
            obs.record_span("server.serve", serve_seconds, op=op_name)
            obs.record_span(
                "server.request", time.perf_counter() - started, op=op_name
            )
            obs.counter(
                "repro_server_requests_total", "Completed requests", op=op_name
            ).inc()

    def _execute(self, frame: Frame):
        """Run one request against the backend (executor thread, blocking)."""
        op, payload = frame.op, frame.payload
        if op == OP_QUERY:
            source = _require_vertex(payload, "source", frame.seq)
            target = _require_vertex(payload, "target", frame.seq)
            result = self.backend.serve(source, target)
            return {
                "distance": result.distance,
                "epoch": result.epoch,
                "stage": result.stage,
                "from_cache": result.from_cache,
            }
        if op in (OP_QUERY_BATCH, OP_ONE_TO_MANY):
            # Packed ops: the codec already validated the column layout, and
            # the backend checks the vertices — columns in, columns out.
            if op == OP_QUERY_BATCH:
                result = self.backend.serve_batch(payload["pairs"])
            else:
                result = self.backend.serve_one_to_many(
                    payload["source"], payload["targets"]
                )
            return {"distances": result.distances, "epoch": result.epoch}
        if op == OP_APPLY_BATCH:
            batch = _require_batch(payload, frame.seq)
            # Validate against the live graph up front: installs are not
            # transactional, and a bad cluster broadcast would fail shards.
            graph = self.backend.graph
            for update in batch:
                if not graph.has_edge(update.u, update.v):
                    raise EdgeNotFoundError(update.u, update.v)
                if not (update.new_weight > 0):
                    raise InvalidWeightError(update.new_weight)
            # Synchronous: a failed install raises here (and only here), so
            # the error frame goes to the request that caused it.
            self.backend.apply_batch(batch)
            return {"epoch": self.backend.current_epoch, "applied": len(batch)}
        if op == OP_STATS:
            return {"server": self.stats(), "backend": self.backend.stats()}
        raise ProtocolError(  # pragma: no cover - guarded by _handle_frame
            f"unhandled op {op:#x}", code="unknown_op", seq=frame.seq
        )

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    async def _send_retry(self, conn: _Connection, seq: int, reason: str) -> None:
        self._shed_streak += 1
        self._retries_total += 1
        depth = self._inflight + self._shed_streak
        wait = min(1.0, max(0.001, depth * max(self._service_ewma, 0.0005)))
        obs.counter(
            "repro_server_retries_total", "RETRY frames sent", reason=reason
        ).inc()
        await self._safe_send(
            conn, OP_RETRY, seq,
            {
                "reason": reason,
                "queue_depth": depth,
                "suggested_wait_seconds": wait,
            },
        )

    async def _safe_send(
        self, conn: _Connection, op: int, seq: int, payload
    ) -> None:
        """Write one frame; a dead or stalled peer drops the connection."""
        if conn.closed:
            return
        started = time.perf_counter()
        try:
            data = encode_frame(op, seq, payload, self.max_frame_bytes)
        except FrameTooLargeError as exc:
            # The reply outgrew the cap (a packed reply is twice its request):
            # the request still gets its typed answer, and the stream stays
            # in sync because nothing of the oversized frame was written.
            self._errors_total += 1
            op = OP_ERROR
            data = encode_frame(op, seq, {"code": exc.code, "message": str(exc)})
        try:
            async with conn.lock:
                conn.writer.write(data)
                await asyncio.wait_for(conn.writer.drain(), self.write_timeout)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            await conn.close()
        else:
            if obs.is_enabled():
                obs.record_span(
                    "server.encode", time.perf_counter() - started, op=OP_NAMES[op]
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Server-side counters (the ``stats`` op returns these + backend's)."""
        return {
            "inflight": self._inflight,
            "connections": len(self._connections),
            "requests_total": self._requests_total,
            "retries_total": self._retries_total,
            "errors_total": self._errors_total,
            "connections_total": self._connections_total,
            "draining": self._draining,
            "max_inflight": self.max_inflight,
            "max_inflight_per_connection": self.max_inflight_per_connection,
        }


#: Request op → response op of its success frame (default: ``OP_RESULT``).
_RESPONSE_OPS = {OP_QUERY_BATCH: OP_DISTANCES, OP_ONE_TO_MANY: OP_DISTANCES}

#: Exception-name → wire error code for typed ReproError failures.
_ERROR_CODES = {
    "VertexNotFoundError": "vertex_not_found",
    "EdgeNotFoundError": "edge_not_found",
    "InvalidWeightError": "invalid_weight",
    "EngineStoppedError": "engine_stopped",
    "ClusterWorkerError": "cluster_worker_failed",
    "ClusterError": "cluster_failed",
    "ServingError": "serving_failed",
    "GraphError": "graph_error",
}


# ----------------------------------------------------------------------
# Payload validation (typed bad_payload errors, never raw KeyError/TypeError)
# ----------------------------------------------------------------------
def _bad_payload(message: str, seq: int) -> ProtocolError:
    return ProtocolError(message, code="bad_payload", seq=seq, recoverable=True)


def _require_mapping(payload, seq: int) -> dict:
    if not isinstance(payload, dict):
        raise _bad_payload(
            f"payload must be a JSON object, got {type(payload).__name__}", seq
        )
    return payload


def _as_vertex(value, context: str, seq: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad_payload(f"{context} must be an integer vertex id, got {value!r}", seq)
    return value


def _require_vertex(payload, key: str, seq: int) -> int:
    mapping = _require_mapping(payload, seq)
    if key not in mapping:
        raise _bad_payload(f"payload is missing required key {key!r}", seq)
    return _as_vertex(mapping[key], key, seq)


def _require_batch(payload, seq: int) -> UpdateBatch:
    mapping = _require_mapping(payload, seq)
    raw = mapping.get("updates")
    if not isinstance(raw, list):
        raise _bad_payload("'updates' must be a list of [u, v, old, new]", seq)
    updates = []
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 4:
            raise _bad_payload(
                f"each update must be [u, v, old_weight, new_weight], got {item!r}", seq
            )
        u = _as_vertex(item[0], "u", seq)
        v = _as_vertex(item[1], "v", seq)
        try:
            old_weight = float(item[2])
            new_weight = float(item[3])
        except (TypeError, ValueError):
            raise _bad_payload(f"update weights must be numbers, got {item!r}", seq)
        updates.append(EdgeUpdate(u, v, old_weight, new_weight))
    return UpdateBatch(updates)
