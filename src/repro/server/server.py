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

The event loop owns all protocol state.  Each connection's read loop takes
whatever the socket delivered, splits out every complete frame and handles
them without awaiting in between; backend calls block (engine locks, shard
round trips), so they run on a bounded thread pool via ``run_in_executor``.
Clients may pipeline: requests on one connection are answered out of order,
matched by the echoed ``seq``.

Every query frame (``QUERY_BATCH``, ``ONE_TO_MANY``) is **gathered**: its
pairs join a server-wide list, and the list is served as one
``backend.serve_batch`` — one admission decision, one epoch, one executor
hop, one write per connection — then sliced back into one ``DISTANCES``
reply per frame.  At most one gathered batch is on the executor; frames that
arrive while it runs form the next one, so batch size follows load (one
frame on an idle server) with no timer and nothing to tune.  Caps, ``seq``
echo and typed errors stay per frame: a bad frame never fails its
neighbours.

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
from itertools import accumulate, chain
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.exceptions import (
    ProtocolError,
    QueryRejectedError,
    ReproError,
    ServerError,
)
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.obs.metrics import Counter, LabeledCounter
from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    OP_APPLY_BATCH,
    OP_DISTANCES,
    OP_ERROR,
    OP_NAMES,
    OP_ONE_TO_MANY,
    OP_PING,
    OP_QUERY_BATCH,
    OP_RESULT,
    OP_RETRY,
    OP_STATS,
    READ_BYTES,
    REQUEST_OPS,
    Frame,
    FrameSplitter,
    encode_frame,
    needs_drain,
)

#: One reply frame before encoding: ``(op, seq, payload)``.
_Reply = Tuple[int, int, object]
#: One gathered query frame: its connection, ``seq`` and pairs.
_Gathered = Tuple["_Connection", int, List[Tuple[int, int]]]


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
        :class:`~repro.serving.core.EngineCore` surface (``serve_batch``,
        ``apply_batch``, ``stats``, ``current_epoch``) and does not own the
        backend's lifecycle.
    host / port:
        Listen address; port 0 binds an ephemeral port (read it back from
        :attr:`address` after :meth:`start`).
    max_inflight:
        Global cap on admitted requests (executing, or gathered and waiting
        for the next engine batch); excess arrivals get RETRY frames.
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
        #: Admitted query frames waiting for the next gathered batch, and
        #: whether a :meth:`_serve_gathered` task is scheduled or running.
        self._gathered: List[_Gathered] = []
        self._gather_running = False
        self._draining = False
        self._inflight = 0
        self._shed_streak = 0
        self._service_ewma = 0.0
        #: Every total :meth:`stats` reports, each recorded once here; with
        #: ``repro.obs`` enabled they are also the registry's series.
        self._requests = LabeledCounter("repro_server_requests_total", "op")
        self._retries = LabeledCounter("repro_server_retries_total", "reason")
        self._errors = LabeledCounter("repro_server_errors_total", "code")
        self._connections_total = Counter("repro_server_connections_total")
        self._gathered_batches = Counter("repro_server_gathered_batches_total")
        self._gathered_queries = Counter("repro_server_gathered_queries_total")

        if obs.is_enabled():
            registry = obs.registry()
            for instrument, description in (
                (self._requests, "Completed requests"),
                (self._retries, "RETRY frames sent"),
                (self._errors, "ERROR frames sent, by code"),
                (self._connections_total, "Accepted connections"),
                (self._gathered_batches, "Engine batches served for query frames"),
                (self._gathered_queries, "Query pairs served in gathered batches"),
            ):
                registry.install(instrument, description)
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
        self._connections_total.inc()
        try:
            await self._read_loop(reader, conn)
        finally:
            self._connections.discard(conn)
            await conn.close()
            if task is not None:
                self._conn_tasks.discard(task)

    async def _read_loop(self, reader: asyncio.StreamReader, conn: _Connection) -> None:
        splitter = FrameSplitter(self.max_frame_bytes)
        while True:
            try:
                data = await reader.read(READ_BYTES)
            except (ConnectionError, OSError):
                return
            if not data:
                return  # clean close: peer went away (possibly mid-frame)
            splitter.feed(data)
            while True:
                try:
                    frame = splitter.next_frame()
                except ProtocolError as exc:
                    # Malformed frame: answer with a typed error; keep the
                    # connection only when the stream is provably still in sync.
                    self._errors.labels(exc.code).inc()
                    await self._safe_send(
                        conn, OP_ERROR, exc.seq or 0,
                        {"code": exc.code, "message": str(exc)},
                    )
                    if exc.recoverable:
                        continue
                    return
                if frame is None:
                    break
                await self._handle_frame(conn, frame)
                if conn.closed:
                    return  # dropped for stalling: its buffered frames go unserved

    async def _handle_frame(self, conn: _Connection, frame: Frame) -> None:
        if frame.op == OP_PING:
            await self._safe_send(
                conn, OP_RESULT, frame.seq,
                {"pong": True, "epoch": self.backend.current_epoch},
            )
            return
        if frame.op not in REQUEST_OPS:
            self._errors.labels("unknown_op").inc()
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
        payload = frame.payload
        if frame.op == OP_QUERY_BATCH:
            pairs = payload["pairs"]
        elif frame.op == OP_ONE_TO_MANY:
            source = payload["source"]
            pairs = [(source, target) for target in payload["targets"]]
        else:
            self._spawn(self._process(conn, frame))
            return
        # The codec already validated the column layout; the backend checks
        # that every vertex exists.
        self._gathered.append((conn, frame.seq, pairs))
        if not self._gather_running:
            # The task's first step runs on the next loop turn, after every
            # frame already buffered has joined the list: a lone request
            # waits for no timer, a burst shares one batch.
            self._gather_running = True
            self._spawn(self._serve_gathered())

    def _spawn(self, coro) -> None:
        """Run ``coro`` as a task that :meth:`stop` waits for."""
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------
    async def _serve_gathered(self) -> None:
        """Serve every query frame gathered so far as one engine batch and
        answer each connection with one write; frames that arrived meanwhile
        are the next batch, so at most one is ever on the executor."""
        batch, self._gathered = self._gathered, []
        started = time.perf_counter()
        loop = asyncio.get_running_loop()
        frames = [pairs for _conn, _seq, pairs in batch]
        try:
            outcomes = await loop.run_in_executor(
                self._executor, self._execute_gathered, frames
            )
        finally:
            for conn, _seq, _pairs in batch:
                conn.inflight -= 1
            self._inflight -= len(batch)
            if self._gathered:
                self._spawn(self._serve_gathered())
            else:
                self._gather_running = False
        serve_seconds = time.perf_counter() - started
        self._gathered_batches.inc()
        self._gathered_queries.inc(sum(map(len, frames)))

        replies: Dict[_Connection, List[_Reply]] = {}
        served = 0
        for (conn, seq, _pairs), outcome in zip(batch, outcomes):
            if isinstance(outcome, Exception):
                reply = self._failure_reply(seq, outcome)
            else:
                served += 1
                reply = (OP_DISTANCES, seq, outcome)
            replies.setdefault(conn, []).append(reply)
        # Every connection gets its bytes before any stalled one is waited
        # for: a peer that stopped reading delays nobody else's replies.
        stalled = [conn for conn, written in replies.items() if self._write(conn, written)]
        if served:
            self._record_served("query", served, started, serve_seconds)
        if stalled:
            await asyncio.gather(*(self._drain(conn) for conn in stalled))

    def _execute_gathered(self, frames: List[List[Tuple[int, int]]]) -> list:
        """One ``serve_batch`` for the gathered frames (executor thread).

        Returns one outcome per frame — its ``DISTANCES`` payload, sliced out
        of the one :class:`~repro.serving.core.BatchResult`, or the exception
        that frame gets answered with — and never raises.  The backend fails
        a batch as a whole (one unknown vertex), so a failed batch of several
        frames is re-served one frame at a time: the typed error lands on the
        frame that caused it and the others get their answer.  An admission
        shed is the engine's verdict on the whole batch and is not retried.
        """
        try:
            result = self.backend.serve_batch(list(chain.from_iterable(frames)))
        except Exception as exc:
            if isinstance(exc, QueryRejectedError) or len(frames) == 1:
                return [exc] * len(frames)
            return [self._execute_gathered([frame])[0] for frame in frames]
        distances, epoch = result.distances, result.epoch
        stages = result.stages or [result.stage] * len(distances)
        bounds = list(accumulate(map(len, frames), initial=0))
        return [
            {"distances": distances[start:end], "epoch": epoch, "stages": stages[start:end]}
            for start, end in zip(bounds, bounds[1:])
        ]

    async def _process(self, conn: _Connection, frame: Frame) -> None:
        started = time.perf_counter()
        loop = asyncio.get_running_loop()
        try:
            payload = await loop.run_in_executor(
                self._executor, self._execute, frame
            )
        except Exception as exc:  # never let a request kill the server
            await self._safe_send(conn, *self._failure_reply(frame.seq, exc))
            return
        finally:
            conn.inflight -= 1
            self._inflight -= 1
        serve_seconds = time.perf_counter() - started
        await self._safe_send(conn, OP_RESULT, frame.seq, payload)
        self._record_served(OP_NAMES[frame.op], 1, started, serve_seconds)

    def _record_served(
        self, op_name: str, count: int, started: float, serve_seconds: float
    ) -> None:
        """Account ``count`` requests answered by one backend call (every
        query frame, of either query op, is a ``query`` request)."""
        self._shed_streak = 0
        self._requests.labels(op_name).inc(count)
        # Amortised over the batch, so RETRY waits stay per-request estimates.
        per_request = serve_seconds / count
        alpha = 0.2
        self._service_ewma = (
            per_request
            if self._service_ewma == 0.0
            else (1 - alpha) * self._service_ewma + alpha * per_request
        )
        if obs.is_enabled():
            obs.record_span("server.serve", serve_seconds, op=op_name, size=count)
            obs.record_span(
                "server.request", time.perf_counter() - started, op=op_name, size=count
            )

    def _execute(self, frame: Frame):
        """Run one request against the backend (executor thread, blocking)."""
        op, payload = frame.op, frame.payload
        if op == OP_APPLY_BATCH:
            batch = _require_batch(payload, frame.seq)
            # Synchronous: a failed install raises here (and only here), so
            # the error frame goes to the request that caused it.  A batch
            # the graph rejects changes nothing (UpdateBatch.apply validates
            # every update before writing any).
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
    def _failure_reply(self, seq: int, exc: Exception) -> _Reply:
        """The RETRY or typed ERROR frame a failed request is answered with."""
        if isinstance(exc, QueryRejectedError):
            # Admission control shed the query — backpressure, not failure.
            return OP_RETRY, seq, self._retry_payload("admission")
        message = str(exc)
        if isinstance(exc, ProtocolError):
            code = exc.code
        elif isinstance(exc, ReproError):
            code = _ERROR_CODES.get(type(exc).__name__, "request_failed")
        else:
            code, message = "internal", f"{type(exc).__name__}: {exc}"
        self._errors.labels(code).inc()
        return OP_ERROR, seq, {"code": code, "message": message}

    def _retry_payload(self, reason: str) -> Dict[str, object]:
        self._shed_streak += 1
        self._retries.labels(reason).inc()
        depth = self._inflight + self._shed_streak
        wait = min(1.0, max(0.001, depth * max(self._service_ewma, 0.0005)))
        return {
            "reason": reason,
            "queue_depth": depth,
            "suggested_wait_seconds": wait,
        }

    async def _send_retry(self, conn: _Connection, seq: int, reason: str) -> None:
        await self._safe_send(conn, OP_RETRY, seq, self._retry_payload(reason))

    async def _safe_send(
        self, conn: _Connection, op: int, seq: int, payload
    ) -> None:
        """Write one frame; a dead or stalled peer drops the connection."""
        if self._write(conn, [(op, seq, payload)]):
            await self._drain(conn)

    def _write(self, conn: _Connection, frames: List[_Reply]) -> bool:
        """Encode ``frames`` and hand them to the transport in one write.

        Returns whether the caller has to :meth:`_drain`: with an empty
        transport buffer the bytes are already with the kernel, ``drain()``
        would be a no-op, and its timeout guard (a task and a timer) is
        pure cost.
        """
        if conn.closed:
            return False
        started = time.perf_counter()
        conn.writer.write(b"".join([self._encode(*frame) for frame in frames]))
        if obs.is_enabled():
            ops = {op for op, _seq, _payload in frames}
            obs.record_span(
                "server.encode", time.perf_counter() - started,
                op=OP_NAMES[ops.pop()] if len(ops) == 1 else "mixed",
                size=len(frames),
            )
        return needs_drain(conn.writer)

    def _encode(self, op: int, seq: int, payload) -> bytes:
        try:
            return encode_frame(op, seq, payload, self.max_frame_bytes)
        except ProtocolError as exc:
            # The reply outgrew the cap (a packed reply is 9 bytes a pair
            # against 4-8 in the request), or cannot be encoded at all:
            # the request still gets its typed answer, and the stream stays
            # in sync because nothing of the oversized frame was written.
            self._errors.labels(exc.code).inc()
            return encode_frame(OP_ERROR, seq, {"code": exc.code, "message": str(exc)})

    async def _drain(self, conn: _Connection) -> None:
        """Wait for the peer to take what was written, within the timeout."""
        try:
            async with conn.lock:
                await asyncio.wait_for(conn.writer.drain(), self.write_timeout)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            # A graceful close waits for the write buffer to flush, which is
            # what just failed to happen; discard it so the close completes.
            conn.writer.transport.abort()
            await conn.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Server-side counters (the ``stats`` op returns these + backend's);
        a labelled total is the sum over its labels."""
        return {
            "inflight": self._inflight,
            "connections": len(self._connections),
            "requests_total": int(self._requests.value),
            "retries_total": int(self._retries.value),
            "errors_total": int(self._errors.value),
            "connections_total": int(self._connections_total.value),
            "gathered_batches_total": int(self._gathered_batches.value),
            "gathered_queries_total": int(self._gathered_queries.value),
            "draining": self._draining,
            "max_inflight": self.max_inflight,
            "max_inflight_per_connection": self.max_inflight_per_connection,
        }


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
