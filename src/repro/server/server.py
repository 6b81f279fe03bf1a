"""The asyncio network front end over the serving stack.

:class:`QueryServer` listens on a TCP socket, speaks the length-prefixed
frame protocol of :mod:`repro.server.protocol`, and answers through any
*backend* with the serving-engine surface — a single-process
:class:`~repro.serving.engine.ServingEngine` or a sharded
:class:`~repro.cluster.engine.ClusterEngine` — so throughput numbers are
end-to-end service numbers.  DESIGN.md §12 has the protocol, the failure
model and the measurements behind the choices below.

Concurrency model
-----------------

The event loop owns all protocol state.  Each connection's read loop splits
every complete frame out of what the socket delivered and handles them
without awaiting in between; requests on one connection may be pipelined
and are answered out of order, matched by the echoed ``seq``.

Every query frame (``QUERY_BATCH``, ``ONE_TO_MANY``) is **gathered**: the
read loop itself checks the caps and appends its packed pair ids to a
server-wide list — no coroutine a frame; only a frame answered at once
(``PING``, a RETRY, an ERROR) or sent to the executor goes through the
awaited :meth:`QueryServer._handle_frame`.  On the next loop turn the
list's payloads are joined and read as one ``int32`` array, served by one
``backend.serve_batch`` (one admission decision, one epoch, one C call of
the final stage), and the batch's answers become its wire columns once
(``float64`` distances, stage ids, name table): each connection's
``DISTANCES`` replies are encoded from slices of them in one pass and go
out in one write.  At most one gathered batch is served at a time, and the
frames gathered meanwhile are the next, so batch size follows load with no
timer.  Caps, ``seq`` echo and typed errors stay per frame: a bad frame
never fails its neighbours.

An in-process backend (``serves_in_process``) is served on the loop's own
thread: one batch is in flight at a time, so a thread hop would add its
round trip and no parallelism.  Meanwhile the loop reads nothing; frames
wait in the socket buffer and meet the caps when the serve returns.  Each
wait such a serve makes is bounded (the read lock during an edge refresh, a
mid-install wait for a stage about to be released).  A ``ClusterEngine``
serve waits on its readers' pipes, up to the worker timeout when a reader
hangs, so it runs on a small thread pool, as do ``APPLY_BATCH`` (a whole
update window) and ``STATS`` on every backend: queries keep flowing while
an install runs.

Backpressure and shutdown
-------------------------

A request is shed with a typed RETRY frame (the HTTP-429 analogue), never
queued unboundedly, at the **global** in-flight cap (``max_inflight``), the
**per-connection** cap (a greedy client saturates only its own connection),
and the backend's **Lemma-1 admission control**
(:class:`~repro.exceptions.QueryRejectedError`).  The caps are checked when
a frame is read, so a gathered batch never outgrows them.  Every RETRY
carries a ``queue_depth`` hint (in-flight plus the run of consecutive sheds,
monotone under sustained overload) and a ``suggested_wait_seconds``
proportional to it.

:meth:`QueryServer.stop` drains: it refuses new connections, lets every
in-flight request deliver its response, answers frames read meanwhile (those
buffered behind a batch served on the loop included) ``RETRY draining``, and
then closes the connections.  No admitted request is ever dropped.
"""

from __future__ import annotations

import asyncio
import time
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro import obs
from repro.exceptions import (
    ProtocolError,
    QueryRejectedError,
    ReproError,
    ServerError,
    VertexNotFoundError,
)
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.obs.metrics import Counter, LabeledCounter
from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    OP_APPLY_BATCH,
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
    encode_distances,
    encode_frame,
    needs_drain,
)

#: Most threads the server runs ``APPLY_BATCH`` and ``STATS`` requests (and a
#: cluster's query batches) on (capped by ``max_inflight``).
EXECUTOR_THREADS = 8

#: Loop turns in a row without a socket read after which :meth:`QueryServer.stop`
#: takes the read loops to have consumed what their sockets had buffered, and
#: the most turns it gives them (a client that keeps sending cannot hold it).
DRAIN_IDLE_TURNS = 3
DRAIN_MAX_TURNS = 100

#: One reply frame before encoding: ``(op, seq, payload)``.
_Reply = Tuple[int, int, object]
#: The ops whose frames are gathered into one engine batch.
_GATHERED_OPS = frozenset((OP_QUERY_BATCH, OP_ONE_TO_MANY))
#: One gathered query frame: its connection, ``seq`` and packed pair ids
#: (8 bytes a pair).
_Gathered = Tuple["_Connection", int, bytes]


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
        ``apply_batch``, ``stats``, ``current_epoch``; ``serves_in_process``
        says where query batches are served) and does not own the backend's
        lifecycle.
    host / port:
        Listen address; port 0 binds an ephemeral port (read it back from
        :attr:`address` after :meth:`start`).
    max_inflight:
        Global cap on admitted requests (executing, or gathered and waiting
        for the next engine batch); excess arrivals get RETRY frames.
    max_inflight_per_connection:
        Per-connection cap, strictly enforced before the global cap so one
        pipelining client cannot fill a gathered batch on its own.
    max_frame_bytes:
        Frame size cap, both directions.
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
        #: Whether gathered batches are served on the loop's thread (module
        #: docstring); a backend that does not say is served from a thread.
        self._serve_on_loop = getattr(backend, "serves_in_process", False)

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
        #: Socket reads that returned data, so :meth:`stop` can tell when the
        #: read loops have taken everything already buffered.
        self._reads = 0
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
            max_workers=min(EXECUTOR_THREADS, self.max_inflight),
            thread_name_prefix="repro-server",
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
        # Every admitted request completes and writes its response before the
        # connection goes away — zero dropped in-flight queries.
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        # A serve on the loop kept later frames waiting in the socket buffers:
        # let the read loops take them, so each is answered RETRY draining
        # rather than cut off by the close.
        idle_turns = 0
        for _ in range(DRAIN_MAX_TURNS):
            reads = self._reads
            await asyncio.sleep(0)
            idle_turns = idle_turns + 1 if self._reads == reads else 0
            if idle_turns == DRAIN_IDLE_TURNS:
                break
        for conn in list(self._connections):
            await conn.close()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=5.0)
        # Since Python 3.12.1 this waits for every connection to drop, so it
        # comes after they are closed.
        await self._server.wait_closed()
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
            self._reads += 1
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
                op, seq, payload = frame
                if op in _GATHERED_OPS and self._admit(conn):
                    # The usual query frame joins the next batch right here;
                    # the payload is its packed pair ids, its layout checked
                    # by the codec (the backend checks that every vertex
                    # exists).
                    self._gathered.append((conn, seq, payload))
                    if not self._gather_running:
                        # The task's first step runs on the next loop turn,
                        # after every frame already buffered has joined the
                        # list: a lone request waits for no timer, a burst
                        # shares one batch.
                        self._gather_running = True
                        self._spawn(self._serve_gathered())
                    continue
                await self._handle_frame(conn, frame)
                if conn.closed:
                    return  # dropped for stalling: its buffered frames go unserved

    def _admit(self, conn: _Connection) -> bool:
        """Count one more request in flight, unless the server is draining
        or a cap sheds it."""
        if (
            self._draining
            or conn.inflight >= self.max_inflight_per_connection
            or self._inflight >= self.max_inflight
        ):
            return False
        conn.inflight += 1
        self._inflight += 1
        return True

    async def _handle_frame(self, conn: _Connection, frame: Frame) -> None:
        """Every frame the read loop did not gather: ``PING`` is answered,
        an unknown op or a shed request refused, ``APPLY_BATCH`` and
        ``STATS`` admitted to the executor."""
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
        if not self._admit(conn):  # a query frame gets here only when shed
            await self._send_retry(
                conn, frame.seq, "draining" if self._draining else "queue_full"
            )
            return
        self._spawn(self._process(conn, frame))

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
        answer each connection with one write; frames gathered meanwhile are
        the next batch, so at most one is ever being served."""
        batch, self._gathered = self._gathered, []
        started = time.perf_counter()
        frames = [ids for _conn, _seq, ids in batch]
        try:
            if self._serve_on_loop:
                outcomes = self._execute_gathered(frames)
            else:
                outcomes = await asyncio.get_running_loop().run_in_executor(
                    self._executor, self._execute_gathered, frames
                )
        finally:
            for conn, _seq, _ids in batch:
                conn.inflight -= 1
            self._inflight -= len(batch)
            if self._gathered:
                self._spawn(self._serve_gathered())
            else:
                self._gather_running = False
        serve_seconds = time.perf_counter() - started
        self._gathered_batches.inc()
        self._gathered_queries.inc(sum(map(len, frames)) // 8)

        answers: Dict[_Connection, List[Tuple[int, object]]] = {}
        for (conn, seq, _ids), outcome in zip(batch, outcomes):
            answers.setdefault(conn, []).append((seq, outcome))
        # Every connection gets its bytes before any stalled one is waited
        # for: a peer that stopped reading delays nobody else's replies.
        stalled = [
            conn for conn, replies in answers.items()
            if self._write(conn, self._encode_answers(replies))
        ]
        served = sum(not isinstance(outcome, Exception) for outcome in outcomes)
        if served:
            self._record_served("query", served, started, serve_seconds)
        if stalled:
            await asyncio.gather(*(self._drain(conn) for conn in stalled))

    def _encode_answers(self, replies: List[Tuple[int, object]]) -> bytes:
        """One connection's replies from one gathered batch, encoded in one
        pass: a ``DISTANCES`` frame straight from the batch's wire columns,
        or the RETRY / typed ERROR frame a failed frame is answered with."""
        started = time.perf_counter()
        parts = []
        for seq, outcome in replies:
            if isinstance(outcome, Exception):
                parts.append(self._encode(*self._failure_reply(seq, outcome)))
                continue
            (epoch, values, stage_ids, stage_names), start, end = outcome
            try:
                parts.append(encode_distances(
                    seq, epoch, values[8 * start : 8 * end], stage_ids[start:end],
                    stage_names, self.max_frame_bytes,
                ))
            except ProtocolError as exc:  # the reply outgrew the cap
                parts.append(self._error_frame(seq, exc))
        if obs.is_enabled():
            obs.record_span(
                "server.encode", time.perf_counter() - started,
                op="query", size=len(replies),
            )
        return b"".join(parts)

    def _execute_gathered(self, frames: List[bytes]) -> list:
        """One ``serve_batch`` of the gathered frames' ids, joined and read
        as one ``int32`` array (on the loop's thread for an in-process
        backend, else on an executor thread).

        Returns one outcome per frame — ``(columns, start, end)``, its pairs'
        span of the batch's :func:`_wire_columns`, or the exception it is
        answered with — and never raises.  A batch fails as a whole: at an
        unknown vertex the engine names its position, so the frame holding
        it gets the error and the other frames are served again as one
        batch.  An admission shed is the verdict on the whole batch and is
        not retried; any other failure re-serves each frame alone.
        """
        bounds = list(accumulate((len(ids) // 8 for ids in frames), initial=0))
        try:
            result = self.backend.serve_batch(
                np.frombuffer(b"".join(frames), "<i4").reshape(-1, 2)
            )
        except Exception as exc:
            if isinstance(exc, QueryRejectedError) or len(frames) == 1:
                return [exc] * len(frames)
            position = exc.position if isinstance(exc, VertexNotFoundError) else None
            if position is None:
                return [self._execute_gathered([frame])[0] for frame in frames]
            bad = bisect_right(bounds, position // 2) - 1
            rest = iter(self._execute_gathered(frames[:bad] + frames[bad + 1 :]))
            return [exc if index == bad else next(rest) for index in range(len(frames))]
        columns = _wire_columns(result)
        return [(columns, start, end) for start, end in zip(bounds, bounds[1:])]

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
        """Run one ``APPLY_BATCH`` or ``STATS`` request against the backend
        (executor thread, blocking)."""
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
        if self._write(conn, self._encode(op, seq, payload)):
            await self._drain(conn)

    def _write(self, conn: _Connection, data: bytes) -> bool:
        """Hand ``data`` to the transport in one write.

        Returns whether the caller has to :meth:`_drain`: with an empty
        transport buffer the bytes are already with the kernel, ``drain()``
        would be a no-op, and its timeout guard (a task and a timer) is
        pure cost.
        """
        if conn.closed:
            return False
        conn.writer.write(data)
        return needs_drain(conn.writer)

    def _encode(self, op: int, seq: int, payload) -> bytes:
        try:
            return encode_frame(op, seq, payload, self.max_frame_bytes)
        except ProtocolError as exc:
            return self._error_frame(seq, exc)

    def _error_frame(self, seq: int, exc: ProtocolError) -> bytes:
        """The reply outgrew the cap (a packed reply is 9 bytes a pair
        against 4-8 in the request), or cannot be encoded at all: the
        request still gets its typed answer, and the stream stays in sync
        because nothing of the oversized frame was written."""
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


def _wire_columns(result) -> Tuple[int, bytes, bytes, bytes]:
    """A served batch's answers as :func:`~repro.server.protocol.encode_distances`
    takes them, made once a batch: the epoch, the ``float64`` distances, a
    stage id a pair and the name table (one name when one stage answered
    every pair)."""
    if result.stage_ids is None:
        stage_ids, names = bytes(len(result.distance_array)), (result.stage,)
    else:
        stage_ids, names = result.stage_ids.tobytes(), result.stage_names
    values = result.distance_array.astype("<f8", copy=False).tobytes()
    return result.epoch, values, stage_ids, "\n".join(names).encode()


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


def _require_batch(payload, seq: int) -> UpdateBatch:
    """The ``APPLY_BATCH`` payload ``{"updates": [[u, v, old, new], ...]}``
    as a batch: integer vertex ids, number weights."""
    raw = payload.get("updates") if isinstance(payload, dict) else None
    if not isinstance(raw, list):
        raise _bad_payload("payload must be a JSON object with an 'updates' list", seq)
    updates = []
    for item in raw:
        if not (isinstance(item, (list, tuple)) and len(item) == 4 and all(
            isinstance(v, int) and not isinstance(v, bool) for v in item[:2]
        )):
            raise _bad_payload(f"each update must be [u, v, old, new], got {item!r}", seq)
        try:
            updates.append(EdgeUpdate(item[0], item[1], float(item[2]), float(item[3])))
        except (TypeError, ValueError):
            raise _bad_payload(f"update weights must be numbers, got {item!r}", seq)
    return UpdateBatch(updates)
