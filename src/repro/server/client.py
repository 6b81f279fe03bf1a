"""Asyncio client for the network query plane.

:class:`AsyncClient` keeps one connection, pipelines requests (each tagged
with a monotonically increasing ``seq``), and matches responses to pending
futures from a background reader task — so many coroutines can share one
client concurrently.  Typed server responses map back to typed exceptions:

* ERROR frames raise :class:`~repro.exceptions.RemoteServerError` (with the
  wire ``code``);
* RETRY frames raise :class:`~repro.exceptions.ServerBackpressureError`
  carrying the queue-depth hint and suggested wait — the ``*_with_retry``
  helpers honour that hint, which is what the closed-loop load generator
  uses;
* a reply that does not decode, or whose ERROR / RETRY payload has the wrong
  shape, fails the request it answers with
  :class:`~repro.exceptions.ProtocolError`;
* a dropped connection fails every pending request with
  :class:`~repro.exceptions.ServerClosedError`, and so does every later one.

Every request takes one path, :meth:`AsyncClient._request`: one coroutine
that encodes the frame, queues it, awaits the reply and builds the reply
tuple (``query``, ``query_batch``, ``one_to_many`` and the ``*_with_retry``
helpers return that coroutine; the retry loop is part of it).  The frames
queued in one loop turn leave in one ``transport.write``: the first queues a
flush with ``call_soon``, which runs after every coroutine of the turn has
queued its own.  :meth:`AsyncClient.send_raw` flushes at once, behind what is
already queued, so the wire order is the issue order.  A request waits for
``drain()`` before it queues when the transport already holds unsent bytes,
so a peer that stops reading holds the queue at one loop turn's frames.
"""

from __future__ import annotations

import asyncio
from typing import (
    Awaitable, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.exceptions import (
    ProtocolError,
    RemoteServerError,
    ServerBackpressureError,
    ServerClosedError,
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
    OP_QUERY_BATCH,
    OP_RESULT,
    OP_RETRY,
    OP_STATS,
    READ_BYTES,
    Frame,
    FrameSplitter,
    encode_frame,
    needs_drain,
)
from repro.serving.core import CACHE_STAGE


class QueryReply(NamedTuple):
    """Scalar query response (a one-pair batch) with its serving context."""

    distance: float
    epoch: int
    stage: str
    from_cache: bool = False


class BatchReply(NamedTuple):
    """Batch/one-to-many response at one epoch; ``stages[i]`` answered pair
    ``i`` (``"cache"`` for a cache hit)."""

    distances: List[float]
    epoch: int
    stages: List[str]


def _batch_reply(payload) -> BatchReply:
    return BatchReply(payload["distances"], payload["epoch"], payload["stages"])


def _query_reply(payload) -> QueryReply:
    (distance,), (stage,) = payload["distances"], payload["stages"]
    return QueryReply(distance, payload["epoch"], stage, stage == CACHE_STAGE)


def _refusal(op: int, payload) -> Exception:
    """The exception an ERROR or RETRY frame (or a reply of an op no
    request is answered with) fails its request with."""
    payload = payload or {}
    try:
        if op == OP_RETRY:
            return ServerBackpressureError(
                payload.get("reason", "unknown"),
                int(payload.get("queue_depth", 0)),
                float(payload.get("suggested_wait_seconds", 0.001)),
            )
        if op == OP_ERROR:
            return RemoteServerError(payload.get("code", "unknown"), payload.get("message", ""))
    except (AttributeError, TypeError, ValueError) as exc:
        return ProtocolError(f"malformed {OP_NAMES[op]} reply {payload!r}: {exc}")
    return ProtocolError(f"unexpected response op {op:#x}")


class AsyncClient:
    """One pipelined protocol connection to a :class:`QueryServer`."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._max_frame_bytes = max_frame_bytes
        self._seq = 0
        self._pending: Dict[int, asyncio.Future] = {}
        #: Frames queued this loop turn, written by one :meth:`_flush`.
        self._outbox: List[bytes] = []
        self._write_lock = asyncio.Lock()
        #: Why requests are refused (``None`` while the connection is open).
        self._closed: Optional[str] = None
        #: RETRY frames absorbed by the ``*_with_retry`` helpers.
        self.retries = 0
        self._reader_task = asyncio.ensure_future(self._read_loop())
        self._loop = self._reader_task.get_loop()

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> "AsyncClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, max_frame_bytes=max_frame_bytes)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        splitter = FrameSplitter(self._max_frame_bytes)
        try:
            while True:
                data = await self._reader.read(READ_BYTES)
                if not data:
                    raise EOFError("server closed the connection")
                splitter.feed(data)
                while True:
                    try:
                        frame = splitter.next_frame()
                    except ProtocolError as exc:
                        if not exc.recoverable:
                            raise
                        self._resolve(exc.seq, exc)  # the stream is still in sync
                        continue
                    if frame is None:
                        break
                    self._deliver(frame)
        except Exception as exc:
            self._fail_pending(f"connection lost: {type(exc).__name__}: {exc}")

    def _deliver(self, frame: Frame) -> None:
        """Resolve the pending request ``frame`` answers."""
        op, seq, payload = frame
        if op == OP_DISTANCES or op == OP_RESULT:
            self._resolve(seq, None, payload)
        else:
            self._resolve(seq, _refusal(op, payload))

    def _resolve(self, seq: int, error: Optional[Exception], payload=None) -> None:
        future = self._pending.pop(seq, None)
        if future is None or future.done():
            return  # unsolicited (e.g. a seq-0 connection error) or abandoned
        if error is None:
            future.set_result(payload)
        else:
            future.set_exception(error)

    def _fail_pending(self, reason: str) -> None:
        """Refuse every later request, and fail every pending one, with
        :class:`ServerClosedError`."""
        if self._closed is None:
            self._closed = reason
        self._outbox.clear()
        pending = list(self._pending.values())
        self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(ServerClosedError(reason))

    def _post(self, data: bytes) -> None:
        """Queue ``data`` for this loop turn's one write."""
        if not self._outbox:
            self._loop.call_soon(self._flush)
        self._outbox.append(data)

    def _flush(self) -> None:
        """Write everything queued, in queue order, as one write (nothing
        once the client is closed)."""
        if self._outbox and self._closed is None:
            self._writer.write(b"".join(self._outbox))
        self._outbox.clear()

    async def _request(
        self,
        op: int,
        payload: Optional[object] = None,
        reply: Optional[Callable] = None,
        attempts: int = 0,
        max_wait: float = 0.0,
    ):
        """The one request path: send one frame, await its matched reply
        and return ``reply(payload)`` (the payload when ``reply`` is None).

        With ``attempts`` > 0 a RETRY is absorbed up to ``attempts`` times,
        each followed by the wait it suggests (at most ``max_wait``), and
        the last one is raised; otherwise it is raised at once.
        """
        shed: Optional[ServerBackpressureError] = None
        for _ in range(max(1, attempts)):
            if self._closed is not None:
                raise ServerClosedError(self._closed)
            self._seq = seq = self._seq % 0xFFFFFFFF + 1
            future = self._loop.create_future()
            self._pending[seq] = future
            try:
                data = encode_frame(op, seq, payload, self._max_frame_bytes)
                if needs_drain(self._writer):
                    async with self._write_lock:
                        await self._writer.drain()
                self._post(data)
                answer = await future
            except ServerBackpressureError as exc:
                if not attempts:
                    raise
                shed = exc
            except (ConnectionError, OSError) as exc:
                raise ServerClosedError(f"send failed: {exc}") from None
            else:
                return answer if reply is None else reply(answer)
            finally:
                # Whatever ended the wait — a reply, an encode error, a
                # cancelled caller — the slot goes; a late reply for it is
                # then ignored.
                self._pending.pop(seq, None)
            self.retries += 1
            await asyncio.sleep(min(shed.suggested_wait_seconds, max_wait))
        raise shed

    def request(self, op: int, payload: Optional[object] = None) -> Awaitable:
        """Send one raw request frame; await the result for its matched
        response payload."""
        return self._request(op, payload)

    async def send_raw(self, data: bytes) -> None:
        """Write raw bytes on the connection, behind every frame already
        queued (protocol fuzzing hook)."""
        self._outbox.append(data)
        self._flush()
        async with self._write_lock:
            await self._writer.drain()

    async def close(self) -> None:
        """Fail what is pending or queued with :class:`ServerClosedError`,
        write nothing more and close the connection (idempotent)."""
        self._fail_pending("client closed")
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    async def ping(self) -> int:
        """Round trip; returns the backend's current epoch."""
        payload = await self._request(OP_PING)
        return int(payload["epoch"])

    def query(self, source: int, target: int) -> Awaitable[QueryReply]:
        """One pair, sent as a one-pair ``QUERY_BATCH``."""
        return self._request(OP_QUERY_BATCH, {"pairs": ((source, target),)}, _query_reply)

    def query_batch(self, pairs: Iterable[Tuple[int, int]]) -> Awaitable[BatchReply]:
        """Packed batch query; a vertex id outside int32 raises
        :class:`~repro.exceptions.ProtocolError` before anything is sent."""
        return self._request(OP_QUERY_BATCH, {"pairs": pairs}, _batch_reply)

    def one_to_many(self, source: int, targets: Iterable[int]) -> Awaitable[BatchReply]:
        return self._request(
            OP_ONE_TO_MANY, {"source": source, "targets": targets}, _batch_reply
        )

    async def apply_batch(self, batch) -> int:
        """Broadcast an update batch; returns the post-install epoch.

        ``batch`` may be an :class:`~repro.graph.updates.UpdateBatch`, an
        iterable of :class:`~repro.graph.updates.EdgeUpdate`, or raw
        ``(u, v, old_weight, new_weight)`` tuples.
        """
        updates = []
        iterable = batch.updates if isinstance(batch, UpdateBatch) else batch
        for update in iterable:
            if isinstance(update, EdgeUpdate):
                updates.append(
                    [update.u, update.v, update.old_weight, update.new_weight]
                )
            else:
                u, v, old_weight, new_weight = update
                updates.append([u, v, old_weight, new_weight])
        payload = await self._request(OP_APPLY_BATCH, {"updates": updates})
        return int(payload["epoch"])

    async def stats(self) -> dict:
        return await self._request(OP_STATS)

    # ------------------------------------------------------------------
    # Backpressure-honouring helpers
    # ------------------------------------------------------------------
    def query_with_retry(
        self, source: int, target: int, attempts: int = 16, max_wait: float = 0.25
    ) -> Awaitable[QueryReply]:
        """Scalar query that backs off per the server's RETRY hints."""
        return self._request(
            OP_QUERY_BATCH, {"pairs": ((source, target),)}, _query_reply,
            max(1, attempts), max_wait,
        )

    def query_batch_with_retry(
        self,
        pairs: Sequence[Tuple[int, int]],
        attempts: int = 16,
        max_wait: float = 0.25,
    ) -> Awaitable[BatchReply]:
        """Batch query that backs off per the server's RETRY hints."""
        return self._request(
            OP_QUERY_BATCH, {"pairs": pairs}, _batch_reply, max(1, attempts), max_wait
        )
