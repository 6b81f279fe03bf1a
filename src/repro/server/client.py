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
* a dropped connection fails every pending request with
  :class:`~repro.exceptions.ServerClosedError`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class QueryReply:
    """Scalar query response (a one-pair batch) with its serving context."""

    distance: float
    epoch: int
    stage: str
    from_cache: bool = False


@dataclass(frozen=True)
class BatchReply:
    """Batch/one-to-many response at one epoch; ``stages[i]`` answered pair
    ``i`` (``"cache"`` for a cache hit)."""

    distances: List[float]
    epoch: int
    stages: List[str]


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
        self._write_lock = asyncio.Lock()
        self._closed = False
        #: RETRY frames absorbed by the ``*_with_retry`` helpers.
        self.retries = 0
        self._reader_task = asyncio.ensure_future(self._read_loop())

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
                frame = splitter.next_frame()
                while frame is not None:
                    self._deliver(frame)
                    frame = splitter.next_frame()
        except Exception as exc:
            self._fail_pending(exc)

    def _deliver(self, frame: Frame) -> None:
        """Resolve the pending request ``frame`` answers."""
        future = self._pending.pop(frame.seq, None)
        if future is None or future.done():
            return  # unsolicited (e.g. a seq-0 connection error)
        if frame.op in (OP_RESULT, OP_DISTANCES):
            future.set_result(frame.payload)
        elif frame.op == OP_RETRY:
            payload = frame.payload or {}
            future.set_exception(
                ServerBackpressureError(
                    payload.get("reason", "unknown"),
                    int(payload.get("queue_depth", 0)),
                    float(payload.get("suggested_wait_seconds", 0.001)),
                )
            )
        elif frame.op == OP_ERROR:
            payload = frame.payload or {}
            future.set_exception(
                RemoteServerError(
                    payload.get("code", "unknown"),
                    payload.get("message", ""),
                )
            )
        else:
            future.set_exception(
                ProtocolError(f"unexpected response op {frame.op:#x}")
            )

    def _fail_pending(self, cause: Exception) -> None:
        pending = list(self._pending.values())
        self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(
                    ServerClosedError(f"connection lost: {type(cause).__name__}: {cause}")
                )

    async def request(self, op: int, payload: Optional[object] = None):
        """Send one raw request frame and await its matched response payload."""
        if self._closed:
            raise ServerClosedError("client is closed")
        self._seq = (self._seq + 1) % 2**32 or 1
        seq = self._seq
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[seq] = future
        try:
            self._writer.write(encode_frame(op, seq, payload, self._max_frame_bytes))
            if needs_drain(self._writer):
                async with self._write_lock:
                    await self._writer.drain()
            return await future
        except (ConnectionError, OSError) as exc:
            raise ServerClosedError(f"send failed: {exc}") from None
        finally:
            # Whatever ended the wait — a reply, an encode error, a cancelled
            # caller — the slot goes; a late reply for it is then ignored.
            self._pending.pop(seq, None)

    async def send_raw(self, data: bytes) -> None:
        """Write raw bytes on the connection (protocol fuzzing hook)."""
        async with self._write_lock:
            self._writer.write(data)
            await self._writer.drain()

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._fail_pending(ServerClosedError("client closed"))
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
        payload = await self.request(OP_PING)
        return int(payload["epoch"])

    async def query(self, source: int, target: int) -> QueryReply:
        """One pair, sent as a one-pair ``QUERY_BATCH``."""
        reply = await self.query_batch(((source, target),))
        (distance,), (stage,) = reply.distances, reply.stages
        return QueryReply(distance, reply.epoch, stage, stage == CACHE_STAGE)

    async def query_batch(self, pairs: Iterable[Tuple[int, int]]) -> BatchReply:
        """Packed batch query; a vertex id outside int32 raises
        :class:`~repro.exceptions.ProtocolError` before anything is sent."""
        return BatchReply(**await self.request(OP_QUERY_BATCH, {"pairs": pairs}))

    async def one_to_many(self, source: int, targets: Iterable[int]) -> BatchReply:
        return BatchReply(
            **await self.request(OP_ONE_TO_MANY, {"source": source, "targets": targets})
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
        payload = await self.request(OP_APPLY_BATCH, {"updates": updates})
        return int(payload["epoch"])

    async def stats(self) -> dict:
        return await self.request(OP_STATS)

    # ------------------------------------------------------------------
    # Backpressure-honouring helpers
    # ------------------------------------------------------------------
    async def query_with_retry(
        self, source: int, target: int, attempts: int = 16, max_wait: float = 0.25
    ) -> QueryReply:
        """Scalar query that backs off per the server's RETRY hints."""
        return await self._with_retry(
            lambda: self.query(source, target), attempts, max_wait
        )

    async def query_batch_with_retry(
        self,
        pairs: Sequence[Tuple[int, int]],
        attempts: int = 16,
        max_wait: float = 0.25,
    ) -> BatchReply:
        """Batch query that backs off per the server's RETRY hints."""
        return await self._with_retry(
            lambda: self.query_batch(pairs), attempts, max_wait
        )

    async def _with_retry(self, op, attempts: int, max_wait: float):
        last: Optional[ServerBackpressureError] = None
        for _ in range(max(1, attempts)):
            try:
                return await op()
            except ServerBackpressureError as exc:
                last = exc
                self.retries += 1
                await asyncio.sleep(min(exc.suggested_wait_seconds, max_wait))
        raise last
