"""Shared helpers for the network-query-plane test suites.

Kept out of the ``test_*`` modules so both the protocol fuzz suite and the
behavioural suite can reuse one harness: a bounded ``run`` wrapper (no async
test may ever hang CI), a server context manager, raw-socket helpers for
crafting malformed wire bytes, and a controllable blocking backend for the
backpressure/drain tests.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from typing import List, Tuple

from repro.serving.core import BatchResult
from repro.server.protocol import read_frame
from repro.server.server import QueryServer

#: Hard wall-clock guard on every async test body.
TEST_TIMEOUT = 30.0


def run(coro, timeout: float = TEST_TIMEOUT):
    """Run one async test body with a hard timeout (hangs become failures)."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


@contextlib.asynccontextmanager
async def running_server(backend, **server_kwargs):
    """Start a :class:`QueryServer` over ``backend``; always drain it."""
    server = QueryServer(backend, port=0, **server_kwargs)
    await server.start()
    try:
        yield server
    finally:
        await server.stop()


async def open_raw(server) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open a raw stream connection to ``server`` (no client framing)."""
    host, port = server.address
    return await asyncio.open_connection(host, port)


async def drain_frames(reader: asyncio.StreamReader) -> List:
    """Read well-formed frames until the server closes the connection.

    The server only ever emits well-formed frames, so any decode failure
    here is itself a test failure.
    """
    frames = []
    while True:
        try:
            frames.append(await read_frame(reader))
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return frames


async def close_writer(writer: asyncio.StreamWriter) -> None:
    with contextlib.suppress(ConnectionError, OSError):
        writer.close()
        await writer.wait_closed()


class BlockingBackend:
    """A stub backend whose queries park on an event until released.

    Lets the backpressure tests saturate the server's in-flight caps
    deterministically: admitted requests block inside the executor until
    :meth:`release` and every parked request then completes normally —
    which is also exactly what the drain test needs.
    """

    def __init__(self, epoch: int = 0) -> None:
        self._release = threading.Event()
        self._epoch = epoch
        self.served = 0
        #: Size of every ``serve_batch`` call, recorded as it parks.
        self.batches: List[int] = []
        self._lock = threading.Lock()

    # -- test controls -------------------------------------------------
    def release(self) -> None:
        self._release.set()

    # -- backend surface -----------------------------------------------
    @property
    def current_epoch(self) -> int:
        return self._epoch

    def serve_batch(self, pairs) -> BatchResult:
        with self._lock:
            self.batches.append(len(pairs))
        assert self._release.wait(timeout=TEST_TIMEOUT), "backend never released"
        with self._lock:
            self.served += len(pairs)
        return BatchResult(list(pairs), [1.0] * len(pairs), self._epoch, 0.0, "stub")

    def stats(self) -> dict:
        return {"stub": True, "served": self.served}


async def wait_for(predicate, timeout: float = 5.0, interval: float = 0.005) -> None:
    """Poll ``predicate`` on the event loop until true (bounded)."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(interval)


def fake_clock(start: float = 1000.0):
    """A controllable monotonic clock for the admission controller."""

    class _Clock:
        def __init__(self) -> None:
            self.now = start

        def __call__(self) -> float:
            return self.now

        def advance(self, seconds: float) -> None:
            self.now += seconds

    return _Clock()


__all__ = [
    "TEST_TIMEOUT",
    "run",
    "running_server",
    "open_raw",
    "drain_frames",
    "close_writer",
    "BlockingBackend",
    "wait_for",
    "fake_clock",
]
