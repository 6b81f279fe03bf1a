"""Shared helpers for the network-query-plane test suites.

Kept out of the ``test_*`` modules so both the protocol fuzz suite and the
behavioural suite can reuse one harness: a bounded ``run`` wrapper (no async
test may ever hang CI), a server context manager that runs the server on its
own thread and loop, raw-socket helpers for crafting malformed wire bytes,
and a controllable blocking backend for the backpressure/drain tests.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import weakref
from typing import List, Tuple

from repro.serving.core import BatchResult
from repro.server.protocol import read_frame
from repro.server.server import QueryServer

#: Hard wall-clock guard on every async test body.
TEST_TIMEOUT = 30.0


def run(coro, timeout: float = TEST_TIMEOUT):
    """Run one async test body with a hard timeout (hangs become failures)."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


#: Each running test server's event loop (its own, on its own thread).
_SERVER_LOOPS: "weakref.WeakKeyDictionary[QueryServer, asyncio.AbstractEventLoop]" = (
    weakref.WeakKeyDictionary()
)


def _run_loop(loop: asyncio.AbstractEventLoop) -> None:
    """A server thread's body: run ``loop`` until stopped, then cancel what
    is left on it and close it."""
    asyncio.set_event_loop(loop)
    try:
        loop.run_forever()
        leftovers = asyncio.all_tasks(loop)
        for task in leftovers:
            task.cancel()
        loop.run_until_complete(asyncio.gather(*leftovers, return_exceptions=True))
    finally:
        loop.close()


async def on_server_loop(server, coro):
    """Await ``coro`` run on ``server``'s own event loop (``server.stop()``
    has to run where the server runs)."""
    future = asyncio.run_coroutine_threadsafe(coro, _SERVER_LOOPS[server])
    return await asyncio.wrap_future(future)


@contextlib.asynccontextmanager
async def running_server(backend, **server_kwargs):
    """Start a :class:`QueryServer` over ``backend`` on its own thread and
    event loop, as a real server runs in its own process; always drain it.

    The server answers an in-process backend's query frames on its loop, so
    such a backend that blocks (:class:`BlockingBackend`) parks the server's
    loop, never the test's.
    """
    server = QueryServer(backend, port=0, **server_kwargs)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(
        target=_run_loop, args=(loop,), name="test-server-loop", daemon=True
    )
    thread.start()
    _SERVER_LOOPS[server] = loop
    try:
        await on_server_loop(server, server.start())
        yield server
    finally:
        try:
            await on_server_loop(server, server.stop())
        finally:
            loop.call_soon_threadsafe(loop.stop)
            await asyncio.get_running_loop().run_in_executor(None, thread.join, 10.0)


@contextlib.asynccontextmanager
async def fake_server(handler):
    """A bare ``asyncio`` server on an ephemeral port whose connections run
    ``handler(reader, writer)`` — a peer that misbehaves on purpose, for the
    client's tests; yields its ``(host, port)``.  ``handler`` closes its
    writer (``wait_closed`` waits for every connection since Python 3.12.1)."""
    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    try:
        yield server.sockets[0].getsockname()[:2]
    finally:
        server.close()
        await server.wait_closed()


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

    By default it stands in for an in-process engine, which the server
    serves on its own loop, so a parked ``serve_batch`` parks that loop:
    nothing more is read until :meth:`release`, and frames sent meanwhile
    wait in the socket buffer.  With ``serves_in_process=False`` it stands in
    for a cluster, served from the server's thread pool: the loop keeps
    reading and gathers the frames sent meanwhile into the next batch.
    That lets the backpressure and drain tests hold a batch in flight and
    queue frames behind it deterministically; once released, every parked
    and later batch completes normally.
    """

    def __init__(self, epoch: int = 0, serves_in_process: bool = True) -> None:
        self.serves_in_process = serves_in_process
        self._release = threading.Event()
        self._epoch = epoch
        self.served = 0
        #: Size of every ``serve_batch`` call, recorded as it parks.
        self.batches: List[int] = []
        #: Size of every ``apply_batch`` call, recorded as it parks.
        self.applied: List[int] = []
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

    def apply_batch(self, batch) -> None:
        """Parks like a query (on the server's executor, not its loop), then
        advances the epoch."""
        with self._lock:
            self.applied.append(len(batch))
        assert self._release.wait(timeout=TEST_TIMEOUT), "backend never released"
        self._epoch += 1

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
    "on_server_loop",
    "fake_server",
    "open_raw",
    "drain_frames",
    "close_writer",
    "BlockingBackend",
    "wait_for",
    "fake_clock",
]
