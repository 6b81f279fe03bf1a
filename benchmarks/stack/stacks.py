"""The two ways the benchmark reaches the stack: in process, and over the socket.

Both adapters take requests as lists of ``(source, target)`` pairs, time each
one from the caller's side, and return :class:`common.Reply` objects; the
oracle comparison happens afterwards, outside the timed loop.  A traced run
sets ``tracer`` and gets one span per request (``ladder.Tracer``).
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from typing import List, Optional, Sequence, Tuple

from repro.cluster import ClusterEngine
from repro.exceptions import ReproError, ServerBackpressureError
from repro.server import AsyncClient
from repro.serving.engine import ServingEngine
from repro.store import save_index

from common import ALL_CPUS, CPUS, Pair, Reply, Workload, build_index, descendants
from common import make_graph, pin

Slice = Tuple[float, List[Reply]]


def _default_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class LocalStack:
    """One caller thread on a ``ServingEngine`` or a ``ClusterEngine``."""

    tracer = None

    def __init__(self, backend, layer: str, scalar: bool = False) -> None:
        self.backend = backend.start()
        self.layer = layer
        self.scalar = scalar

    def request(self, pairs: Sequence[Pair], batch_id: int = -1) -> Reply:
        started = time.perf_counter()
        reply = self._serve(pairs, started)
        if self.tracer is not None:
            self.tracer.record(
                f"{self.layer}.request", started, started + reply.latency, batch_id
            )
        return reply

    def _serve(self, pairs: Sequence[Pair], started: float) -> Reply:
        try:
            if self.scalar:
                result = self.backend.serve(*pairs[0])
                distances = (result.distance,)
            else:
                results = self.backend.serve_batch(pairs)
                result = results[-1]
                distances = [r.distance for r in results]
                if any(r.epoch != result.epoch for r in results):
                    return Reply(time.perf_counter() - started, None, error="wrong_epoch")
        except ReproError:
            return Reply(time.perf_counter() - started, None, error="exception")
        return Reply(
            time.perf_counter() - started, distances, result.epoch, stage=result.stage
        )

    def run_slice(self, payloads: Sequence[Sequence[Pair]]) -> Slice:
        started = time.perf_counter()
        replies = [self.request(pairs, i) for i, pairs in enumerate(payloads)]
        return time.perf_counter() - started, replies

    def run_window(self, batch, payloads: Optional[Sequence[Sequence[Pair]]]) -> Slice:
        """Install ``batch``; with ``payloads``, keep querying until it is in."""
        backend = self.backend
        replies: List[Reply] = []
        started = time.perf_counter()
        if payloads is None and hasattr(backend, "apply_batch"):
            backend.apply_batch(batch)
        else:
            backend.submit_batch(batch)
            for pairs in payloads or ():
                if backend.pending_batches == 0:
                    break
                replies.append(self.request(pairs, len(replies)))
            else:
                backend.wait_for_maintenance()
        seconds = time.perf_counter() - started
        if backend.maintenance_errors:
            raise backend.maintenance_errors[-1]
        return seconds, replies

    def close(self) -> None:
        self.backend.stop()
        pin(os.getpid(), ALL_CPUS)


class WireStack:
    """``python -m repro.experiments serve`` in a subprocess, driven by
    ``connections`` pipelined :class:`AsyncClient` s plus one control
    connection, all on one event loop in the benchmark process."""

    tracer = None

    def __init__(
        self, snapshot: str, workdir: str, connections: int, depth: int, scalar: bool
    ) -> None:
        self.scalar = scalar
        self.depth = depth
        self.loop = asyncio.new_event_loop()
        self.clients: List[AsyncClient] = []
        self.control: Optional[AsyncClient] = None
        announce = os.path.join(workdir, "announce")
        self._log = open(os.path.join(workdir, "server.log"), "w")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "serve",
             "--snapshot", snapshot, "--announce", announce],
            stdout=self._log, stderr=subprocess.STDOUT,
            # The CLI drains on Ctrl-C only; a parent started in the
            # background hands down SIGINT ignored, so reset it.
            preexec_fn=_default_sigint,
        )
        try:
            host, port = self._await_announce(announce)
            self.start_seconds = time.perf_counter() - started
            pin(os.getpid(), CPUS[:1])  # the load generator
            pin(self.process.pid, CPUS[-1:])
            started = time.perf_counter()
            for _ in range(connections + 1):
                self.clients.append(
                    self.loop.run_until_complete(AsyncClient.connect(host, port))
                )
            self.connect_seconds = time.perf_counter() - started
        except BaseException:
            self.close()
            raise
        self.control = self.clients.pop()

    def _await_announce(self, path: str) -> Tuple[str, int]:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with code {self.process.returncode}")
            try:
                with open(path) as handle:
                    text = handle.read()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                host, port = text.split()
                return host, int(port)
            time.sleep(0.005)
        raise RuntimeError("server did not announce its port within 60 s")

    @property
    def retries(self) -> int:
        return sum(client.retries for client in self.clients)

    async def _one(
        self, client: AsyncClient, pairs: Sequence[Pair], batch_id: int = -1
    ) -> Reply:
        started = time.perf_counter()
        reply = await self._serve(client, pairs, started)
        if self.tracer is not None:
            self.tracer.record(
                "server.request", started, started + reply.latency, batch_id
            )
        return reply

    async def _serve(
        self, client: AsyncClient, pairs: Sequence[Pair], started: float
    ) -> Reply:
        try:
            if self.scalar:
                reply = await client.query_with_retry(*pairs[0])
                return Reply(
                    time.perf_counter() - started, (reply.distance,), reply.epoch,
                    stage=reply.stage,
                )
            reply = await client.query_batch_with_retry(pairs)
            return Reply(time.perf_counter() - started, reply.distances, reply.epoch)
        except ServerBackpressureError:
            return Reply(time.perf_counter() - started, None, error="retry_exhausted")
        except (ReproError, OSError):
            return Reply(time.perf_counter() - started, None, error="exception")

    async def _drive(self, payloads, until: Optional[asyncio.Future]) -> List[Reply]:
        """Closed loop: every lane sends its next request when the last one
        returns, until ``payloads`` run out or ``until`` is done."""
        replies: List[Optional[Reply]] = [None] * len(payloads)
        cursor = 0

        async def lane(client: AsyncClient) -> None:
            nonlocal cursor
            while cursor < len(payloads) and not (until is not None and until.done()):
                mine = cursor
                cursor += 1
                replies[mine] = await self._one(client, payloads[mine], mine)

        await asyncio.gather(
            *(lane(client) for client in self.clients for _ in range(self.depth))
        )
        return replies[:cursor]

    def request(self, pairs: Sequence[Pair]) -> Reply:
        return self.loop.run_until_complete(self._one(self.clients[0], pairs))

    def run_slice(self, payloads: Sequence[Sequence[Pair]]) -> Slice:
        started = time.perf_counter()
        replies = self.loop.run_until_complete(self._drive(payloads, None))
        return time.perf_counter() - started, replies

    def run_window(self, batch, payloads: Optional[Sequence[Sequence[Pair]]]) -> Slice:
        async def window() -> Slice:
            started = time.perf_counter()
            install = asyncio.ensure_future(self.control.apply_batch(batch))
            replies = await self._drive(payloads, install) if payloads else []
            await install
            return time.perf_counter() - started, replies

        return self.loop.run_until_complete(window())

    def close(self) -> None:
        for client in self.clients + [self.control]:
            if client is not None:
                self.loop.run_until_complete(client.close())
        self.loop.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        pin(os.getpid(), ALL_CPUS)


def save_snapshot(index, workdir: str) -> str:
    return save_index(
        index, os.path.join(workdir, "gen-000000"), atomic=True, generation=0
    )


def engine_stack(index) -> LocalStack:
    """A ``ServingEngine`` whose caller and maintenance threads share a CPU."""
    pin(os.getpid(), CPUS[:1])
    return LocalStack(ServingEngine(index), "serving")


def cluster_stack(snapshot: str, workdir: str) -> LocalStack:
    """Two shard workers over ``snapshot``, one CPU each where there are two."""
    stack = LocalStack(
        ClusterEngine(snapshot, num_workers=2, publish_dir=workdir), "cluster"
    )
    workers = [p for p in descendants(os.getpid()) if p != os.getpid()]
    for position, worker in enumerate(workers):
        pin(worker, [CPUS[position % len(CPUS)]])
    return stack


def cold_start(workload: Workload, workdir: str):
    """Graph -> index -> (snapshot -> server | cluster) -> connected stack."""
    index = build_index(workload, make_graph(workload))
    if workload.stack == "engine":
        return engine_stack(index)
    snapshot = save_snapshot(index, workdir)
    del index
    if workload.stack == "cluster":
        return cluster_stack(snapshot, workdir)
    return WireStack(
        snapshot, workdir, workload.connections, workload.depth, workload.batch_size == 1
    )
