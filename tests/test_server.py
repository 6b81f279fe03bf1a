"""Behavioural tests of the network query plane.

Covers the full satellite checklist for the serving front end: seeded
differential equivalence against an in-process :class:`ServingEngine` across
all nine methods (fresh and post-update), epoch consistency at the network
boundary under interleaved queries and batch updates, backpressure with
monotone queue-depth hints and a fake-clock Lemma-1 admission scenario,
graceful drain with zero dropped in-flight requests, the ``serve`` CLI
subcommand end-to-end, and the closed-loop async load generator.
"""

from __future__ import annotations

import asyncio
import math
import struct
import threading

import pytest

from repro.algorithms.dijkstra import dijkstra_distance
from repro.exceptions import (
    ProtocolError,
    QueryRejectedError,
    RemoteServerError,
    ServerBackpressureError,
    ServerClosedError,
    ServingError,
)
from repro.graph.generators import load_dataset, random_connected_graph
from repro.graph.updates import generate_update_batch
from repro.registry import create_index
from repro.serving.admission import AdmissionController
from repro.serving.core import CACHE_STAGE
from repro.serving.engine import ServingEngine
from repro.server import AsyncClient, LoadReport, run_closed_loop
from repro.server.loadgen import quantile
from repro import obs
from repro.server.protocol import (
    OP_DISTANCES,
    OP_ERROR,
    OP_ONE_TO_MANY,
    OP_QUERY_BATCH,
    OP_RETRY,
    read_frame,
)
from repro.throughput.workload import sample_query_pairs

from tests.conftest import NEEDS_NATIVE, paper_example_graph
from tests.server_harness import (
    BlockingBackend,
    close_writer,
    fake_clock,
    open_raw,
    run,
    running_server,
    wait_for,
)
from tests.test_differential import NINE_SPECS
from tests.test_server_protocol import make_frame, pairs_frame


def build_engine(method: str = "BiDijkstra", graph=None, **engine_kwargs):
    index = create_index(NINE_SPECS.get(method, method), graph or paper_example_graph())
    index.build()
    return ServingEngine(index, cache_capacity=0, **engine_kwargs)


def as_tuples(batch):
    return [(u.u, u.v, u.old_weight, u.new_weight) for u in batch.updates]


def query_frame(seq: int, source: int, target: int) -> bytes:
    """One scalar query as wire bytes: a one-pair ``QUERY_BATCH`` frame."""
    return pairs_frame(seq, [(source, target)])


def distance_of(frame) -> float:
    """The one distance of a one-pair ``DISTANCES`` reply."""
    assert frame.op == OP_DISTANCES
    (distance,) = frame.payload["distances"]
    return distance


class GatedEngine(BlockingBackend):
    """A :class:`BlockingBackend` that answers through a real engine once
    released, so a test can queue frames behind a parked batch."""

    def __init__(self, engine) -> None:
        super().__init__()
        self.engine = engine

    def serve_batch(self, pairs):
        super().serve_batch(pairs)
        return self.engine.serve_batch(pairs)


async def read_frames(reader, count: int):
    return [await read_frame(reader) for _ in range(count)]


# ----------------------------------------------------------------------
# End-to-end over a started engine
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_full_request_surface(self):
        async def main(engine):
            async with running_server(engine) as server:
                async with await AsyncClient.connect(*server.address) as client:
                    assert await client.ping() == 0

                    reply = await client.query(0, 7)
                    assert (reply.distance, reply.epoch) == (16.0, 0)
                    assert reply.stage

                    batch = await client.query_batch([(0, 7), (0, 9), (4, 10)])
                    assert batch.epoch == 0
                    assert batch.distances == [
                        dijkstra_distance(engine.graph, s, t)
                        for s, t in [(0, 7), (0, 9), (4, 10)]
                    ]

                    otm = await client.one_to_many(0, [7, 9])
                    assert otm.distances == [16.0, 2.0]

                    epoch = await client.apply_batch([(0, 8, 6.0, 3.0)])
                    assert epoch == 1
                    after = await client.query(0, 7)
                    assert after.epoch == 1
                    assert after.distance == dijkstra_distance(
                        engine.graph, 0, 7
                    )
                    assert after.distance < 16.0  # the cheaper edge shows up

                    stats = await client.stats()
                    assert stats["server"]["requests_total"] >= 5
                    assert stats["server"]["errors_total"] == 0
                    assert stats["backend"]["epoch"] == 1

        with build_engine() as engine:
            run(main(engine))

    def test_pipelined_requests_one_connection(self):
        pairs = [(0, 7), (0, 9), (4, 10), (1, 7), (0, 13)]

        async def main(engine):
            async with running_server(engine) as server:
                async with await AsyncClient.connect(*server.address) as client:
                    replies = await asyncio.gather(
                        *(client.query(s, t) for s, t in pairs)
                    )
                    got = [r.distance for r in replies]
                    oracle = [
                        dijkstra_distance(engine.graph, s, t) for s, t in pairs
                    ]
                    assert got == oracle

        with build_engine() as engine:
            run(main(engine))

    def test_many_clients_share_one_server(self):
        async def main(engine):
            async with running_server(engine) as server:
                clients = [
                    await AsyncClient.connect(*server.address) for _ in range(4)
                ]
                try:
                    replies = await asyncio.gather(
                        *(c.query(0, 9) for c in clients)
                    )
                    assert [r.distance for r in replies] == [2.0] * 4
                finally:
                    for client in clients:
                        await client.close()
                assert server.stats()["connections_total"] == 4

        with build_engine() as engine:
            run(main(engine))

    def test_unreachable_pair_serves_infinity(self):
        graph = random_connected_graph(8, 0, seed=5)
        graph.add_vertex(99)  # isolated vertex: no path to anything

        async def main(engine):
            async with running_server(engine) as server:
                async with await AsyncClient.connect(*server.address) as client:
                    assert (await client.query(0, 99)).distance == math.inf
                    batch = await client.query_batch([(0, 99), (99, 0)])
                    assert batch.distances == [math.inf, math.inf]

        with build_engine(graph=graph) as engine:
            run(main(engine))

    def test_client_close_rejects_pending(self):
        backend = BlockingBackend()

        async def main():
            async with running_server(backend) as server:
                client = await AsyncClient.connect(*server.address)
                pending = asyncio.ensure_future(client.query(1, 2))
                await asyncio.sleep(0.05)
                await client.close()
                with pytest.raises(ServerClosedError):
                    await pending
                backend.release()

        run(main())

    def test_client_context_manager_and_repr_roundtrip(self):
        async def main(engine):
            async with running_server(engine) as server:
                async with await AsyncClient.connect(*server.address) as client:
                    reply = await client.query(0, 9)
                    assert "2.0" in repr(reply.distance)
                # closed on exit: further requests fail fast
                with pytest.raises(ServerClosedError):
                    await client.query(0, 9)

        with build_engine() as engine:
            run(main(engine))


class TestReplyAndRequestHygiene:
    def test_reply_over_the_frame_cap_is_a_typed_error_not_a_hang(self):
        """A reply that outgrows ``max_frame_bytes`` (packed replies are twice
        their request) answers ``frame_too_large`` on the request's seq and
        keeps the connection; before, the send task died and the client hung."""

        async def main(engine):
            async with running_server(engine, max_frame_bytes=256) as server:
                async with await AsyncClient.connect(*server.address) as client:
                    targets = [t % 14 for t in range(1, 40)]  # 160 B in, 320 B out
                    with pytest.raises(RemoteServerError) as excinfo:
                        await asyncio.wait_for(client.one_to_many(0, targets), 3.0)
                    assert excinfo.value.code == "frame_too_large"
                    # Same connection, still in sync: a reply that fits is served.
                    small = await client.one_to_many(0, targets[:8])
                    assert len(small.distances) == 8
                    assert await client.ping() == 0
                    assert server.stats()["errors_total"] == 1

        with build_engine() as engine:
            run(main(engine))

    def test_cancelled_request_leaves_no_pending_entry(self):
        """A caller that gives up (``wait_for`` timeout) frees its ``seq``;
        the late reply for it is dropped and later requests are unaffected."""
        backend = BlockingBackend()

        async def main():
            async with running_server(backend) as server:
                async with await AsyncClient.connect(*server.address) as client:
                    with pytest.raises(asyncio.TimeoutError):
                        await asyncio.wait_for(client.query(1, 2), 0.05)
                    assert client._pending == {}
                    await wait_for(lambda: server.stats()["inflight"] == 1)
                    backend.release()  # the abandoned request's reply arrives late...
                    await wait_for(lambda: server.stats()["requests_total"] == 1)
                    assert (await client.query(3, 4)).distance == 1.0  # ...and is ignored
                    assert client._pending == {}

        run(main())

    def test_unencodable_request_leaves_no_pending_entry(self):
        async def main(engine):
            async with running_server(engine) as server:
                async with await AsyncClient.connect(*server.address) as client:
                    with pytest.raises(ProtocolError):
                        await client.query_batch([(0, 2**31)])  # id outside int32
                    assert client._pending == {}
                    assert (await client.query_batch([(0, 7)])).distances == [16.0]

        with build_engine() as engine:
            run(main(engine))


# ----------------------------------------------------------------------
# Satellite: seeded differential vs. in-process ServingEngine, nine methods
# ----------------------------------------------------------------------
GRAPH_SEED = 3
UPDATE_SEED = 41
QUERY_SAMPLE = 20
ISOLATED = 99
#: Single-tree decompositions refuse a disconnected graph; the other six
#: methods also carry an ``inf`` pair through the float64 packing.
NEEDS_CONNECTED = {"DH2H", "MHL", "PostMHL"}


@pytest.mark.parametrize("method", sorted(NINE_SPECS))
def test_differential_network_vs_inprocess(method):
    """Server responses must be bit-identical to an in-process engine built
    from the same seed — fresh, and again after the same update batch —
    through the float64 packing, ``inf`` (an isolated vertex) included."""
    graph = random_connected_graph(36, 28, seed=GRAPH_SEED)
    pairs = list(sample_query_pairs(graph, QUERY_SAMPLE, seed=GRAPH_SEED + 1))
    disconnected = method not in NEEDS_CONNECTED
    if disconnected:
        graph.add_vertex(ISOLATED)  # every pair touching it is inf
        pairs += [(0, ISOLATED), (ISOLATED, 5)]
    targets = [t for _s, t in pairs]

    served = build_engine(method, graph.copy())
    local = build_engine(method, graph.copy())

    def same_bits(got, want):
        return [struct.pack("<d", d) for d in got] == [struct.pack("<d", d) for d in want]

    async def main():
        async with running_server(served) as server:
            async with await AsyncClient.connect(*server.address) as client:
                # Fresh build: batch plane, one-to-many plane and scalar plane.
                reply = await client.query_batch(pairs)
                assert reply.epoch == local.current_epoch == 0
                assert isinstance(reply.distances, list)
                assert len(reply.stages) == len(pairs)
                assert same_bits(reply.distances, local.query_batch(pairs))
                fanout = await client.one_to_many(0, targets)
                assert same_bits(fanout.distances, local.query_one_to_many(0, targets))
                if disconnected:
                    assert reply.distances[-2:] == [math.inf, math.inf]
                    assert fanout.distances[-2] == math.inf
                for source, target in pairs[:3] + pairs[-1:]:
                    got = await client.query(source, target)
                    assert got.distance == local.query(source, target)

                # Same seeded batch through both planes; identical epochs.
                batch = generate_update_batch(served.graph, 10, seed=UPDATE_SEED)
                local_batch = generate_update_batch(
                    local.graph, 10, seed=UPDATE_SEED
                )
                new_epoch = await client.apply_batch(as_tuples(batch))
                local.submit_batch(local_batch)
                assert local.wait_for_maintenance(timeout=30.0)
                assert new_epoch == local.current_epoch == 1

                reply = await client.query_batch(pairs)
                assert reply.epoch == 1
                assert same_bits(reply.distances, local.query_batch(pairs))
                fanout = await client.one_to_many(0, targets)
                assert fanout.epoch == 1
                assert same_bits(fanout.distances, local.query_one_to_many(0, targets))

    with served, local:
        run(main())


# ----------------------------------------------------------------------
# Satellite: epoch consistency at the network boundary
# ----------------------------------------------------------------------
def _epoch_graph_history(graph, rounds: int, volume: int = 5):
    """Expected graph state per epoch, plus the batch producing each epoch."""
    history = [graph.copy()]
    batches = []
    current = graph.copy()
    for round_index in range(rounds):
        batch = generate_update_batch(current, volume, seed=200 + round_index)
        batches.append(batch)
        batch.apply(current)
        history.append(current.copy())
    return history, batches


class TestEpochConsistency:
    ROUNDS = 4

    def _assert_interleaved_consistency(self, server_cm, graph, backend):
        """Queries racing batch updates must never observe a torn epoch:
        every batch reply's distances match the oracle for its single epoch."""
        history, batches = _epoch_graph_history(graph, self.ROUNDS)
        pairs = list(sample_query_pairs(graph, 8, seed=7))
        oracle = [
            {pair: dijkstra_distance(g, *pair) for pair in pairs} for g in history
        ]

        async def applier(server):
            async with await AsyncClient.connect(*server.address) as client:
                for batch in batches:
                    await client.apply_batch(as_tuples(batch))
                    await asyncio.sleep(0.01)

        async def querier(server, replies):
            async with await AsyncClient.connect(*server.address) as client:
                last_epoch = -1
                while True:
                    reply = await client.query_batch_with_retry(pairs)
                    replies.append(reply)
                    assert reply.epoch >= last_epoch, "epoch went backwards"
                    last_epoch = reply.epoch
                    if reply.epoch >= self.ROUNDS:
                        return
                    await asyncio.sleep(0)

        async def main():
            async with server_cm() as server:
                replies = []
                await asyncio.gather(
                    applier(server),
                    querier(server, replies),
                    querier(server, replies),
                )
                seen_epochs = {reply.epoch for reply in replies}
                for reply in replies:
                    expected = oracle[reply.epoch]
                    for pair, got in zip(pairs, reply.distances):
                        assert got == expected[pair], (
                            f"torn epoch {reply.epoch}: pair {pair} got {got!r}, "
                            f"oracle {expected[pair]!r}"
                        )
                assert self.ROUNDS in seen_epochs
                assert backend.current_epoch == self.ROUNDS

        run(main(), timeout=120.0)

    def test_serving_engine_no_torn_epochs(self):
        graph = paper_example_graph()
        with build_engine(graph=graph.copy()) as engine:
            import contextlib

            @contextlib.asynccontextmanager
            async def server_cm():
                async with running_server(engine) as server:
                    yield server

            self._assert_interleaved_consistency(server_cm, graph, engine)

    @NEEDS_NATIVE
    def test_cluster_engine_no_torn_epochs(self, tmp_path):
        from repro.cluster import ClusterEngine

        graph = paper_example_graph()
        index = create_index("BiDijkstra", graph.copy())
        index.build()
        # fork-before-loop: worker processes must exist before asyncio.run.
        with ClusterEngine.from_index(
            index, str(tmp_path), num_workers=2
        ) as engine:
            import contextlib

            @contextlib.asynccontextmanager
            async def server_cm():
                async with running_server(engine) as server:
                    yield server

            self._assert_interleaved_consistency(server_cm, graph, engine)


def test_failed_install_errors_only_the_request_that_caused_it(monkeypatch):
    """One failing install gets a typed ERROR frame; the next APPLY_BATCH
    installs and reports the advanced epoch instead of the stale error."""
    graph = paper_example_graph()
    engine = build_engine(graph=graph.copy())
    pairs = list(sample_query_pairs(graph, 8, seed=7))
    batch = generate_update_batch(graph, 4, seed=200)
    real_apply = engine.index.apply_batch

    def apply_fails_once(updates):
        monkeypatch.setattr(engine.index, "apply_batch", real_apply)
        raise ServingError("index install failed")

    monkeypatch.setattr(engine.index, "apply_batch", apply_fails_once)

    async def main():
        async with running_server(engine) as server:
            async with await AsyncClient.connect(*server.address) as client:
                with pytest.raises(RemoteServerError) as excinfo:
                    await client.apply_batch(as_tuples(batch))
                assert excinfo.value.code == "serving_failed"
                assert engine.current_epoch == 0

                assert await client.apply_batch(as_tuples(batch)) == 1
                reply = await client.query_batch(pairs)
                assert reply.epoch == 1
                oracle_graph = engine.graph_at(1)
                for pair, got in zip(pairs, reply.distances):
                    assert got == dijkstra_distance(oracle_graph, *pair)

    with engine:
        run(main())


# ----------------------------------------------------------------------
# Satellite: backpressure + admission control at the network boundary
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_retry_queue_depth_hints_monotone(self):
        backend = BlockingBackend()

        async def main():
            async with running_server(
                backend, max_inflight=2, max_inflight_per_connection=8
            ) as server:
                reader, writer = await open_raw(server)
                for seq in range(1, 9):
                    writer.write(query_frame(seq, 1, 2))
                await writer.drain()

                # Two admitted requests park in the executor; the six
                # overflow frames shed immediately with growing depth hints.
                retries = [await read_frame(reader) for _ in range(6)]
                assert all(f.op == OP_RETRY for f in retries)
                depths = [f.payload["queue_depth"] for f in retries]
                assert depths == sorted(depths) and len(set(depths)) == 6
                waits = [f.payload["suggested_wait_seconds"] for f in retries]
                assert all(w > 0 for w in waits)
                assert all(
                    f.payload["reason"] == "queue_full" for f in retries
                )

                backend.release()
                results = [await read_frame(reader) for _ in range(2)]
                assert all(f.op == OP_DISTANCES for f in results)
                await close_writer(writer)

        run(main())

    def test_accepted_after_retry_succeeds(self):
        backend = BlockingBackend()

        async def main():
            async with running_server(backend, max_inflight=1) as server:
                client = await AsyncClient.connect(*server.address)
                try:
                    parked = asyncio.ensure_future(client.query(1, 2))
                    await wait_for(lambda: server.stats()["inflight"] == 1)
                    with pytest.raises(ServerBackpressureError) as excinfo:
                        await client.query(3, 4)
                    assert excinfo.value.queue_depth >= 1
                    assert excinfo.value.suggested_wait_seconds > 0

                    backend.release()
                    assert (await parked).distance == 1.0
                    # The retried request is now admitted and served.
                    retried = await client.query_with_retry(3, 4)
                    assert retried.distance == 1.0
                    assert client.retries == 0  # first shed raised; with_retry clean
                finally:
                    await client.close()

        run(main())

    def test_per_connection_cap_isolates_slow_client(self):
        backend = BlockingBackend()

        async def main():
            async with running_server(
                backend, max_inflight=64, max_inflight_per_connection=2
            ) as server:
                reader, writer = await open_raw(server)
                for seq in range(1, 5):
                    writer.write(query_frame(seq, 1, 2))
                await writer.drain()
                # The greedy connection sheds beyond its own cap...
                retries = [await read_frame(reader) for _ in range(2)]
                assert all(f.op == OP_RETRY for f in retries)

                # ...while a well-behaved client is still admitted.
                client = await AsyncClient.connect(*server.address)
                try:
                    other = asyncio.ensure_future(client.query(5, 6))
                    await wait_for(lambda: server.stats()["inflight"] == 3)
                    backend.release()
                    assert (await other).distance == 1.0
                finally:
                    await client.close()
                results = [await read_frame(reader) for _ in range(2)]
                assert all(f.op == OP_DISTANCES for f in results)
                await close_writer(writer)

        run(main())

    def test_stalled_peer_drops_only_its_own_connection(self):
        """A peer that pipelines requests and never reads its replies stalls
        its own writes until ``write_timeout`` drops it; its slots are freed
        and a well-behaved client on the same server is answered meanwhile,
        including queries gathered into one batch with the stalled peer's."""
        import socket

        async def main(engine):
            async with running_server(engine, write_timeout=1.5) as server:
                sock = socket.socket()
                # Small kernel buffers on both ends: the path holds a few
                # hundred replies, the peer's unread StreamReader ~1 500 more.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(sock, server.address)
                _reader, writer = await asyncio.open_connection(sock=sock)
                await wait_for(lambda: server.stats()["connections"] == 1)
                (conn,) = server._connections
                conn.writer.transport.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                )
                async with await AsyncClient.connect(*server.address) as client:
                    writer.write(b"".join(query_frame(seq, 0, 7) for seq in range(1, 20001)))
                    await wait_for(lambda: server.stats()["retries_total"] > 0)
                    began = asyncio.get_running_loop().time()
                    for _ in range(50):
                        reply = await asyncio.wait_for(client.query_with_retry(0, 9), 1.0)
                        assert reply.distance == 2.0
                    assert asyncio.get_running_loop().time() - began < 1.0
                    # The stalled connection goes; the reading one stays.
                    await wait_for(lambda: server.stats()["connections"] == 1, timeout=10.0)
                    await wait_for(lambda: server.stats()["inflight"] == 0)
                    assert (await client.query(0, 7)).distance == 16.0
                await close_writer(writer)

        with build_engine() as engine:
            run(main(engine))

    def test_fake_clock_admission_maps_to_retry(self):
        """Lemma-1 shedding surfaces as a RETRY frame; once the fake clock
        advances past the arrival window the same request is admitted."""
        clock = fake_clock()
        admission = AdmissionController(
            response_qos=0.05,
            window_seconds=1.0,
            min_samples=5,
            clock=clock,
        )
        for _ in range(60):  # warm estimator: mean service ~0.04s
            admission.observe_latency(0.04)
        engine = build_engine(admission=admission)
        # Sanity: the controller sheds under a frozen clock eventually.
        assert admission.sustainable_rate() < math.inf

        async def main():
            async with running_server(engine) as server:
                async with await AsyncClient.connect(*server.address) as client:
                    shed = None
                    for _ in range(200):
                        try:
                            await client.query(0, 9)
                        except ServerBackpressureError as exc:
                            shed = exc
                            break
                    assert shed is not None, "admission never shed"
                    assert shed.reason == "admission"
                    assert shed.queue_depth >= 1
                    assert shed.suggested_wait_seconds > 0

                    # Frozen clock: still overloaded, still shedding.
                    with pytest.raises(ServerBackpressureError):
                        await client.query(0, 9)

                    # Advance past the window: the backlog ages out and the
                    # retried query is admitted and served.
                    clock.advance(10.0)
                    reply = await client.query_with_retry(0, 9)
                    assert reply.distance == 2.0

        with engine:
            run(main())

    def test_engine_rejection_without_server_is_query_rejected(self):
        """Control check: the same condition in-process raises
        QueryRejectedError — the server's RETRY is a faithful mapping."""
        clock = fake_clock()
        admission = AdmissionController(
            response_qos=0.05, window_seconds=1.0, min_samples=5, clock=clock
        )
        for _ in range(60):
            admission.observe_latency(0.04)
        with build_engine(admission=admission) as engine:
            with pytest.raises(QueryRejectedError):
                for _ in range(200):
                    engine.query(0, 9)


# ----------------------------------------------------------------------
# Satellite: graceful drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_delivers_all_inflight(self):
        backend = BlockingBackend()

        async def main():
            async with running_server(backend) as server:
                client = await AsyncClient.connect(*server.address)
                pending = [
                    asyncio.ensure_future(client.query(i, i + 1)) for i in range(5)
                ]
                await wait_for(lambda: server.stats()["inflight"] == 5)

                stop_task = asyncio.ensure_future(server.stop())
                await asyncio.sleep(0.05)
                assert not stop_task.done(), "stop() returned with work in flight"
                backend.release()
                await stop_task

                # Zero dropped: every parked request got its response.
                replies = await asyncio.gather(*pending)
                assert [r.distance for r in replies] == [1.0] * 5
                assert backend.served == 5
                await client.close()

        run(main())

    def test_drain_delivers_gathered_requests_behind_a_running_batch(self):
        """Requests admitted while a gathered batch runs are not on any task
        yet; ``stop()`` still waits for them, and only later arrivals are
        turned away."""
        backend = BlockingBackend()

        async def main():
            async with running_server(backend) as server:
                reader, writer = await open_raw(server)
                writer.write(query_frame(1, 1, 2))
                await wait_for(lambda: backend.batches == [1])  # parked on the executor
                writer.write(b"".join(query_frame(seq, seq, seq + 1) for seq in range(2, 6)))
                await wait_for(lambda: server.stats()["inflight"] == 5)

                stop_task = asyncio.ensure_future(server.stop())
                await wait_for(lambda: server.stats()["draining"])
                writer.write(query_frame(6, 6, 7))
                late = await read_frame(reader)
                assert (late.op, late.seq) == (OP_RETRY, 6)
                assert late.payload["reason"] == "draining"
                assert not stop_task.done(), "stop() returned with work gathered"

                backend.release()
                results = await read_frames(reader, 5)
                assert all(f.op == OP_DISTANCES for f in results)
                assert sorted(f.seq for f in results) == [1, 2, 3, 4, 5]
                await stop_task
                assert backend.batches == [1, 4]
                assert backend.served == 5
                await close_writer(writer)

        run(main())

    def test_drain_refuses_new_connections(self):
        backend = BlockingBackend()
        backend.release()

        async def main():
            async with running_server(backend) as server:
                host, port = server.address
            with pytest.raises(ConnectionError):
                reader, writer = await asyncio.open_connection(host, port)
                await close_writer(writer)

        run(main())

    def test_requests_during_drain_get_draining_retry(self):
        backend = BlockingBackend()

        async def main():
            async with running_server(backend) as server:
                client = await AsyncClient.connect(*server.address)
                reader, writer = await open_raw(server)

                parked = asyncio.ensure_future(client.query(1, 2))
                await wait_for(lambda: server.stats()["inflight"] == 1)
                stop_task = asyncio.ensure_future(server.stop())
                await wait_for(lambda: server.stats()["draining"])

                writer.write(query_frame(1, 3, 4))
                await writer.drain()
                frame = await read_frame(reader)
                assert frame.op == OP_RETRY
                assert frame.payload["reason"] == "draining"

                backend.release()
                await stop_task
                assert (await parked).distance == 1.0
                await client.close()
                await close_writer(writer)

        run(main())

    def test_stop_is_idempotent(self):
        backend = BlockingBackend()
        backend.release()

        async def main():
            async with running_server(backend) as server:
                await server.stop()
                await server.stop()
                assert not server.is_serving

        run(main())


# ----------------------------------------------------------------------
# Query frames that arrive together share one engine batch
# ----------------------------------------------------------------------
class TestGather:
    @pytest.mark.parametrize("stub", [False, True], ids=["engine", "stub"])
    def test_one_segment_over_the_connection_cap(self, stub):
        """32 frames in one segment, cap 16: the caps are per frame at
        arrival, so exactly 16 are served and 16 shed, each seq once."""
        backend = BlockingBackend() if stub else build_engine()

        async def main():
            async with running_server(backend, max_inflight_per_connection=16) as server:
                reader, writer = await open_raw(server)
                writer.write(b"".join(query_frame(seq, 0, 7) for seq in range(1, 33)))
                retries = await read_frames(reader, 16)
                assert all(f.op == OP_RETRY for f in retries)
                assert all(f.payload["reason"] == "queue_full" for f in retries)
                if stub:
                    assert server.stats()["inflight"] == 16
                    backend.release()
                results = await read_frames(reader, 16)
                assert all(f.op == OP_DISTANCES for f in results)
                assert sorted(f.seq for f in retries + results) == list(range(1, 33))
                assert [f.seq for f in results] == list(range(1, 17))
                stats = server.stats()
                assert stats["gathered_queries_total"] == 16
                assert stats["gathered_batches_total"] == 1
                assert stats["inflight"] == 0
                await close_writer(writer)

        if stub:
            run(main())
        else:
            with backend:
                run(main())

    def test_bad_requests_do_not_fail_their_neighbours(self):
        pairs = [(s, t) for s in range(7) for t in (7, 13)]  # 14 good pairs

        async def main(engine):
            async with running_server(engine) as server:
                reader, writer = await open_raw(server)
                frames = [query_frame(seq, s, t) for seq, (s, t) in enumerate(pairs, 1)]
                frames.insert(3, query_frame(100, 0, 999_999))  # unknown vertex
                frames.insert(9, make_frame(OP_QUERY_BATCH, 101, b"\x00" * 7))  # torn pair
                writer.write(b"".join(frames))
                by_seq = {f.seq: f for f in await read_frames(reader, 16)}
                assert len(by_seq) == 16
                assert by_seq[100].op == by_seq[101].op == OP_ERROR
                assert by_seq[100].payload["code"] == "vertex_not_found"
                assert by_seq[101].payload["code"] == "bad_payload"
                for seq, (s, t) in enumerate(pairs, 1):
                    got = distance_of(by_seq[seq])
                    assert struct.pack("<d", got) == struct.pack("<d", engine.query(s, t))
                stats = server.stats()
                assert stats["errors_total"] == 2 and stats["inflight"] == 0
                # The unknown vertex failed the batch of 15; each was re-served alone.
                assert stats["gathered_queries_total"] == 15
                await close_writer(writer)

        with build_engine() as engine:
            run(main(engine))

    def test_frames_of_two_connections_and_a_one_to_many_share_one_engine_batch(self):
        """Frames queued behind a parked batch — two ``QUERY_BATCH`` frames on
        two connections and a ``ONE_TO_MANY`` — are one ``serve_batch``, and
        each reply holds exactly its own pairs, in order, at one epoch, with
        the stage column the engine produced."""
        batch_a = [(0, 7), (0, 9), (4, 10)]
        batch_b = [(1, 7), (0, 13)]
        fan_source, fan_targets = 0, [9, 7, 13, 0]

        async def main(engine, backend):
            async with running_server(backend) as server:
                first, first_writer = await open_raw(server)
                second, second_writer = await open_raw(server)
                first_writer.write(query_frame(1, 0, 7))
                await wait_for(lambda: backend.batches == [1])  # parked on the executor
                first_writer.write(
                    pairs_frame(2, batch_a)
                    + make_frame(
                        OP_ONE_TO_MANY, 3,
                        struct.pack(f"<{len(fan_targets) + 1}i", fan_source, *fan_targets),
                    )
                )
                second_writer.write(pairs_frame(4, batch_b))
                await wait_for(lambda: server.stats()["inflight"] == 4)
                backend.release()
                replies = {f.seq: f for f in await read_frames(first, 3)}
                replies.update((f.seq, f) for f in await read_frames(second, 1))
                gathered = batch_a + [(fan_source, t) for t in fan_targets] + batch_b
                assert backend.batches == [1, len(gathered)]
                stats = server.stats()
                assert stats["gathered_batches_total"] == 2
                assert stats["gathered_queries_total"] == 1 + len(gathered)
                want = engine.serve_batch(gathered)
                stage = want.stage
                for seq, pairs in ((2, batch_a), (3, gathered[3:7]), (4, batch_b)):
                    payload = replies[seq].payload
                    assert replies[seq].op == OP_DISTANCES
                    assert payload["epoch"] == want.epoch == 0
                    assert payload["distances"] == [
                        dijkstra_distance(engine.graph, *pair) for pair in pairs
                    ]
                    assert payload["stages"] == [stage] * len(pairs)
                await close_writer(first_writer)
                await close_writer(second_writer)

        with build_engine() as engine:
            run(main(engine, GatedEngine(engine)))

    def test_a_bad_frame_fails_alone_among_gathered_frames(self):
        """One frame with an unknown vertex among its pairs fails the gathered
        batch; the frames are re-served one at a time, so only that frame
        gets ``vertex_not_found`` and the others their distances."""
        good = [(0, 7), (0, 9)]
        bad = [(4, 10), (0, 999_999), (1, 7)]

        async def main(engine, backend):
            async with running_server(backend) as server:
                reader, writer = await open_raw(server)
                writer.write(query_frame(1, 0, 7))
                await wait_for(lambda: backend.batches == [1])
                writer.write(
                    pairs_frame(2, good)
                    + pairs_frame(3, bad)
                    + make_frame(OP_ONE_TO_MANY, 4, struct.pack("<3i", 0, 9, 13))
                )
                await wait_for(lambda: server.stats()["inflight"] == 4)
                backend.release()
                by_seq = {f.seq: f for f in await read_frames(reader, 4)}
                assert by_seq[3].op == OP_ERROR
                assert by_seq[3].payload["code"] == "vertex_not_found"
                assert by_seq[2].payload["distances"] == [engine.query(*p) for p in good]
                assert by_seq[4].payload["distances"] == [engine.query(0, 9), engine.query(0, 13)]
                # The batch of 7 failed; then each frame alone: 2, 3 (fails), 2.
                assert backend.batches == [1, 7, 2, 3, 2]
                stats = server.stats()
                assert stats["errors_total"] == 1 and stats["inflight"] == 0
                assert stats["requests_total"] == 3
                await close_writer(writer)

        with build_engine() as engine:
            run(main(engine, GatedEngine(engine)))

    def test_warm_cache_stages_reach_the_client_per_pair(self):
        """DCH fronts its search with the distance cache: a batch that mixes
        cached and computed pairs reports each pair's stage, and a cached
        scalar query says so."""
        index = create_index(NINE_SPECS["DCH"], paper_example_graph())
        index.build()

        async def main(engine):
            async with running_server(engine) as server:
                async with await AsyncClient.connect(*server.address) as client:
                    cold = await client.query_batch([(0, 7), (0, 9)])
                    (computed,) = set(cold.stages)
                    assert computed != CACHE_STAGE
                    mixed = await client.query_batch([(4, 10), (0, 7), (9, 0)])
                    assert mixed.stages == [computed, CACHE_STAGE, CACHE_STAGE]
                    assert mixed.distances == [
                        dijkstra_distance(engine.graph, *pair)
                        for pair in [(4, 10), (0, 7), (9, 0)]
                    ]
                    scalar = await client.query(4, 10)
                    assert (scalar.stage, scalar.from_cache) == (CACHE_STAGE, True)
                    assert scalar.distance == mixed.distances[0]
                    fresh = await client.query(1, 7)
                    assert (fresh.stage, fresh.from_cache) == (computed, False)

        with ServingEngine(index) as engine:
            run(main(engine))

    def test_admission_shed_is_one_retry_per_gathered_request(self):
        clock = fake_clock()
        admission = AdmissionController(
            response_qos=0.05, window_seconds=1.0, min_samples=5, clock=clock
        )
        for _ in range(60):
            admission.observe_latency(0.04)
        engine = build_engine(admission=admission)

        async def main():
            async with running_server(engine) as server:
                reader, writer = await open_raw(server)
                for _ in range(200):
                    writer.write(b"".join(query_frame(seq, 0, 9) for seq in range(1, 9)))
                    replies = await read_frames(reader, 8)
                    if replies[0].op == OP_RETRY:
                        break
                    assert all(f.op == OP_DISTANCES for f in replies)
                else:
                    raise AssertionError("admission never shed")
                # The engine admits or sheds a batch as a whole.
                assert [f.op for f in replies] == [OP_RETRY] * 8
                assert [f.seq for f in replies] == list(range(1, 9))
                assert all(f.payload["reason"] == "admission" for f in replies)
                depths = [f.payload["queue_depth"] for f in replies]
                assert depths == sorted(depths) and depths[0] >= 1
                assert server.stats()["inflight"] == 0
                await close_writer(writer)

        with engine:
            run(main())

    def _assert_one_epoch_per_gathered_batch(self, server_cm, graph, backend):
        """One-pair replies of one segment were one ``serve_batch``: they
        share an epoch and match that epoch's oracle while updates interleave."""
        rounds = TestEpochConsistency.ROUNDS
        history, batches = _epoch_graph_history(graph, rounds)
        pairs = list(sample_query_pairs(graph, 8, seed=7))
        oracle = [[dijkstra_distance(g, *pair) for pair in pairs] for g in history]

        async def applier(server):
            async with await AsyncClient.connect(*server.address) as client:
                for batch in batches:
                    await client.apply_batch(as_tuples(batch))
                    await asyncio.sleep(0.01)

        async def querier(server, seen):
            reader, writer = await open_raw(server)
            segment = b"".join(
                query_frame(seq, s, t) for seq, (s, t) in enumerate(pairs)
            )
            while rounds not in seen:
                writer.write(segment)
                replies = sorted(await read_frames(reader, len(pairs)), key=lambda f: f.seq)
                distances = [distance_of(f) for f in replies]
                epochs = {f.payload["epoch"] for f in replies}
                assert len(epochs) == 1, f"gathered batch saw epochs {epochs}"
                epoch = epochs.pop()
                assert distances == oracle[epoch]
                seen.add(epoch)
            await close_writer(writer)

        async def main():
            async with server_cm() as server:
                seen = set()
                await asyncio.gather(applier(server), querier(server, seen))
                assert backend.current_epoch == rounds

        run(main(), timeout=120.0)

    def test_gathered_batch_reports_one_epoch(self):
        graph = paper_example_graph()
        with build_engine(graph=graph.copy()) as engine:
            self._assert_one_epoch_per_gathered_batch(
                lambda: running_server(engine), graph, engine
            )

    @NEEDS_NATIVE
    def test_gathered_batch_reports_one_epoch_cluster(self, tmp_path):
        from repro.cluster import ClusterEngine

        graph = paper_example_graph()
        index = create_index("BiDijkstra", graph.copy())
        index.build()
        # fork-before-loop: worker processes must exist before asyncio.run.
        with ClusterEngine.from_index(index, str(tmp_path), num_workers=2) as engine:
            self._assert_one_epoch_per_gathered_batch(
                lambda: running_server(engine), graph, engine
            )

    def test_lone_request_waits_for_nothing(self):
        """The gather has no timer: one request on an idle server is served
        as a batch of one without any other arrival to push it out."""

        async def main(engine):
            async with running_server(engine) as server:
                async with await AsyncClient.connect(*server.address) as client:
                    reply = await asyncio.wait_for(client.query(0, 7), 3.0)
                    assert reply.distance == 16.0
                    stats = server.stats()
                    assert stats["gathered_batches_total"] == 1
                    assert stats["gathered_queries_total"] == 1
                    assert (await client.stats())["server"]["gathered_batches_total"] == 1

        with build_engine() as engine:
            run(main(engine))

    def test_spans_are_per_batch_and_the_counter_per_request(self):
        async def main(engine):
            async with running_server(engine) as server:
                reader, writer = await open_raw(server)
                writer.write(b"".join(query_frame(seq, 0, 7) for seq in range(1, 7)))
                assert all(f.op == OP_DISTANCES for f in await read_frames(reader, 6))
                await close_writer(writer)

        obs.reset()
        obs.enable()
        try:
            with build_engine() as engine:
                run(main(engine))
            for name in ("server.serve", "server.request"):
                spans = [e for e in obs.tracer().events() if e.name == name]
                assert [(e.args["op"], e.args["size"]) for e in spans] == [("query", 6)]
            counter = obs.registry().get("repro_server_requests_total", op="query")
            assert counter.value == 6.0
        finally:
            obs.disable()
            obs.reset()

    def test_registry_reads_the_newest_servers_totals(self):
        """With two servers in one process the registry's ``repro_server_*``
        totals are the newest server's own counters: they equal its
        ``stats()``, and the older server's ``stats()`` is untouched."""

        async def serve(server, queries: int, unknown_ops: int) -> None:
            reader, writer = await open_raw(server)
            writer.write(b"".join(query_frame(seq, 0, 7) for seq in range(queries)))
            writer.write(b"".join(make_frame(0x55, 100 + i, b"{}") for i in range(unknown_ops)))
            frames = await read_frames(reader, queries + unknown_ops)
            assert sum(f.op == OP_DISTANCES for f in frames) == queries
            await close_writer(writer)

        def series_sum(name: str) -> float:
            return sum(entry["value"] for entry in obs.registry().to_json()[name]["series"])

        async def main(engine):
            async with running_server(engine) as first:
                await serve(first, 6, 1)
                before = first.stats()
                async with running_server(engine) as second:
                    await serve(second, 2, 3)
                    await serve(first, 1, 0)
                    stats = second.stats()
                    assert (stats["requests_total"], stats["errors_total"]) == (2, 3)
                    assert series_sum("repro_server_requests_total") == 2
                    assert series_sum("repro_server_errors_total") == 3
                    assert series_sum("repro_server_connections_total") == 1
                    assert first.stats()["requests_total"] == before["requests_total"] + 1
                    assert first.stats()["errors_total"] == before["errors_total"] == 1

        obs.reset()
        obs.enable()
        try:
            with build_engine() as engine:
                run(main(engine))
        finally:
            obs.disable()
            obs.reset()


# ----------------------------------------------------------------------
# Satellite: `repro-experiments serve` CLI end-to-end
# ----------------------------------------------------------------------
def test_cli_serve_end_to_end(tmp_path):
    from repro.experiments.cli import main as cli_main

    announce = tmp_path / "addr"
    rc = []
    thread = threading.Thread(
        target=lambda: rc.append(
            cli_main(
                [
                    "serve",
                    "--method",
                    "BiDijkstra",
                    "--dataset",
                    "NY",
                    "--duration",
                    "6",
                    "--announce",
                    str(announce),
                ]
            )
        ),
        daemon=True,
    )
    thread.start()

    deadline = 60.0
    import time

    start = time.monotonic()
    while not announce.exists():
        assert time.monotonic() - start < deadline, "server never announced"
        assert thread.is_alive(), "serve CLI exited before announcing"
        time.sleep(0.05)
    host, port = announce.read_text().split()

    oracle_graph = load_dataset("NY")
    pairs = list(sample_query_pairs(oracle_graph, 5, seed=9))

    async def main():
        async with await AsyncClient.connect(host, int(port)) as client:
            assert await client.ping() == 0
            for source, target in pairs:
                reply = await client.query(source, target)
                # rel_tol matches the differential harness: the native
                # kernel may associate path sums differently than a
                # from-scratch Dijkstra (last-ulp effect, DESIGN.md §6).
                assert math.isclose(
                    reply.distance,
                    dijkstra_distance(oracle_graph, source, target),
                    rel_tol=1e-9,
                    abs_tol=0.0,
                )
            stats = await client.stats()
            assert stats["server"]["requests_total"] >= len(pairs)

    run(main())
    thread.join(timeout=60.0)
    assert not thread.is_alive(), "serve CLI failed to drain"
    assert rc == [0]


# ----------------------------------------------------------------------
# Satellite: closed-loop load generator
# ----------------------------------------------------------------------
class TestLoadgen:
    def test_quantile_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert quantile(samples, 0.5) == 50.0
        assert quantile(samples, 0.99) == 99.0
        assert quantile(samples, 0.999) == 100.0
        assert quantile(samples, 0.001) == 1.0
        assert quantile([7.0], 0.5) == 7.0
        assert quantile([], 0.5) == 0.0

    def test_scalar_closed_loop(self):
        pairs = [(0, 7), (0, 9), (4, 10), (1, 7)]

        async def main(engine):
            async with running_server(engine) as server:
                host, port = server.address
                report = await run_closed_loop(
                    host,
                    port,
                    pairs,
                    duration_seconds=0.4,
                    concurrency=2,
                    label="scalar",
                )
                assert isinstance(report, LoadReport)
                assert report.label == "scalar"
                assert report.operations > 0
                assert report.queries == report.operations  # scalar plane
                assert report.qps > 0
                assert (
                    report.p50_seconds
                    <= report.p99_seconds
                    <= report.p999_seconds
                )
                payload = report.to_dict()
                assert payload["qps"] == report.qps
                assert "latencies" not in payload

        with build_engine() as engine:
            run(main(engine), timeout=60.0)

    def test_batch_closed_loop_amortises(self):
        pairs = [(0, 7), (0, 9), (4, 10), (1, 7)]

        async def main(engine):
            async with running_server(engine) as server:
                host, port = server.address
                report = await run_closed_loop(
                    host,
                    port,
                    pairs,
                    duration_seconds=0.4,
                    concurrency=2,
                    batch_size=8,
                    label="batch",
                )
                assert report.batch_size == 8
                assert report.queries == report.operations * 8
                assert report.qps > 0

        with build_engine() as engine:
            run(main(engine), timeout=60.0)

    def test_loadgen_counts_retries(self):
        backend = BlockingBackend()
        backend.release()

        async def main():
            async with running_server(backend, max_inflight=1) as server:
                host, port = server.address
                report = await run_closed_loop(
                    host,
                    port,
                    [(1, 2)],
                    duration_seconds=0.3,
                    concurrency=4,
                    label="contended",
                )
                assert report.operations > 0
                assert report.retries >= 0  # RETRYs absorbed, ops completed

        run(main(), timeout=60.0)
