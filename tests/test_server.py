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
import time

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
from repro.core.pmhl import PMHLIndex
from repro.graph.generators import grid_road_network, load_dataset, random_connected_graph
from repro.graph.updates import generate_update_batch, generate_update_stream
from repro.registry import create_index
from repro.serving.admission import AdmissionController
from repro.serving.core import CACHE_STAGE
from repro.serving.engine import ServingEngine
from repro.server import AsyncClient, LoadReport, run_closed_loop
from repro.server.loadgen import quantile
from repro import obs
from repro.server.protocol import (
    OP_APPLY_BATCH,
    OP_DISTANCES,
    OP_ERROR,
    OP_ONE_TO_MANY,
    OP_PING,
    OP_QUERY_BATCH,
    OP_RESULT,
    OP_RETRY,
    FrameSplitter,
    encode_frame,
    read_frame,
)
from repro.throughput.workload import sample_query_pairs

from tests.conftest import paper_example_graph
from tests.server_harness import (
    TEST_TIMEOUT,
    BlockingBackend,
    close_writer,
    drain_frames,
    fake_clock,
    fake_server,
    on_server_loop,
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
        # An isolated vertex: no path to anything.
        graph = random_connected_graph(8, 0, seed=5).with_edges(vertices=[99])

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
# The client against peers that misbehave on purpose
# ----------------------------------------------------------------------
def split_frames(data: bytes):
    splitter = FrameSplitter()
    splitter.feed(data)
    frames = []
    while (frame := splitter.next_frame()) is not None:
        frames.append(frame)
    return frames


def recording_peer():
    """A peer that reads everything until EOF and answers nothing: its
    handler and the bytes it received."""
    received = bytearray()
    closed = asyncio.Event()

    async def handler(reader, writer):
        while data := await reader.read(65536):
            received.extend(data)
        writer.close()
        closed.set()

    return handler, received, closed


def answering_peer(first_reply):
    """A peer that answers the first request with ``first_reply(seq)``
    (wire bytes) and every later one with a ``PING`` result at epoch 5."""

    async def handler(reader, writer):
        splitter = FrameSplitter()
        replies = 0
        while data := await reader.read(65536):
            splitter.feed(data)
            while (frame := splitter.next_frame()) is not None:
                writer.write(
                    first_reply(frame.seq) if not replies
                    else encode_frame(OP_RESULT, frame.seq, {"pong": True, "epoch": 5})
                )
                replies += 1
        writer.close()

    return handler


class TestClientOutbox:
    def test_one_turns_requests_and_a_send_raw_leave_in_issue_order(self):
        """Eight queries, a ``send_raw``, eight more, all issued in one
        loop turn: the peer reads them in that order, and the client made
        two writes (``send_raw`` flushes what was queued before it)."""
        handler, received, closed = recording_peer()
        raw = encode_frame(OP_PING, 999)

        async def main():
            async with fake_server(handler) as address:
                client = await AsyncClient.connect(*address)
                writes = []
                write = client._writer.write
                client._writer.write = lambda data: (writes.append(data), write(data))
                tasks = [asyncio.ensure_future(client.query(i, i + 1)) for i in range(8)]
                tasks.append(asyncio.ensure_future(client.send_raw(raw)))
                tasks += [asyncio.ensure_future(client.query(i, i + 1)) for i in range(8, 16)]
                await wait_for(lambda: len(received) == 16 * 18 + len(raw))
                await client.close()
                results = await asyncio.gather(*tasks, return_exceptions=True)
                await asyncio.wait_for(closed.wait(), 5.0)
            assert results[8] is None  # send_raw
            assert all(isinstance(r, ServerClosedError) for r in results[:8] + results[9:])
            frames = split_frames(bytes(received))
            assert [f.seq for f in frames] == [*range(1, 9), 999, *range(9, 17)]
            pairs = [struct.unpack("<ii", f.payload) for f in frames if f.op == OP_QUERY_BATCH]
            assert pairs == [(i, i + 1) for i in range(16)]
            assert len(writes) == 2 and b"".join(writes) == bytes(received)

        run(main())

    def test_close_fails_queued_requests_and_writes_nothing(self):
        handler, received, closed = recording_peer()

        async def main():
            async with fake_server(handler) as address:
                client = await AsyncClient.connect(*address)
                tasks = [asyncio.ensure_future(client.query(i, i + 1)) for i in range(16)]
                await asyncio.sleep(0)  # every frame is queued, the flush has not run
                assert client._pending and client._outbox
                await client.close()
                results = await asyncio.gather(*tasks, return_exceptions=True)
                assert all(isinstance(r, ServerClosedError) for r in results)
                await asyncio.wait_for(closed.wait(), 5.0)
                assert bytes(received) == b""
                with pytest.raises(ServerClosedError):
                    await client.query(0, 1)

        run(main())


class TestClientNeverHangs:
    """A typed error, never a hang: each await below has a 2 s bound."""

    def test_requests_after_a_clean_server_close_fail_at_once(self):
        async def close_after_one(reader, writer):
            await reader.read(65536)
            writer.close()

        async def main():
            async with fake_server(close_after_one) as address:
                client = await AsyncClient.connect(*address)
                try:
                    for _ in range(3):
                        with pytest.raises(ServerClosedError):
                            await asyncio.wait_for(client.ping(), 2.0)
                    assert client._pending == {}
                finally:
                    await client.close()

        run(main())

    @pytest.mark.parametrize(
        "op,payload",
        [
            (OP_RETRY, [1, 2]),
            (OP_RETRY, "busy"),
            (OP_RETRY, {"queue_depth": "many"}),
            (OP_ERROR, [1, 2]),
            (OP_ERROR, 7),
            (OP_PING, None),  # a request op is no reply
        ],
    )
    def test_a_malformed_refusal_fails_only_its_own_request(self, op, payload):
        handler = answering_peer(lambda seq: encode_frame(op, seq, payload))

        async def main():
            async with fake_server(handler) as address:
                async with await AsyncClient.connect(*address) as client:
                    with pytest.raises(ProtocolError):
                        await asyncio.wait_for(client.ping(), 2.0)
                    assert await asyncio.wait_for(client.ping(), 2.0) == 5
                    assert client._pending == {}

        run(main())

    def test_a_reply_that_does_not_decode_fails_only_its_own_request(self):
        # A DISTANCES payload of one byte: the frame boundary holds, the
        # payload is ``bad_payload``.
        handler = answering_peer(lambda seq: make_frame(OP_DISTANCES, seq, b"\x00"))

        async def main():
            async with fake_server(handler) as address:
                async with await AsyncClient.connect(*address) as client:
                    with pytest.raises(ProtocolError) as excinfo:
                        await asyncio.wait_for(client.query(0, 1), 2.0)
                    assert excinfo.value.code == "bad_payload"
                    assert await asyncio.wait_for(client.ping(), 2.0) == 5

        run(main())


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
        graph = graph.with_edges(vertices=[ISOLATED])  # every pair touching it is inf
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


class TestInstallsStayOffTheLoop:
    def test_queries_are_answered_while_an_install_runs(self):
        """A ``QUERY_BATCH`` sent after an ``APPLY_BATCH`` whose install is
        held mid-way is answered first, at the new epoch, by the stage the
        install has released so far; the ``APPLY_BATCH`` reply follows once
        the install finishes."""
        graph = grid_road_network(7, 7, seed=7)
        engine = ServingEngine(PMHLIndex(graph, num_partitions=4, seed=0), cache_capacity=0)
        pairs = list(sample_query_pairs(graph, 12, seed=3))
        batch = generate_update_stream(graph, 1, volume=8, seed=5)[0]
        held, gate = threading.Event(), threading.Event()
        real_release = engine.router.release

        def release(update_stage, epoch):
            real_release(update_stage, epoch)
            if update_stage == "overlay_shortcut_update":  # PCH is released
                held.set()
                gate.wait(TEST_TIMEOUT)

        engine.router.release = release

        async def main():
            async with running_server(engine) as server:
                reader, writer = await open_raw(server)
                writer.write(
                    encode_frame(OP_APPLY_BATCH, 1, {"updates": as_tuples(batch)})
                )
                await wait_for(held.is_set, timeout=10.0)
                writer.write(pairs_frame(2, pairs))
                reply = await read_frame(reader)
                assert (reply.op, reply.seq) == (OP_DISTANCES, 2)
                assert reply.payload["epoch"] == 1
                assert set(reply.payload["stages"]) == {"PCH"}
                oracle = engine.graph_at(1)
                assert reply.payload["distances"] == pytest.approx(
                    [dijkstra_distance(oracle, *pair) for pair in pairs], rel=1e-12
                )

                gate.set()
                applied = await read_frame(reader)
                assert (applied.op, applied.seq) == (OP_RESULT, 1)
                assert applied.payload == {"epoch": 1, "applied": len(batch)}
                writer.write(pairs_frame(3, pairs))
                final = await read_frame(reader)
                assert set(final.payload["stages"]) == {"CROSS_BOUNDARY"}
                assert final.payload["distances"] == pytest.approx(
                    reply.payload["distances"], rel=1e-12
                )
                await close_writer(writer)

        with engine:
            try:
                run(main())
            finally:
                gate.set()

    class Recording:
        """A backend that records the threads each of its calls ran on."""

        def __init__(self, engine) -> None:
            self.engine = engine
            self.serves_in_process = engine.serves_in_process
            self.threads = {"serve_batch": set(), "apply_batch": set(), "stats": set()}

        @property
        def current_epoch(self) -> int:
            return self.engine.current_epoch

        def serve_batch(self, pairs):
            self.threads["serve_batch"].add(threading.get_ident())
            return self.engine.serve_batch(pairs)

        def apply_batch(self, batch):
            self.threads["apply_batch"].add(threading.get_ident())
            return self.engine.apply_batch(batch)

        def stats(self):
            self.threads["stats"].add(threading.get_ident())
            return self.engine.stats()

    @staticmethod
    async def _record_threads(backend) -> int:
        """Send every request kind through a server over ``backend``; the
        server loop's thread."""

        async def loop_thread() -> int:
            return threading.get_ident()

        async with running_server(backend) as server:
            server_thread = await on_server_loop(server, loop_thread())
            async with await AsyncClient.connect(*server.address) as client:
                await client.query(0, 7)
                await client.query_batch([(0, 7), (0, 9)])
                await client.one_to_many(0, [7, 9])
                assert await client.apply_batch([(0, 8, 6.0, 3.0)]) == 1
                await client.stats()
        threads = backend.threads
        assert threads["apply_batch"] and threads["stats"]
        assert server_thread not in threads["apply_batch"] | threads["stats"]
        assert threading.get_ident() not in threads["apply_batch"] | threads["stats"]
        return server_thread

    def test_query_frames_are_served_on_the_loop_and_installs_off_it(self):
        """For an in-process engine ``serve_batch`` runs on the server loop's
        thread for both query ops; ``apply_batch`` and ``stats`` run on
        another thread."""
        with build_engine() as engine:
            backend = self.Recording(engine)
            server_thread = run(self._record_threads(backend))
        assert backend.threads["serve_batch"] == {server_thread}

    def test_cluster_query_frames_are_served_off_the_loop(self, tmp_path):
        """A cluster's serve waits on its readers' pipes, so its query
        frames, like installs and stats, are served off the loop."""
        from repro.cluster import ClusterEngine

        index = create_index("BiDijkstra", paper_example_graph())
        index.build()
        # fork-before-loop: worker processes must exist before asyncio.run.
        with ClusterEngine.from_index(index, str(tmp_path), num_workers=2) as engine:
            backend = self.Recording(engine)
            server_thread = run(self._record_threads(backend))
        assert backend.threads["serve_batch"]
        assert server_thread not in backend.threads["serve_batch"]

    def test_a_hung_cluster_reader_does_not_stall_the_loop(self, tmp_path):
        """While a query batch waits out a hung reader's timeout, the server
        still answers a ``PING`` at once; the batch then gets its typed
        error."""
        from repro.cluster import ClusterEngine

        index = create_index("BiDijkstra", paper_example_graph())
        index.build()
        worker_timeout = 3.0

        async def main(engine):
            async with running_server(engine) as server:
                async with await AsyncClient.connect(*server.address) as client:
                    await client.query_batch([(0, 7), (0, 9)])  # both readers answer
                    engine.inject_worker_hang(0, seconds=30.0)
                    await asyncio.sleep(0.2)
                    stalled = asyncio.ensure_future(client.query_batch([(0, 7), (0, 9)]))
                    await wait_for(lambda: server.stats()["inflight"] == 1)
                    started = time.monotonic()
                    await client.ping()
                    assert time.monotonic() - started < worker_timeout / 3
                    assert not stalled.done()
                    with pytest.raises(RemoteServerError) as excinfo:
                        await stalled
                    assert excinfo.value.code == "cluster_worker_failed"

        with ClusterEngine.from_index(
            index, str(tmp_path), num_workers=2, worker_timeout=worker_timeout
        ) as engine:
            run(main(engine))


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
                writer.write(b"".join(query_frame(seq, 1, 2) for seq in range(1, 9)))
                await writer.drain()

                # The segment is read as a whole: two frames are admitted and
                # park the server's loop as one batch, and the six overflow
                # frames shed before it with growing depth hints.
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
        """Frames buffered behind a parked batch meet the caps when it
        returns: with a cap of one, the first is admitted and the second
        shed, and the shed request is admitted once retried."""
        backend = BlockingBackend()

        async def main():
            async with running_server(backend, max_inflight=1) as server:
                client = await AsyncClient.connect(*server.address)
                try:
                    parked = asyncio.ensure_future(client.query(1, 2))
                    await wait_for(lambda: backend.batches == [1])
                    admitted = asyncio.ensure_future(client.query(3, 4))
                    shed = asyncio.ensure_future(client.query(5, 6))
                    await asyncio.sleep(0)  # both written, neither read
                    assert server.stats()["inflight"] == 1

                    backend.release()
                    assert (await parked).distance == 1.0
                    assert (await admitted).distance == 1.0
                    with pytest.raises(ServerBackpressureError) as excinfo:
                        await shed
                    assert excinfo.value.reason == "queue_full"
                    assert excinfo.value.queue_depth >= 1
                    assert excinfo.value.suggested_wait_seconds > 0
                    assert backend.batches == [1, 1]
                    # The retried request is now admitted and served.
                    retried = await client.query_with_retry(5, 6)
                    assert retried.distance == 1.0
                    assert client.retries == 0  # first shed raised; with_retry clean
                finally:
                    await client.close()

        run(main())

    def test_per_connection_cap_isolates_slow_client(self):
        """A greedy connection sheds beyond its own cap, while a well-behaved
        client's frame, read in the same loop turn, joins the same batch."""
        backend = BlockingBackend()

        async def main():
            async with running_server(
                backend, max_inflight=64, max_inflight_per_connection=2
            ) as server:
                client = await AsyncClient.connect(*server.address)
                try:
                    await wait_for(lambda: server.stats()["connections"] == 1)
                    reader, writer = await open_raw(server)
                    writer.write(b"".join(query_frame(seq, 1, 2) for seq in range(1, 5)))
                    # The greedy connection sheds beyond its own cap...
                    retries = await read_frames(reader, 2)
                    assert all(f.op == OP_RETRY for f in retries)
                    assert {f.seq for f in retries} == {3, 4}
                    await wait_for(lambda: backend.batches == [2])

                    # ...and again for what it buffers behind the parked
                    # batch, while a well-behaved client is admitted.
                    writer.write(b"".join(query_frame(seq, 1, 2) for seq in range(5, 8)))
                    other = asyncio.ensure_future(client.query(5, 6))
                    for _ in range(2):  # one turn queues the frame, the next writes it
                        await asyncio.sleep(0)
                    backend.release()
                    assert (await other).distance == 1.0
                finally:
                    await client.close()
                replies = await read_frames(reader, 5)
                assert [f.op for f in replies].count(OP_RETRY) == 1
                assert sorted(f.seq for f in replies) == [1, 2, 5, 6, 7]
                assert backend.batches == [2, 3]
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
                reader, writer = await open_raw(server)
                writer.write(b"".join(query_frame(seq, seq, seq + 1) for seq in range(1, 6)))
                await wait_for(lambda: backend.batches == [5])  # one parked batch
                assert server.stats()["inflight"] == 5

                stop_task = asyncio.ensure_future(on_server_loop(server, server.stop()))
                await asyncio.sleep(0.05)
                assert not stop_task.done(), "stop() returned with work in flight"
                backend.release()
                await stop_task

                # Zero dropped: every parked request got its response.
                replies = await read_frames(reader, 5)
                assert [f.op for f in replies] == [OP_DISTANCES] * 5
                assert sorted(f.seq for f in replies) == [1, 2, 3, 4, 5]
                assert [distance_of(f) for f in replies] == [1.0] * 5
                assert backend.served == 5
                await close_writer(writer)

        run(main())

    def test_drain_refuses_frames_buffered_behind_a_parked_batch(self):
        """A drain asked for while a batch parks the loop starts once it
        returns: the parked batch is delivered, and each frame that waited
        unread behind it is read before the close and refused with a
        ``draining`` RETRY."""
        backend = BlockingBackend()

        async def main():
            async with running_server(backend) as server:
                reader, writer = await open_raw(server)
                writer.write(query_frame(1, 1, 2))
                await wait_for(lambda: backend.batches == [1])  # the loop is parked
                writer.write(b"".join(query_frame(seq, seq, seq + 1) for seq in range(2, 6)))

                stop_task = asyncio.ensure_future(on_server_loop(server, server.stop()))
                await asyncio.sleep(0.05)
                assert not stop_task.done(), "stop() returned with work in flight"

                backend.release()
                await stop_task
                frames = await drain_frames(reader)  # until the server closes
                assert [(f.op, f.seq) for f in frames] == [(OP_DISTANCES, 1)] + [
                    (OP_RETRY, seq) for seq in range(2, 6)
                ]
                assert {f.payload["reason"] for f in frames[1:]} == {"draining"}
                assert backend.batches == [1]
                assert backend.served == 1
                await close_writer(writer)

        run(main())

    def test_drain_delivers_gathered_requests_behind_a_running_batch(self):
        """A batch served off the loop (a cluster's) leaves the loop reading:
        requests admitted while it runs are not on any task yet; ``stop()``
        still waits for them, and only later arrivals are turned away."""
        backend = BlockingBackend(serves_in_process=False)

        async def main():
            async with running_server(backend) as server:
                reader, writer = await open_raw(server)
                writer.write(query_frame(1, 1, 2))
                await wait_for(lambda: backend.batches == [1])  # parked on the executor
                writer.write(b"".join(query_frame(seq, seq, seq + 1) for seq in range(2, 6)))
                await wait_for(lambda: server.stats()["inflight"] == 5)

                stop_task = asyncio.ensure_future(on_server_loop(server, server.stop()))
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
        """An install in flight keeps the drain open (it runs off the loop),
        and a query frame arriving meanwhile is refused with ``draining``."""
        backend = BlockingBackend()

        async def main():
            async with running_server(backend) as server:
                client = await AsyncClient.connect(*server.address)
                reader, writer = await open_raw(server)

                parked = asyncio.ensure_future(client.apply_batch([(0, 1, 1.0, 2.0)]))
                await wait_for(lambda: backend.applied == [1])
                assert server.stats()["inflight"] == 1
                stop_task = asyncio.ensure_future(on_server_loop(server, server.stop()))
                await wait_for(lambda: server.stats()["draining"])

                writer.write(query_frame(1, 3, 4))
                await writer.drain()
                frame = await read_frame(reader)
                assert frame.op == OP_RETRY
                assert frame.payload["reason"] == "draining"
                assert not stop_task.done()

                backend.release()
                await stop_task
                assert await parked == 1
                assert backend.batches == []
                await client.close()
                await close_writer(writer)

        run(main())

    def test_stop_is_idempotent(self):
        backend = BlockingBackend()
        backend.release()

        async def main():
            async with running_server(backend) as server:
                await on_server_loop(server, server.stop())
                await on_server_loop(server, server.stop())
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
        """Frames buffered behind a parked batch — two ``QUERY_BATCH`` frames
        on two connections and a ``ONE_TO_MANY`` — are one ``serve_batch``, and
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
                await wait_for(lambda: backend.batches == [1])  # the loop is parked
                first_writer.write(
                    pairs_frame(2, batch_a)
                    + make_frame(
                        OP_ONE_TO_MANY, 3,
                        struct.pack(f"<{len(fan_targets) + 1}i", fan_source, *fan_targets),
                    )
                )
                second_writer.write(pairs_frame(4, batch_b))
                assert server.stats()["inflight"] == 1  # nothing read meanwhile
                # Both connections' frames are read in one loop turn when the
                # parked batch returns, and are gathered before the next serve.
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
        batch; the engine names the missing vertex's position, so that frame
        gets ``vertex_not_found`` and the others are served again as one
        batch."""
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
                assert server.stats()["inflight"] == 1  # nothing read meanwhile
                backend.release()
                by_seq = {f.seq: f for f in await read_frames(reader, 4)}
                assert by_seq[3].op == OP_ERROR
                assert by_seq[3].payload["code"] == "vertex_not_found"
                assert by_seq[2].payload["distances"] == [engine.query(*p) for p in good]
                assert by_seq[4].payload["distances"] == [engine.query(0, 9), engine.query(0, 13)]
                # The batch of 7 failed; then frames 2 and 4 as one batch of 4.
                assert backend.batches == [1, 7, 4]
                # The server counts a request once its reply is written.
                await wait_for(lambda: server.stats()["requests_total"] == 3)
                stats = server.stats()
                assert stats["errors_total"] == 1 and stats["inflight"] == 0
                assert stats["requests_total"] == 3
                await close_writer(writer)

        with build_engine() as engine:
            run(main(engine, GatedEngine(engine)))

    @pytest.mark.parametrize("bad_frames", [(4,), (0, 5)])
    def test_a_bad_frame_costs_one_more_backend_call_not_one_a_frame(self, bad_frames):
        """Eight frames gathered behind a parked batch, ``bad_frames`` of
        them naming an unknown vertex: the batch fails at the first missing
        vertex's position, that frame gets its error, and the rest are served
        again as one batch — one backend call more per bad frame, where a
        re-serve of every frame alone took 8 + 1."""
        frames = [[(0, 7 + index % 3), (index % 6, 9)] for index in range(8)]
        for index in bad_frames:
            frames[index] = [(0, 7), (-3 - index, 9)]

        async def main(engine, backend):
            async with running_server(backend) as server:
                reader, writer = await open_raw(server)
                writer.write(query_frame(100, 0, 7))
                await wait_for(lambda: backend.batches == [1])
                writer.write(b"".join(
                    pairs_frame(seq + 1, pairs) for seq, pairs in enumerate(frames)
                ))
                backend.release()
                replies = {f.seq: f for f in await read_frames(reader, 9)}
                for index, pairs in enumerate(frames):
                    reply = replies[index + 1]
                    if index in bad_frames:
                        assert reply.op == OP_ERROR
                        assert reply.payload["code"] == "vertex_not_found"
                        assert f"vertex {-3 - index} " in reply.payload["message"]
                    else:
                        assert reply.payload["distances"] == [engine.query(*p) for p in pairs]
                good = 16 - 2 * len(bad_frames)
                calls = [16] + [16 - 2 * count for count in range(1, len(bad_frames) + 1)]
                assert backend.batches == [1] + calls and calls[-1] == good
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
            requests = server.stats()["requests_total"] + queries
            reader, writer = await open_raw(server)
            writer.write(b"".join(query_frame(seq, 0, 7) for seq in range(queries)))
            writer.write(b"".join(make_frame(0x55, 100 + i, b"{}") for i in range(unknown_ops)))
            frames = await read_frames(reader, queries + unknown_ops)
            assert sum(f.op == OP_DISTANCES for f in frames) == queries
            # The server counts a request once its reply is written.
            await wait_for(lambda: server.stats()["requests_total"] == requests)
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
