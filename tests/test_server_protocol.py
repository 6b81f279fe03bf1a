"""Protocol-level tests of the network query plane: codec + malformed-frame fuzz.

The fuzz classes drive seeded random malformed bytes at a live server —
truncated length prefixes, oversized lengths, bad version bytes, garbage
payloads, torn/empty/oversize packed batch columns, mid-frame disconnects,
and fully random streams — and assert the
contract from ISSUE/DESIGN §12: every malformed input yields a *typed error
frame* or a *clean connection close*, never a crash and never a hang (each
scenario re-verifies the server still answers on a fresh connection, and
every await sits under a hard timeout).
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import struct

import numpy

import pytest

from repro.exceptions import (
    FrameTooLargeError,
    ProtocolError,
    ProtocolVersionError,
)
from repro.graph.graph import Graph
from repro.kernels.arena import build_remap
from repro.registry import create_index
from repro.serving.engine import ServingEngine
from repro.server import AsyncClient
from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FIXED_BODY_BYTES,
    OP_APPLY_BATCH,
    OP_DISTANCES,
    OP_ERROR,
    OP_ONE_TO_MANY,
    OP_PING,
    OP_QUERY_BATCH,
    OP_RESULT,
    OP_RETRY,
    MAX_STAGE_NAMES,
    PROTOCOL_VERSION,
    Frame,
    FrameSplitter,
    decode_body,
    encode_distances,
    encode_frame,
    read_frame,
)

from tests.conftest import paper_example_graph
from tests.oracles import codec as oracle
from tests.server_harness import (
    close_writer,
    drain_frames,
    open_raw,
    run,
    running_server,
)

FUZZ_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def engine():
    """One started single-process engine shared by every protocol test."""
    index = create_index("BiDijkstra", paper_example_graph())
    index.build()
    with ServingEngine(index, cache_capacity=0) as running:
        yield running


def make_body(op: int, seq: int, raw_payload: bytes, version: int = PROTOCOL_VERSION):
    return bytes((version, op)) + seq.to_bytes(4, "big") + raw_payload


def make_frame(op: int, seq: int, raw_payload: bytes, version: int = PROTOCOL_VERSION):
    body = make_body(op, seq, raw_payload, version)
    return len(body).to_bytes(4, "big") + body


def pairs_frame(seq: int, pairs) -> bytes:
    """A packed ``QUERY_BATCH`` frame as wire bytes (one pair is a scalar query)."""
    return make_frame(OP_QUERY_BATCH, seq, b"".join(struct.pack("<ii", *p) for p in pairs))


def distances_raw(epoch: int, distances, ids: bytes, names: bytes) -> bytes:
    """A ``DISTANCES`` payload assembled field by field (malformed on demand)."""
    head = struct.pack(f"<qI{len(distances)}d", epoch, len(distances), *distances)
    return head + ids + names


async def assert_alive(server) -> None:
    """The liveness probe every fuzz scenario ends with."""
    client = await AsyncClient.connect(*server.address)
    try:
        assert await client.ping() >= 0
    finally:
        await client.close()


# ----------------------------------------------------------------------
# Codec unit tests
# ----------------------------------------------------------------------
class TestCodec:
    def test_roundtrip_simple(self):
        payload = {"updates": [[3, 9, 1.0, 2.5]]}
        frame = decode_body(encode_frame(OP_APPLY_BATCH, 17, payload)[4:])
        assert (frame.op, frame.seq, frame.payload) == (OP_APPLY_BATCH, 17, payload)

    def test_roundtrip_empty_payload(self):
        frame = decode_body(encode_frame(OP_PING, 1)[4:])
        assert frame.op == OP_PING and frame.seq == 1 and frame.payload is None

    def test_roundtrip_infinity_distance(self):
        # RESULT stays JSON: the stdlib codec round-trips inf.
        frame = decode_body(encode_frame(OP_RESULT, 2, {"distance": math.inf})[4:])
        assert frame.payload["distance"] == math.inf

    def test_packed_query_batch_layout_and_roundtrip(self):
        pairs = [(3, 9), (0, 2**31 - 1), (-1, 7)]
        wire = encode_frame(OP_QUERY_BATCH, 5, {"pairs": [list(p) for p in pairs]})
        # n x (int32 source, int32 target), little-endian, straight after the header.
        assert wire[4 + FIXED_BODY_BYTES:] == b"".join(struct.pack("<ii", *p) for p in pairs)
        frame = decode_body(wire[4:])
        assert (frame.op, frame.seq) == (OP_QUERY_BATCH, 5)
        # the decoded payload is the packed ids, read by the server as one array
        assert numpy.frombuffer(frame.payload, "<i4").reshape(-1, 2).tolist() == [
            list(p) for p in pairs
        ]
        # any iterable of 2-sequences encodes to the same bytes
        assert encode_frame(OP_QUERY_BATCH, 5, {"pairs": iter(pairs)}) == wire

    def test_an_id_array_packs_like_the_list(self):
        pairs = [(3, 9), (0, 2**31 - 1), (-(2**31), 7), (0, 1)]
        wire = encode_frame(OP_QUERY_BATCH, 5, {"pairs": pairs})
        for dtype in (numpy.int64, numpy.int32, numpy.uint16):
            ids = numpy.array(pairs if dtype != numpy.uint16 else [(3, 9)], dtype=dtype)
            sent = pairs if dtype != numpy.uint16 else [(3, 9)]
            assert encode_frame(OP_QUERY_BATCH, 5, {"pairs": ids}) == encode_frame(
                OP_QUERY_BATCH, 5, {"pairs": sent}
            )
        assert wire == encode_frame(OP_QUERY_BATCH, 5, {"pairs": numpy.array(pairs)})

    def test_packed_one_to_many_layout_and_roundtrip(self):
        wire = encode_frame(OP_ONE_TO_MANY, 6, {"source": 4, "targets": range(3)})
        assert wire[4 + FIXED_BODY_BYTES:] == struct.pack("<4i", 4, 0, 1, 2)
        # decoded as the packed ids of its pairs, like a QUERY_BATCH payload
        payload = decode_body(wire[4:]).payload
        assert numpy.frombuffer(payload, "<i4").reshape(-1, 2).tolist() == [[4, 0], [4, 1], [4, 2]]

    def test_packed_distances_are_bit_exact(self):
        distances = [0.0, 0.1 + 0.2, math.inf, 1e-310, 16.0]
        stages = ["cache", "BIDIJKSTRA", "cache", "shard1", "cache"]
        sent = {"distances": distances, "epoch": 2**40, "stages": stages}
        wire = encode_frame(OP_DISTANCES, 7, sent)
        # epoch, n, the distance column, one stage id a pair, the name table.
        assert wire[4 + FIXED_BODY_BYTES:] == distances_raw(
            2**40, distances, bytes((0, 1, 0, 2, 0)), b"cache\nBIDIJKSTRA\nshard1"
        )
        payload = decode_body(wire[4:]).payload
        assert payload == sent
        assert [struct.pack("<d", d) for d in payload["distances"]] == [
            struct.pack("<d", d) for d in distances
        ]

    def test_distances_carry_the_full_stage_id_range(self):
        names = [f"shard{i}" for i in range(MAX_STAGE_NAMES)]
        sent = {"distances": [1.0] * MAX_STAGE_NAMES, "epoch": 3, "stages": names[::-1]}
        assert decode_body(encode_frame(OP_DISTANCES, 1, sent)[4:]).payload == sent

    @pytest.mark.parametrize(
        "op,payload",
        [
            (OP_QUERY_BATCH, {"pairs": [(0, 2**31)]}),  # id outside int32
            (OP_QUERY_BATCH, {"pairs": [(0, -(2**31) - 1)]}),
            (OP_QUERY_BATCH, {"pairs": [(0, 1, 2)]}),  # not a pair
            (OP_QUERY_BATCH, {"pairs": [(0, "x")]}),
            (OP_QUERY_BATCH, {"pears": []}),
            (OP_QUERY_BATCH, None),
            (OP_ONE_TO_MANY, {"source": 2**31, "targets": [1]}),
            (OP_ONE_TO_MANY, {"source": 0, "targets": [1.5]}),
            # Range, type and shape checks of the id columns (astype("<i4")
            # alone would wrap an int64 id silently).
            (OP_QUERY_BATCH, {"pairs": numpy.array([[0, 2**31]])}),
            (OP_QUERY_BATCH, {"pairs": numpy.array([[0, -(2**31) - 1]])}),
            (OP_QUERY_BATCH, {"pairs": numpy.array([[0.0, 1.0]])}),
            (OP_QUERY_BATCH, {"pairs": numpy.array([[True, False]])}),
            (OP_QUERY_BATCH, {"pairs": numpy.zeros((2, 3), dtype=numpy.int32)}),
            (OP_QUERY_BATCH, {"pairs": numpy.zeros(4, dtype=numpy.int32)}),
            (OP_QUERY_BATCH, {"pairs": [(0, 1.5)]}),
            (OP_QUERY_BATCH, {"pairs": [(3, 9), (0, True)]}),
            (OP_QUERY_BATCH, {"pairs": [(False, 9)]}),
            (OP_QUERY_BATCH, {"pairs": [(1, 2, 3), (4,)]}),  # 2k ids, not k pairs
            (OP_ONE_TO_MANY, {"source": True, "targets": [1]}),
            (OP_ONE_TO_MANY, {"source": 0, "targets": numpy.array([2**31])}),
            (OP_DISTANCES, {"distances": [1.0], "epoch": "zero", "stages": ["s"]}),
            (OP_DISTANCES, {"distances": [1.0, 2.0], "epoch": 0, "stages": ["s"]}),
            # 257 distinct stage names do not fit a u8 stage id.
            (
                OP_DISTANCES,
                {
                    "distances": [1.0] * (MAX_STAGE_NAMES + 1),
                    "epoch": 0,
                    "stages": [str(i) for i in range(MAX_STAGE_NAMES + 1)],
                },
            ),
        ],
    )
    def test_packed_encode_rejects_bad_values_client_side(self, op, payload):
        with pytest.raises(ProtocolError):
            encode_frame(op, 1, payload)

    @pytest.mark.parametrize(
        "op,raw",
        [
            (OP_QUERY_BATCH, b""),  # empty
            (OP_QUERY_BATCH, struct.pack("<3i", 1, 2, 3)),  # odd id count
            (OP_QUERY_BATCH, struct.pack("<2i", 1, 2)[:-1]),  # torn record
            (OP_ONE_TO_MANY, b""),
            (OP_ONE_TO_MANY, struct.pack("<i", 0)),  # a source and no target
            (OP_ONE_TO_MANY, struct.pack("<2i", 0, 1) + b"\x00"),
            (OP_DISTANCES, b""),
            (OP_DISTANCES, struct.pack("<q", 0)),  # an epoch and no distance
            (OP_DISTANCES, struct.pack("<qd", 0, 1.0)[:-3]),
            # Shorter than 12 + 9n: the last stage id is missing.
            (OP_DISTANCES, distances_raw(0, [1.0, 2.0], b"\x00", b"")),
            (OP_DISTANCES, struct.pack("<qI", 0, 2**32 - 1)),  # n far past the bytes
            (OP_DISTANCES, distances_raw(0, [], b"", b"cache")),  # n = 0
            # A stage id past the name table.
            (OP_DISTANCES, distances_raw(0, [1.0], b"\x01", b"BIDIJKSTRA")),
            (OP_DISTANCES, distances_raw(0, [1.0], b"\x00", b"\xff\xfecache")),  # not UTF-8
        ],
    )
    def test_decode_malformed_packed_payload_is_recoverable_with_seq(self, op, raw):
        with pytest.raises(ProtocolError) as excinfo:
            decode_body(make_body(op, 41, raw))
        assert excinfo.value.code == "bad_payload"
        assert excinfo.value.seq == 41
        assert excinfo.value.recoverable

    def test_seq_echo_bounds(self):
        frame = decode_body(encode_frame(OP_PING, 2**32 - 1)[4:])
        assert frame.seq == 2**32 - 1
        with pytest.raises(ProtocolError):
            encode_frame(OP_PING, 2**32)
        with pytest.raises(ProtocolError):
            encode_frame(0x1FF, 1)

    def test_encode_rejects_oversized(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame(OP_APPLY_BATCH, 1, {"blob": "x" * 64}, max_frame_bytes=32)

    def test_decode_body_too_short(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_body(b"\x01\x01")
        assert not excinfo.value.recoverable

    def test_decode_bad_version(self):
        with pytest.raises(ProtocolVersionError) as excinfo:
            decode_body(make_body(OP_PING, 1, b"", version=9))
        assert excinfo.value.code == "bad_version"
        assert excinfo.value.found == 9

    def test_decode_garbage_json_is_recoverable_with_seq(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_body(make_body(OP_APPLY_BATCH, 77, b"\xff\x00not-json"))
        assert excinfo.value.code == "bad_payload"
        assert excinfo.value.seq == 77
        assert excinfo.value.recoverable

    def test_read_frame_concatenated_stream(self):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(OP_PING, 1))
            reader.feed_data(encode_frame(OP_QUERY_BATCH, 2, {"pairs": [(0, 1)]}))
            reader.feed_eof()
            first = await read_frame(reader)
            second = await read_frame(reader)
            assert (first.op, first.seq) == (OP_PING, 1)
            assert (second.op, second.seq) == (OP_QUERY_BATCH, 2)

        run(main())

    def test_read_frame_oversized_prefix(self):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data((DEFAULT_MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            reader.feed_eof()
            with pytest.raises(FrameTooLargeError):
                await read_frame(reader)

        run(main())

    def test_read_frame_truncated_raises_incomplete(self):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data((20).to_bytes(4, "big") + b"\x01\x01abc")
            reader.feed_eof()
            with pytest.raises(asyncio.IncompleteReadError):
                await read_frame(reader)

        run(main())


# ----------------------------------------------------------------------
# The codec against its oracle: the encoder and decoder it replaced
# ----------------------------------------------------------------------
#: Ids at and just past the int32 bounds, the bool look-alikes and a float.
EDGE_IDS = (0, 1, 2**31 - 1, -(2**31), 2**31, -(2**31) - 1, True, False, 1.5, 2.0)
#: Distances whose bits must survive: NaNs with payloads (quiet and
#: signalling), both zeros, both infinities and a subnormal.
EDGE_DISTANCES = tuple(
    struct.unpack("<d", struct.pack("<Q", bits))[0]
    for bits in (
        0x7FF8_0000_0000_1234, 0x7FF0_0000_0000_0001, 0xFFF8_0000_0000_0000,
        0x8000_0000_0000_0000, 0x0000_0000_0000_0000, 0x7FF0_0000_0000_0000,
        0xFFF0_0000_0000_0000, 0x0000_0000_0000_0001,
    )
)


def random_id(rng: random.Random):
    roll = rng.random()
    if roll < 0.55:
        return rng.randrange(-3, 2304)
    if roll < 0.75:
        return rng.choice(EDGE_IDS)
    if roll < 0.9:
        return rng.choice((numpy.int32, numpy.int64, numpy.uint16))(rng.randrange(2304))
    return rng.randrange(2)  # an id 0 or 1, beside which a bool may hide


def random_pairs(rng: random.Random):
    count = rng.choice((1, 1, 2, 7, 64))
    clean = rng.random() < 0.5  # half the payloads hold only plain ids
    pairs = [
        (rng.randrange(2304), rng.randrange(2304)) if clean else (random_id(rng), random_id(rng))
        for _ in range(count)
    ]
    roll = rng.random()
    if roll < 0.1:
        pairs[rng.randrange(count)] = (1, 2, 3)  # not a pair
    elif roll < 0.15:
        pairs[-1:] = [(1, 2, 3), (4,)]  # 2k ids, not k pairs
    elif roll < 0.3:
        dtype = rng.choice((numpy.int64, numpy.int32, numpy.float64, numpy.bool_))
        return numpy.array([[rng.randrange(-5, 2304) for _ in range(2)] for _ in range(count)], dtype=dtype)
    elif roll < 0.35:
        return numpy.array([[0, rng.choice((2**31, -(2**31) - 1, 2**31 - 1))]])
    elif roll < 0.5:
        return [list(pair) for pair in pairs]
    return pairs


def random_distances(rng: random.Random):
    count = rng.choice((1, 2, 64, 256, 257))
    distances = [
        rng.choice(EDGE_DISTANCES) if rng.random() < 0.3 else rng.random() * 1e4
        for _ in range(count)
    ]
    roll = rng.random()
    if roll < 0.3:
        stages = rng.choice(("CROSS_BOUNDARY", "cache", "native"))
    elif roll < 0.6:
        stages = [rng.choice(("cache", "DCH", "native")) for _ in range(count)]
    elif roll < 0.75:
        stages = [f"shard{i}" for i in range(count)]  # 256 names fit, 257 do not
    elif roll < 0.85:
        stages = ["cache"] * (count + 1)
    else:
        stages = ["cache"] * count
    epoch = rng.choice((0, 3, 2**40, 2**63 - 1, -1, 2**63, True, False, 1.5, "zero"))
    if rng.random() < 0.3:
        distances = numpy.array(distances)
    return {"distances": distances, "epoch": epoch, "stages": stages}


def random_request(rng: random.Random):
    """``(op, seq, payload, max_frame_bytes)`` of one random frame, valid or not."""
    op = rng.choice((OP_QUERY_BATCH, OP_QUERY_BATCH, OP_ONE_TO_MANY, OP_DISTANCES,
                     OP_DISTANCES, OP_APPLY_BATCH, OP_RESULT, OP_PING))
    if op == OP_QUERY_BATCH:
        payload = {"pairs": random_pairs(rng)}
    elif op == OP_ONE_TO_MANY:
        payload = {"source": random_id(rng), "targets": [random_id(rng) for _ in range(rng.randrange(1, 9))]}
    elif op == OP_DISTANCES:
        payload = random_distances(rng)
    elif op == OP_PING:
        payload = None
    else:
        payload = rng.choice(({"updates": [[0, 8, 6.0, 3.0]]}, {"distance": math.inf}, [1, "x"], {"x": {1, 2}}))
    seq = rng.choice((0, 1, 2**32 - 1, rng.randrange(2**32), rng.randrange(2**32), 2**32, -1))
    if rng.random() < 0.05:
        op = rng.choice((0x1FF, -1))
    return op, seq, payload, rng.choice((DEFAULT_MAX_FRAME_BYTES,) * 9 + (96,))


def outcome(call, *args):
    """What ``call`` returned, or the type and code of the ProtocolError it raised."""
    try:
        return call(*args)
    except ProtocolError as exc:
        return ("error", type(exc).__name__, exc.code, exc.seq, exc.recoverable)


def canonical(frame):
    """A decode outcome with every distance as its eight bytes (a NaN is
    not equal to itself)."""
    if frame[0] == "error":
        return frame
    op, seq, payload = frame
    if isinstance(payload, dict) and "distances" in payload:
        payload = {**payload, "distances": [struct.pack("<d", d) for d in payload["distances"]]}
    return op, seq, payload


class TestCodecAgainstOracle:
    """Seeded random payloads through the codec and through the parent's
    (``tests/oracles/codec.py``): the same bytes or the same typed refusal,
    and the same frames decoded, distances bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_encode_gives_the_oracles_bytes_or_refusal(self, seed):
        rng = random.Random(seed)
        accepted = refused = 0
        for _ in range(1500):
            op, seq, payload, cap = random_request(rng)
            want = outcome(oracle.encode_frame, op, seq, payload, cap)
            assert outcome(encode_frame, op, seq, payload, cap) == want, (op, seq, payload, cap)
            if isinstance(want, bytes):
                accepted += 1
            else:
                refused += 1
        assert accepted > 300 and refused > 300

    @pytest.mark.parametrize("seed", range(4))
    def test_decode_and_split_give_the_oracles_frames(self, seed):
        """Encoded frames, and each with a byte flipped or its body cut short:
        ``decode_body`` and the splitter read what the oracle reads."""
        rng = random.Random(100 + seed)
        decoded = 0
        while decoded < 600:
            op, seq, payload, _cap = random_request(rng)
            wire = outcome(oracle.encode_frame, op, seq, payload)
            if not isinstance(wire, bytes):
                continue
            body = bytearray(wire[4:])
            roll = rng.random()
            if roll < 0.3:
                body[rng.randrange(len(body))] = rng.randrange(256)
            elif roll < 0.5:
                del body[rng.randrange(len(body)):]
            body = bytes(body)
            want = canonical(outcome(oracle.decode_body, body))
            assert canonical(outcome(decode_body, body)) == want, body
            if len(body) >= FIXED_BODY_BYTES:
                splitter = FrameSplitter()
                splitter.feed(len(body).to_bytes(4, "big") + body)
                assert canonical(outcome(splitter.next_frame)) == want, body
            decoded += want[0] != "error"

    @pytest.mark.parametrize("names", [1, 2, MAX_STAGE_NAMES])
    def test_server_encode_decodes_to_the_oracles_payload(self, names):
        """:func:`encode_distances` straight from a batch's columns (one
        name table for the whole batch, as the server sends it) decodes to
        what the oracle encodes from the mapping."""
        rng = random.Random(names)
        table = [f"stage{i}" for i in range(names)]
        count = max(names, 64)
        ids = bytes(rng.randrange(names) for _ in range(count))
        distances = numpy.array(
            [rng.choice(EDGE_DISTANCES + (rng.random(),)) for _ in range(count)]
        )
        stages = [table[i] for i in ids]
        wire = encode_distances(9, 2**40, distances.tobytes(), ids, "\n".join(table).encode())
        want = oracle.encode_frame(
            OP_DISTANCES, 9, {"distances": distances, "epoch": 2**40, "stages": stages}
        )
        assert canonical(decode_body(wire[4:])) == canonical(oracle.decode_body(want[4:]))
        if names == 1:  # one stage: the server's frame is the oracle's, byte for byte
            assert wire == want


# ----------------------------------------------------------------------
# Seeded malformed-frame fuzz against a live server
# ----------------------------------------------------------------------
class TestMalformedFrames:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_truncated_length_prefix_clean_close(self, engine, seed):
        async def main():
            async with running_server(engine) as server:
                rng = random.Random(seed)
                reader, writer = await open_raw(server)
                writer.write(rng.randbytes(rng.randint(1, 3)))
                writer.write_eof()
                assert await drain_frames(reader) == []  # clean close, no crash
                await close_writer(writer)
                await assert_alive(server)

        run(main())

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_oversized_length_prefix_typed_error(self, engine, seed):
        async def main():
            async with running_server(engine) as server:
                rng = random.Random(seed)
                length = DEFAULT_MAX_FRAME_BYTES + rng.randint(1, 2**24)
                reader, writer = await open_raw(server)
                writer.write(length.to_bytes(4, "big") + rng.randbytes(16))
                await writer.drain()
                frames = await drain_frames(reader)
                assert [f.op for f in frames] == [OP_ERROR]
                assert frames[0].payload["code"] == "frame_too_large"
                await close_writer(writer)
                await assert_alive(server)

        run(main())

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_bad_version_byte_typed_error(self, engine, seed):
        async def main():
            async with running_server(engine) as server:
                rng = random.Random(seed)
                version = rng.choice(
                    [v for v in range(256) if v != PROTOCOL_VERSION]
                )
                reader, writer = await open_raw(server)
                writer.write(make_frame(OP_PING, 5, b"", version=version))
                await writer.drain()
                frames = await drain_frames(reader)
                assert [f.op for f in frames] == [OP_ERROR]
                assert frames[0].payload["code"] == "bad_version"
                await close_writer(writer)
                await assert_alive(server)

        run(main())

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_garbage_payload_typed_error_keeps_connection(self, engine, seed):
        async def main():
            async with running_server(engine) as server:
                rng = random.Random(seed)
                garbage = rng.randbytes(8 * rng.randint(0, 7) + rng.randint(1, 7))
                seq = rng.randint(1, 2**31)
                reader, writer = await open_raw(server)
                writer.write(make_frame(OP_QUERY_BATCH, seq, garbage))
                # The stream stayed in sync, so the same connection must
                # still answer a valid request afterwards.
                writer.write(make_frame(OP_PING, seq + 1, b""))
                await writer.drain()
                error = await read_frame(reader)
                assert error.op == OP_ERROR
                assert error.payload["code"] == "bad_payload"
                assert error.seq == seq
                pong = await read_frame(reader)
                assert pong.op == OP_RESULT and pong.seq == seq + 1
                await close_writer(writer)
                await assert_alive(server)

        run(main())

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_mid_frame_disconnect_clean_close(self, engine, seed):
        async def main():
            async with running_server(engine) as server:
                rng = random.Random(seed)
                claimed = rng.randint(FIXED_BODY_BYTES + 10, 4096)
                sent = rng.randint(1, claimed - 1)
                reader, writer = await open_raw(server)
                writer.write(claimed.to_bytes(4, "big") + rng.randbytes(sent))
                writer.write_eof()
                assert await drain_frames(reader) == []
                await close_writer(writer)
                await assert_alive(server)

        run(main())

    @pytest.mark.parametrize("seed", range(5))
    def test_random_garbage_stream_never_crashes(self, engine, seed):
        async def main():
            async with running_server(engine) as server:
                rng = random.Random(1000 + seed)
                reader, writer = await open_raw(server)
                writer.write(rng.randbytes(rng.randint(1, 512)))
                writer.write_eof()
                frames = await drain_frames(reader)
                # Typed error frames or a clean close — nothing else.
                assert all(f.op in (OP_ERROR, OP_RETRY) for f in frames)
                await close_writer(writer)
                await assert_alive(server)

        run(main())

    def test_fuzz_barrage_on_one_connection(self, engine):
        """Alternate malformed and valid frames until the server closes us;
        every response is typed, and the server survives the whole barrage."""

        async def main():
            async with running_server(engine) as server:
                rng = random.Random(99)
                reader, writer = await open_raw(server)
                for index in range(20):
                    kind = rng.randrange(3)
                    if kind == 0:
                        writer.write(make_frame(OP_QUERY_BATCH, index + 1, rng.randbytes(7)))
                    elif kind == 1:
                        writer.write(pairs_frame(index + 1, [(0, 7)]))
                    else:
                        writer.write(make_frame(rng.randint(0x20, 0x7F), index + 1, b"{}"))
                    try:
                        await writer.drain()
                    except (ConnectionError, OSError):
                        break
                writer.write_eof()
                frames = await drain_frames(reader)
                assert frames, "server answered nothing on a syncable stream"
                assert all(f.op in (OP_DISTANCES, OP_ERROR, OP_RETRY) for f in frames)
                await close_writer(writer)
                await assert_alive(server)

        run(main())


# ----------------------------------------------------------------------
# Seeded fuzz of the packed payloads (protocol v3)
# ----------------------------------------------------------------------
def packed_request(rng: random.Random, vertices: int = 14):
    """A valid packed batch request: ``(op, payload bytes, query count)``."""
    count = rng.randint(1, 24)
    ids = [rng.randrange(vertices) for _ in range(2 * count)]
    if rng.random() < 0.5:
        return OP_QUERY_BATCH, struct.pack(f"<{2 * count}i", *ids), count
    return OP_ONE_TO_MANY, struct.pack(f"<{count + 1}i", *ids[: count + 1]), count


class TestPackedPayloadFuzz:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_torn_columns_typed_error_keeps_connection(self, engine, seed):
        """A payload whose length is not a whole number of records (odd id
        count, chopped bytes) is a recoverable ``bad_payload``; the same
        connection then answers an intact packed request."""

        async def main():
            async with running_server(engine) as server:
                rng = random.Random(seed)
                reader, writer = await open_raw(server)
                for seq in range(1, 9, 2):
                    op, raw, _count = packed_request(rng)
                    if op == OP_QUERY_BATCH and rng.random() < 0.5:
                        torn = raw[:-4]  # a source with no target
                    else:
                        torn = raw[: -rng.randint(1, 3)]
                    good_op, good_raw, count = packed_request(rng)
                    writer.write(make_frame(op, seq, torn))
                    writer.write(make_frame(good_op, seq + 1, good_raw))
                    await writer.drain()
                    by_seq = {}
                    for _ in range(2):
                        frame = await read_frame(reader)
                        by_seq[frame.seq] = frame
                    assert by_seq[seq].op == OP_ERROR
                    assert by_seq[seq].payload["code"] == "bad_payload"
                    assert by_seq[seq + 1].op == OP_DISTANCES
                    assert len(by_seq[seq + 1].payload["distances"]) == count
                await close_writer(writer)
                await assert_alive(server)

        run(main())

    @pytest.mark.parametrize("op", [OP_QUERY_BATCH, OP_ONE_TO_MANY])
    def test_empty_packed_payload_typed_error(self, engine, op):
        async def main():
            async with running_server(engine) as server:
                reader, writer = await open_raw(server)
                writer.write(make_frame(op, 11, b""))
                writer.write(make_frame(OP_PING, 12, b""))
                await writer.drain()
                error = await read_frame(reader)
                assert (error.op, error.seq) == (OP_ERROR, 11)
                assert error.payload["code"] == "bad_payload"
                assert (await read_frame(reader)).seq == 12  # still in sync
                await close_writer(writer)
                await assert_alive(server)

        run(main())

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_truncated_packed_frame_clean_close(self, engine, seed):
        async def main():
            async with running_server(engine) as server:
                rng = random.Random(seed)
                op, raw, _count = packed_request(rng)
                frame = make_frame(op, 3, raw)
                reader, writer = await open_raw(server)
                writer.write(frame[: rng.randint(5, len(frame) - 1)])
                writer.write_eof()
                assert await drain_frames(reader) == []  # clean close, no reply
                await close_writer(writer)
                await assert_alive(server)

        run(main())

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_oversize_packed_request_typed_error(self, engine, seed):
        async def main():
            async with running_server(engine, max_frame_bytes=256) as server:
                rng = random.Random(seed)
                count = rng.randint(32, 512)  # 8 bytes a pair: past the cap
                raw = struct.pack(f"<{2 * count}i", *([0, 7] * count))
                reader, writer = await open_raw(server)
                writer.write(make_frame(OP_QUERY_BATCH, 9, raw))
                await writer.drain()
                frames = await drain_frames(reader)
                assert [f.op for f in frames] == [OP_ERROR]
                assert frames[0].payload["code"] == "frame_too_large"
                await close_writer(writer)
                await assert_alive(server)

        run(main())

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_random_ids_are_typed_never_a_crash(self, engine, seed):
        """Well-formed columns of random int32s: unknown vertices are a typed
        ``vertex_not_found``, and the connection keeps answering."""

        async def main():
            async with running_server(engine) as server:
                rng = random.Random(seed)
                reader, writer = await open_raw(server)
                for seq in range(1, 6):
                    writer.write(
                        make_frame(OP_QUERY_BATCH, seq, rng.randbytes(8 * rng.randint(1, 16)))
                    )
                writer.write(make_frame(OP_QUERY_BATCH, 6, struct.pack("<2i", 0, 7)))
                await writer.drain()
                frames = {}
                for _ in range(6):
                    frame = await read_frame(reader)
                    frames[frame.seq] = frame
                for seq in range(1, 6):
                    assert frames[seq].op == OP_ERROR
                    assert frames[seq].payload["code"] == "vertex_not_found"
                assert frames[6].payload["distances"] == [16.0]
                assert frames[6].payload["epoch"] == 0
                await close_writer(writer)
                await assert_alive(server)

        run(main())

    def test_v1_json_batch_frame_gets_bad_version(self, engine):
        """A protocol-v1 client (JSON batch payloads) is refused by version,
        not mis-decoded as packed columns."""

        async def main():
            async with running_server(engine) as server:
                reader, writer = await open_raw(server)
                payload = json.dumps({"pairs": [[0, 7], [0, 9]]}).encode()
                writer.write(make_frame(OP_QUERY_BATCH, 5, payload, version=1))
                await writer.drain()
                frames = await drain_frames(reader)  # typed error, then close
                assert [f.op for f in frames] == [OP_ERROR]
                assert frames[0].payload["code"] == "bad_version"
                await close_writer(writer)
                await assert_alive(server)

        run(main())

    def test_v2_frame_gets_bad_version(self, engine):
        """A protocol-v2 peer (a DISTANCES reply without the stage column) is
        refused by version before its packed payload is read."""

        async def main():
            async with running_server(engine) as server:
                reader, writer = await open_raw(server)
                writer.write(make_frame(OP_QUERY_BATCH, 5, struct.pack("<2i", 0, 7), version=2))
                await writer.drain()
                frames = await drain_frames(reader)  # typed error, then close
                assert [f.op for f in frames] == [OP_ERROR]
                assert frames[0].payload["code"] == "bad_version"
                await close_writer(writer)
                await assert_alive(server)

        run(main())

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_retired_scalar_op_is_unknown_and_keeps_connection(self, engine, seed):
        """Op 0x01 (the JSON scalar query of protocol v2) is an unknown op
        now: a typed ``unknown_op`` on its seq, and the connection stays."""

        async def main():
            async with running_server(engine) as server:
                rng = random.Random(seed)
                reader, writer = await open_raw(server)
                seq = rng.randint(1, 2**31)
                payload = json.dumps({"source": 0, "target": rng.randrange(14)}).encode()
                writer.write(make_frame(0x01, seq, payload) + pairs_frame(seq + 1, [(0, 7)]))
                await writer.drain()
                by_seq = {f.seq: f for f in [await read_frame(reader) for _ in range(2)]}
                assert by_seq[seq].op == OP_ERROR
                assert by_seq[seq].payload["code"] == "unknown_op"
                assert by_seq[seq + 1].op == OP_DISTANCES
                assert by_seq[seq + 1].payload["distances"] == [16.0]
                await close_writer(writer)
                await assert_alive(server)

        run(main())

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_malformed_distances_frames_are_typed_and_keep_connection(self, engine, seed):
        """A DISTANCES payload that is short, empty, points past its name
        table or carries non-UTF-8 names decodes to a recoverable
        ``bad_payload`` (never an IndexError or UnicodeDecodeError); a
        well-formed one sent as a request is an ``unknown_op``."""

        async def main():
            async with running_server(engine) as server:
                rng = random.Random(seed)
                count = rng.randint(1, 24)
                distances = [rng.random() for _ in range(count)]
                ids = bytes(rng.randrange(2) for _ in range(count))
                bad = [
                    distances_raw(0, distances, ids[:-1], b""),
                    distances_raw(0, [], b"", b"cache"),
                    distances_raw(0, distances, ids[:-1] + b"\x02", b"cache\nsearch"),
                    distances_raw(0, distances, ids, b"cache\n\xff" + rng.randbytes(3)),
                ]
                good = distances_raw(rng.randrange(2**40), distances, ids, b"cache\nsearch")
                reader, writer = await open_raw(server)
                writer.write(
                    b"".join(make_frame(OP_DISTANCES, seq, raw) for seq, raw in enumerate(bad, 1))
                    + make_frame(OP_DISTANCES, 5, good)
                    + make_frame(OP_PING, 6, b"")
                )
                await writer.drain()
                by_seq = {f.seq: f for f in [await read_frame(reader) for _ in range(6)]}
                for seq in range(1, 5):
                    assert by_seq[seq].op == OP_ERROR
                    assert by_seq[seq].payload["code"] == "bad_payload"
                assert by_seq[5].payload["code"] == "unknown_op"
                assert by_seq[6].op == OP_RESULT  # still in sync
                await close_writer(writer)
                await assert_alive(server)

        run(main())


# ----------------------------------------------------------------------
# The incremental splitter against read_frame (server and client share it)
# ----------------------------------------------------------------------
def _outcome(exc: ProtocolError):
    return ("error", type(exc).__name__, exc.code, exc.recoverable, exc.seq)


def frames_by_read_frame(data: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
    """The reference: frames and typed errors ``read_frame`` yields over a
    ``StreamReader`` until EOF or the first non-recoverable error."""

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        outcomes = []
        while True:
            try:
                outcomes.append(await read_frame(reader, max_frame_bytes))
            except ProtocolError as exc:
                outcomes.append(_outcome(exc))
                if not exc.recoverable:
                    return outcomes
            except asyncio.IncompleteReadError:
                return outcomes

    return run(main())


def frames_by_splitter(chunks, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
    splitter = FrameSplitter(max_frame_bytes)
    outcomes = []
    for chunk in chunks:
        splitter.feed(chunk)
        while True:
            try:
                frame = splitter.next_frame()
            except ProtocolError as exc:
                outcomes.append(_outcome(exc))
                if not exc.recoverable:
                    return outcomes
                continue
            if frame is None:
                break
            outcomes.append(frame)
    return outcomes


def malformed_corpus(seed: int):
    """The byte streams the live-server fuzz classes send, by the same recipes."""
    rng = random.Random(seed)
    ping = make_frame(OP_PING, 77, b"")
    good_query = pairs_frame(78, [(0, 7)])
    yield "truncated_prefix", rng.randbytes(rng.randint(1, 3))
    oversized = DEFAULT_MAX_FRAME_BYTES + rng.randint(1, 2**24)
    yield "oversized_prefix", oversized.to_bytes(4, "big") + rng.randbytes(16)
    version = rng.choice([v for v in range(256) if v != PROTOCOL_VERSION])
    yield "bad_version", make_frame(OP_PING, 5, b"", version=version) + ping
    yield "garbage_payload", (
        make_frame(
            OP_QUERY_BATCH,
            rng.randint(1, 2**31),
            rng.randbytes(8 * rng.randint(0, 7) + rng.randint(1, 7)),
        )
        + ping
    )
    claimed = rng.randint(FIXED_BODY_BYTES + 10, 4096)
    yield "mid_frame_disconnect", (
        ping + claimed.to_bytes(4, "big") + rng.randbytes(rng.randint(1, claimed - 1))
    )
    yield "random_garbage", rng.randbytes(rng.randint(1, 512))
    yield "zero_length", ping + (0).to_bytes(4, "big") + ping
    yield "short_length", (3).to_bytes(4, "big") + b"\x02\x06\x00" + ping
    op, raw, _count = packed_request(rng)
    yield "torn_columns", make_frame(op, 3, raw[: -rng.randint(1, 3)]) + good_query
    yield "empty_packed", (
        make_frame(OP_QUERY_BATCH, 11, b"") + make_frame(OP_ONE_TO_MANY, 12, b"") + ping
    )
    frame = make_frame(op, 4, raw)
    yield "truncated_packed", frame[: rng.randint(5, len(frame) - 1)]
    yield "bad_distances", (
        make_frame(OP_DISTANCES, 13, distances_raw(0, [1.0], b"\x01", b"cache"))
        + make_frame(OP_DISTANCES, 14, distances_raw(0, [1.0], b"\x00", b"\xff"))
        + make_frame(OP_DISTANCES, 15, distances_raw(0, [], b"", b""))
        + ping
    )
    yield "retired_op", make_frame(0x01, 16, b'{"source":0,"target":7}') + good_query
    barrage = []
    for index in range(20):
        kind = rng.randrange(3)
        if kind == 0:
            barrage.append(make_frame(OP_QUERY_BATCH, index + 1, rng.randbytes(7)))
        elif kind == 1:
            barrage.append(good_query)
        else:
            barrage.append(make_frame(rng.randint(0x20, 0x7F), index + 1, b"{}"))
    yield "barrage", b"".join(barrage)


def valid_stream(count: int = 100) -> bytes:
    rng = random.Random(7)
    frames = []
    for seq in range(1, count + 1):
        kind = seq % 3
        if kind == 0:
            op, raw, _count = packed_request(rng)
            frames.append(make_frame(op, seq, raw))
        elif kind == 1:
            frames.append(encode_frame(OP_QUERY_BATCH, seq, {"pairs": [(seq, seq + 1)]}))
        else:
            frames.append(encode_frame(OP_PING, seq))
    return b"".join(frames)


class TestFrameSplitter:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_malformed_corpus_matches_read_frame(self, seed):
        """Same frames, same typed errors, same ``recoverable`` flag — fed
        whole, byte by byte, and in random chunks; a recoverable error
        resumes at the next frame (the trailing ping of the corpus entries)."""
        chunker = random.Random(seed)
        for name, data in malformed_corpus(seed):
            want = frames_by_read_frame(data)
            assert frames_by_splitter([data]) == want, name
            assert frames_by_splitter([bytes((b,)) for b in data]) == want, name
            cuts = sorted(chunker.sample(range(len(data) + 1), min(4, len(data))))
            chunks = [data[a:b] for a, b in zip([0] + cuts, cuts + [len(data)])]
            assert frames_by_splitter(chunks) == want, name
            if name in ("garbage_payload", "torn_columns", "empty_packed", "bad_distances"):
                assert want[0][0] == "error" and want[0][3], name  # recoverable
                assert isinstance(want[-1], Frame), f"{name}: did not resume"

    def test_hundred_valid_frames_whole_and_bytewise(self):
        data = valid_stream(100)
        want = frames_by_read_frame(data)
        assert [f.seq for f in want] == list(range(1, 101))
        assert frames_by_splitter([data]) == want
        assert frames_by_splitter([bytes((b,)) for b in data]) == want

    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_boundary_inside_the_length_prefix(self, cut):
        first = encode_frame(OP_QUERY_BATCH, 1, {"pairs": [(0, 7)]})
        second = encode_frame(OP_PING, 2)
        data = first + second
        split = len(first) + cut  # the second frame's prefix straddles the feeds
        splitter = FrameSplitter()
        splitter.feed(data[:split])
        assert splitter.next_frame().seq == 1
        assert splitter.next_frame() is None
        splitter.feed(data[split:])
        assert splitter.next_frame().seq == 2
        assert splitter.next_frame() is None

    def test_frame_cap_is_the_splitters_own(self):
        data = encode_frame(OP_APPLY_BATCH, 1, {"blob": "x" * 64})
        want = frames_by_read_frame(data, max_frame_bytes=32)
        assert want == [("error", "FrameTooLargeError", "frame_too_large", False, None)]
        assert frames_by_splitter([data], max_frame_bytes=32) == want


# ----------------------------------------------------------------------
# Typed request-level errors (well-formed frames, bad content)
# ----------------------------------------------------------------------
def _json(payload) -> bytes:
    return json.dumps(payload).encode()


BAD_PAYLOADS = [
    (0x01, _json({"source": 0, "target": 7}), "unknown_op"),  # the retired scalar op
    (OP_QUERY_BATCH, struct.pack("<4i", 0, 7, 999_999, 0), "vertex_not_found"),
    (OP_ONE_TO_MANY, struct.pack("<3i", 0, 7, 999_999), "vertex_not_found"),
    (OP_APPLY_BATCH, _json([[0, 8, 6.0, 3.0]]), "bad_payload"),  # not an object
    (OP_QUERY_BATCH, b"", "bad_payload"),
    (OP_QUERY_BATCH, struct.pack("<i", 1), "bad_payload"),
    (OP_QUERY_BATCH, struct.pack("<3i", 1, 2, 3), "bad_payload"),
    (OP_QUERY_BATCH, struct.pack("<2i", 1, 2)[:-1], "bad_payload"),
    (OP_QUERY_BATCH, _json({"pairs": [[1, 2]]}), "bad_payload"),  # v1 text, 19 bytes
    (OP_QUERY_BATCH, struct.pack("<2i", 0, 999_999), "vertex_not_found"),
    (OP_ONE_TO_MANY, b"", "bad_payload"),
    (OP_ONE_TO_MANY, struct.pack("<i", 0), "bad_payload"),
    (OP_ONE_TO_MANY, struct.pack("<2i", 0, 1)[:-2], "bad_payload"),
    (OP_ONE_TO_MANY, struct.pack("<2i", 0, -5), "vertex_not_found"),
    (OP_APPLY_BATCH, _json({"updates": [[0, 8, 6.0]]}), "bad_payload"),
    (OP_APPLY_BATCH, _json({"updates": [[0, 8, "w", 3.0]]}), "bad_payload"),
    (OP_APPLY_BATCH, _json({}), "bad_payload"),
]


class TestTypedRequestErrors:
    @pytest.mark.parametrize(
        "op,raw,code",
        BAD_PAYLOADS,
        ids=[f"case{i}" for i in range(len(BAD_PAYLOADS))],
    )
    def test_bad_payload_shapes(self, engine, op, raw, code):
        async def main():
            async with running_server(engine) as server:
                reader, writer = await open_raw(server)
                writer.write(make_frame(op, 3, raw))
                writer.write(make_frame(OP_PING, 4, b""))
                await writer.drain()
                # Responses may interleave (pings answer inline, errors via
                # the task path) — match by echoed seq, not arrival order.
                by_seq = {}
                for _ in range(2):
                    frame = await read_frame(reader)
                    by_seq[frame.seq] = frame
                assert by_seq[3].op == OP_ERROR
                assert by_seq[3].payload["code"] == code
                assert by_seq[4].op == OP_RESULT  # connection still usable
                await close_writer(writer)

        run(main())

    def test_unknown_op_typed_error(self, engine):
        async def main():
            async with running_server(engine) as server:
                reader, writer = await open_raw(server)
                writer.write(make_frame(0x55, 9, b"{}"))
                await writer.drain()
                error = await read_frame(reader)
                assert error.op == OP_ERROR and error.seq == 9
                assert error.payload["code"] == "unknown_op"
                await close_writer(writer)

        run(main())

    def test_zero_length_frame_rejected(self, engine):
        async def main():
            async with running_server(engine) as server:
                reader, writer = await open_raw(server)
                writer.write((0).to_bytes(4, "big"))
                await writer.drain()
                frames = await drain_frames(reader)
                assert [f.op for f in frames] == [OP_ERROR]
                assert frames[0].payload["code"] == "malformed_frame"
                await close_writer(writer)
                await assert_alive(server)

        run(main())

    def test_client_refuses_bad_ids_before_sending(self, engine):
        """Ids that do not fit the packed columns never reach the wire: the
        client raises ``ProtocolError``, the server sees no request, and the
        connection keeps answering."""

        async def main():
            async with running_server(engine) as server:
                async with await AsyncClient.connect(*server.address) as client:
                    for pairs in (
                        [(0, 2**31)], [(0, -(2**31) - 1)], [(0, 7.0)], [(True, 7)],
                        numpy.array([[0, 2**32]]), numpy.array([[0.5, 7]]),
                        numpy.array([[0, 7, 9]]),
                    ):
                        with pytest.raises(ProtocolError):
                            await client.query_batch(pairs)
                    assert server.stats()["requests_total"] == 0
                    reply = await client.query_batch(numpy.array([[0, 7]], dtype=numpy.int64))
                    assert reply.distances == [16.0]

        run(main())

    def test_wire_ids_off_the_map_are_vertex_not_found(self):
        """Ids that fit int32 but name no vertex — a negative id, 2**31 - 1,
        and an id in a hole of a sparse id space (searched by bisection, no
        dense remap) — each get a ``vertex_not_found`` ERROR naming that
        vertex, and the connection stays open."""
        graph = paper_example_graph()
        us, vs, weights = graph.edge_arrays()
        sparse = Graph.from_edges(us * 1_000_003 + 5, vs * 1_000_003 + 5, weights)
        assert build_remap(sparse.ids).ndim == 2  # the bisection map
        index = create_index("DCH", sparse)
        index.build()
        hole = int(sparse.ids[3]) + 1
        source, target = sparse.ids[:2].tolist()

        async def main(engine):
            async with running_server(engine) as server:
                reader, writer = await open_raw(server)
                for seq, bad in enumerate((-5, 2**31 - 1, hole), start=1):
                    writer.write(pairs_frame(seq, [(source, target), (bad, target)]))
                    await writer.drain()
                    error = await read_frame(reader)
                    assert (error.op, error.seq) == (OP_ERROR, seq)
                    assert error.payload["code"] == "vertex_not_found"
                    assert error.payload["message"] == f"vertex {bad} does not exist"
                writer.write(pairs_frame(9, [(source, target)]))
                await writer.drain()
                reply = await read_frame(reader)
                assert (reply.op, reply.seq) == (OP_DISTANCES, 9)
                assert reply.payload["distances"] == [engine.query(source, target)]
                await close_writer(writer)

        with ServingEngine(index, cache_capacity=0) as engine:
            run(main(engine))

    def test_vertex_not_found(self, engine):
        async def main():
            async with running_server(engine) as server:
                client = await AsyncClient.connect(*server.address)
                try:
                    from repro.exceptions import RemoteServerError

                    with pytest.raises(RemoteServerError) as excinfo:
                        await client.query(0, 999_999)
                    assert excinfo.value.code == "vertex_not_found"
                    # Typed failure, connection intact.
                    assert (await client.query(0, 7)).distance == 16.0
                finally:
                    await client.close()

        run(main())

    def test_apply_batch_unknown_edge_typed_error(self, engine):
        async def main():
            async with running_server(engine) as server:
                client = await AsyncClient.connect(*server.address)
                try:
                    from repro.exceptions import RemoteServerError

                    with pytest.raises(RemoteServerError) as excinfo:
                        await client.apply_batch([(0, 13, 1.0, 2.0)])
                    assert excinfo.value.code == "edge_not_found"
                finally:
                    await client.close()

        run(main())

    def test_apply_batch_invalid_weight_typed_error(self, engine):
        async def main():
            async with running_server(engine) as server:
                client = await AsyncClient.connect(*server.address)
                try:
                    from repro.exceptions import RemoteServerError

                    with pytest.raises(RemoteServerError) as excinfo:
                        await client.apply_batch([(0, 8, 6.0, -1.0)])
                    assert excinfo.value.code == "invalid_weight"
                finally:
                    await client.close()

        run(main())

    def test_apply_on_stopped_engine_typed_error(self):
        index = create_index("BiDijkstra", paper_example_graph())
        index.build()
        stopped = ServingEngine(index, cache_capacity=0)  # never started

        async def main():
            async with running_server(stopped) as server:
                client = await AsyncClient.connect(*server.address)
                try:
                    from repro.exceptions import RemoteServerError

                    with pytest.raises(RemoteServerError) as excinfo:
                        await client.apply_batch([(0, 8, 6.0, 3.0)])
                    assert excinfo.value.code == "engine_stopped"
                    # Queries need no maintenance worker — still served.
                    assert (await client.query(0, 9)).distance == 2.0
                finally:
                    await client.close()

        run(main())
