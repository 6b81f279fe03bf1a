"""Wire protocol of the network query plane.

Every message — request or response — is one **frame**::

    +----------------+---------+------+-----------+------------------+
    | length u32 BE  | version | op   | seq u32BE | payload          |
    +----------------+---------+------+-----------+------------------+
         4 bytes        1 byte  1 byte   4 bytes     length-6 bytes

``length`` counts every byte after the prefix (so the minimum legal value is
6: version + op + seq with an empty payload).  ``version`` is the protocol
version byte (:data:`PROTOCOL_VERSION`); a mismatch yields a typed
``bad_version`` ERROR frame and the connection closes.  ``seq`` is the
client-chosen request id, echoed verbatim in the response frame, which is
what lets a client pipeline many requests over one connection and match
out-of-order completions.

Every query is a batch (version 3; a scalar query is a batch of one), sent
as **packed** little-endian columns, so no text is parsed per pair:

* :data:`OP_QUERY_BATCH` — ``n × (int32 source, int32 target)``;
* :data:`OP_ONE_TO_MANY` — ``int32 source`` then ``n × int32 target``;
* :data:`OP_DISTANCES` (their response) — ``int64 epoch``, ``u32 n``,
  ``n × float64`` (``inf`` bit-exact), ``n × u8`` stage id, then the stage
  names, UTF-8, ``"\n"``-joined: stage id ``i`` is the ``i``-th name.

Every other op's payload is UTF-8 JSON (the stdlib codec): requests
:data:`OP_APPLY_BATCH`, :data:`OP_STATS`, :data:`OP_PING`, and the responses

* :data:`OP_RESULT` — success, payload is the operation's result object;
* :data:`OP_ERROR` — typed failure, payload ``{"code", "message"}``;
* :data:`OP_RETRY` — backpressure (the HTTP-429 analogue), payload
  ``{"reason", "queue_depth", "suggested_wait_seconds"}``.

:func:`encode_frame` takes a mapping (``{"pairs"}``: pairs or a ``(k, 2)``
integer array; ``{"source", "targets"}``; ``{"distances", "epoch",
"stages"}``: distances as floats or ``float64``, one stage a pair or one for
all); :func:`decode_body` returns ``DISTANCES`` as that mapping of lists and
a query op's payload as the packed ids of its pairs, which the server reads.
A ``DISTANCES`` frame is always laid out by :func:`encode_distances`, which
the server calls straight with a served batch's columns (``encode_frame``
turns its mapping into those columns first).  The frame head — length,
version, op, seq — is one ``struct`` for every encode and for
:class:`FrameSplitter`, and a :class:`Frame` is a named tuple.

Framing errors raise the typed exceptions from :mod:`repro.exceptions`
(:class:`~repro.exceptions.ProtocolError` /
:class:`~repro.exceptions.ProtocolVersionError` /
:class:`~repro.exceptions.FrameTooLargeError`); each carries whether the
stream is still in sync (``recoverable``) so the server knows to answer and
continue versus answer and close.  See DESIGN.md §12.
"""

from __future__ import annotations

import asyncio
import json
import struct
from itertools import chain, starmap
from typing import NamedTuple, Optional

import numpy as np

from repro.exceptions import (
    FrameTooLargeError,
    ProtocolError,
    ProtocolVersionError,
)

#: Protocol version byte this build speaks.
PROTOCOL_VERSION = 3

#: Bytes of the length prefix.
HEADER_BYTES = 4
#: Fixed body bytes after the prefix: version + op + seq.
FIXED_BODY_BYTES = 6
#: Default cap on ``length`` — a defence against hostile or corrupt prefixes.
DEFAULT_MAX_FRAME_BYTES = 8 * 2**20
#: Bytes asked of the socket per read by the server's and the client's read
#: loops; one read usually holds several pipelined frames.
READ_BYTES = 65536
_LENGTH_PREFIX = struct.Struct(">I")
#: The whole frame head — length prefix, version, op, seq — packed by every
#: encode and read by :class:`FrameSplitter` in one call.
_HEAD = struct.Struct(">IBBI")

# Request op codes (0x01, the retired JSON scalar query, is unknown).
OP_QUERY_BATCH = 0x02
OP_ONE_TO_MANY = 0x03
OP_APPLY_BATCH = 0x04
OP_STATS = 0x05
OP_PING = 0x06

# Response op codes (high bit set).
OP_RESULT = 0x81
OP_ERROR = 0x82
OP_RETRY = 0x83
OP_DISTANCES = 0x84

REQUEST_OPS = frozenset(
    (OP_QUERY_BATCH, OP_ONE_TO_MANY, OP_APPLY_BATCH, OP_STATS, OP_PING)
)
RESPONSE_OPS = frozenset((OP_RESULT, OP_ERROR, OP_RETRY, OP_DISTANCES))

OP_NAMES = {
    OP_QUERY_BATCH: "query_batch",
    OP_ONE_TO_MANY: "one_to_many",
    OP_APPLY_BATCH: "apply_batch",
    OP_STATS: "stats",
    OP_PING: "ping",
    OP_RESULT: "result",
    OP_ERROR: "error",
    OP_RETRY: "retry",
    OP_DISTANCES: "distances",
}


class Frame(NamedTuple):
    """One decoded frame: operation, request id, payload mapping (or ``None``)."""

    op: int
    seq: int
    payload: Optional[object] = None

    @property
    def op_name(self) -> str:
        return OP_NAMES.get(self.op, f"op_{self.op:#x}")


# ----------------------------------------------------------------------
# Payload codecs: packed columns for the batch ops, JSON for the rest
# ----------------------------------------------------------------------
_PAIR = struct.Struct("<ii")
#: A ``DISTANCES`` payload's head: the epoch and the distance count.
_DISTANCES_HEAD = struct.Struct("<qI")
_ZERO, _ONE = bytes(4), (1).to_bytes(4, "little")


def _refuse_bools(ids, packed: bytes) -> None:
    """A bool packs as the id 0 or 1: only a payload holding one has its
    types read (a type check costs the client as much as the packing)."""
    if (_ZERO in packed or _ONE in packed) and bool in set(map(type, ids)):
        raise ProtocolError("a vertex id is a bool, not an integer")


def _encode_pairs(payload) -> bytes:
    """Refused here: an id outside int32, a float or a bool id, and a pair
    that is not two ids (an array goes through ``tolist``: ``astype("<i4")``
    would wrap an id)."""
    pairs = payload["pairs"]
    pairs = pairs.tolist() if isinstance(pairs, np.ndarray) else list(pairs)
    try:  # one struct call a pair: two values, each an int32
        packed = b"".join(starmap(_PAIR.pack, pairs))
    except struct.error as exc:
        raise ProtocolError(f"each pair must be two int32 vertex ids: {exc}") from None
    _refuse_bools(chain.from_iterable(pairs), packed)
    return packed


def _encode_one_to_many(payload) -> bytes:
    ids = [payload["source"], *payload["targets"]]
    try:
        packed = struct.pack(f"<{len(ids)}i", *ids)
    except struct.error as exc:
        raise ProtocolError(f"value does not fit the packed payload: {exc}") from None
    _refuse_bools(ids, packed)
    return packed


#: Distinct stage names one DISTANCES frame can carry (a u8 stage id each).
MAX_STAGE_NAMES = 256


def _distance_columns(payload):
    """A ``DISTANCES`` mapping as :func:`encode_distances`'s columns;
    ``stages`` is one name a distance, or one name (a ``str``) for all."""
    distances = np.asarray(payload["distances"], dtype="<f8")
    stages = payload["stages"]
    if isinstance(stages, str):
        names, ids = [stages], bytes(len(distances))
    else:
        names = list(dict.fromkeys(stages))
        if len(names) > MAX_STAGE_NAMES or len(stages) != len(distances):
            raise ProtocolError(f"{len(stages)} stages ({len(names)} distinct) for "
                                f"{len(distances)} distances: at most {MAX_STAGE_NAMES} names")
        ids = bytes(map({name: i for i, name in enumerate(names)}.__getitem__, stages))
    epoch = payload["epoch"]
    if isinstance(epoch, bool):
        raise ProtocolError("the epoch is a bool, not an integer")
    return epoch, distances.tobytes(), ids, "\n".join(names).encode()


def encode_distances(
    seq: int,
    epoch: int,
    values: bytes,
    stage_ids: bytes,
    stage_names: bytes,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytes:
    """One ``DISTANCES`` frame from columns already in wire form: ``values``
    the little-endian ``float64`` distances, ``stage_ids`` one byte a
    distance and ``stage_names`` the ``"\\n"``-joined UTF-8 name table.

    The server encodes every reply here, straight from a served batch's
    arrays: the epoch is the backend's own ``int``, so nothing is type
    checked.  :func:`encode_frame` ends here too.
    """
    head = _DISTANCES_HEAD.pack(epoch, len(stage_ids))
    length = FIXED_BODY_BYTES + len(head) + len(values) + len(stage_ids) + len(stage_names)
    if length > max_frame_bytes:
        raise FrameTooLargeError(length, max_frame_bytes)
    return b"".join((
        _HEAD.pack(length, PROTOCOL_VERSION, OP_DISTANCES, seq),
        head,
        values,
        stage_ids,
        stage_names,
    ))


def _records(raw: bytes, head: int, size: int, what: str) -> int:
    """Number of ``size``-byte records after a ``head``-byte prefix; a payload
    that holds none, or a torn one, is a ``ValueError`` (→ ``bad_payload``)."""
    count, torn = divmod(len(raw) - head, size)
    if count < 1 or torn:
        raise ValueError(f"{len(raw)} bytes is not {head} + n x {size} ({what}, n >= 1)")
    return count


def _decode_pairs(raw: bytes) -> bytes:
    _records(raw, 0, 8, "int32 source, int32 target")
    return raw


def _decode_one_to_many(raw: bytes) -> bytes:
    """The payload as the ``QUERY_BATCH`` payload of its pairs."""
    count = _records(raw, 4, 4, "int32 source, then int32 targets")
    pairs = np.empty((count, 2), dtype="<i4")
    pairs[:, 0], pairs[:, 1] = np.frombuffer(raw, "<i4", 1), np.frombuffer(raw, "<i4", -1, 4)
    return pairs.tobytes()


def _decode_distances(raw: bytes):
    epoch, count = _DISTANCES_HEAD.unpack_from(raw) if len(raw) >= 12 else (0, 0)
    ids_at = 12 + 8 * count
    if count < 1 or len(raw) < ids_at + count:
        raise ValueError(f"{len(raw)} bytes is not 12 + 9n (+ stage names) with n >= 1")
    ids = raw[ids_at : ids_at + count]
    names = raw[ids_at + count :].decode("utf-8").split("\n")  # bad UTF-8: ValueError
    if len(names) == 1 and ids.count(0) == count:
        stages = [names[0]] * count  # one stage names every pair
    elif max(ids) >= len(names):
        raise ValueError(f"stage id {max(ids)} is past the {len(names)} stage names")
    else:
        stages = list(map(names.__getitem__, ids))
    distances = np.frombuffer(raw, "<f8", count, 12).tolist()
    return {"distances": distances, "epoch": epoch, "stages": stages}


def _encode_json(payload) -> bytes:
    return b"" if payload is None else json.dumps(payload, separators=(",", ":")).encode()


def _decode_json(raw: bytes):
    return json.loads(raw.decode("utf-8")) if raw else None


#: op → payload codec of the packed ops (a ``DISTANCES`` frame is encoded
#: whole by :func:`encode_distances`); every other op is JSON.
_ENCODERS = {OP_QUERY_BATCH: _encode_pairs, OP_ONE_TO_MANY: _encode_one_to_many}
_DECODERS = {
    OP_QUERY_BATCH: _decode_pairs,
    OP_ONE_TO_MANY: _decode_one_to_many,
    OP_DISTANCES: _decode_distances,
}


def encode_frame(
    op: int,
    seq: int,
    payload: Optional[object] = None,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytes:
    """Serialize one frame to wire bytes."""
    if not 0 <= op <= 0xFF:
        raise ProtocolError(f"op code {op} does not fit one byte")
    if not 0 <= seq <= 0xFFFFFFFF:
        raise ProtocolError(f"seq {seq} does not fit u32")
    try:
        if op == OP_DISTANCES:
            return encode_distances(seq, *_distance_columns(payload), max_frame_bytes)
        body = _ENCODERS.get(op, _encode_json)(payload)
    except (KeyError, TypeError, ValueError, struct.error) as exc:
        raise ProtocolError(
            f"payload of op {OP_NAMES.get(op, op)} has the wrong shape: {exc!r}"
        ) from None
    length = FIXED_BODY_BYTES + len(body)
    if length > max_frame_bytes:
        raise FrameTooLargeError(length, max_frame_bytes)
    return _HEAD.pack(length, PROTOCOL_VERSION, op, seq) + body


def _decode(op: int, seq: int, raw: bytes) -> Frame:
    """The frame of a header that parsed: its payload decoded and checked."""
    try:
        return Frame(op, seq, _DECODERS.get(op, _decode_json)(raw))
    except ValueError as exc:  # torn columns, bad UTF-8, bad JSON
        # The frame boundary itself was intact, so the stream is still in
        # sync — the server can answer a typed error and keep the connection.
        raise ProtocolError(
            f"malformed {OP_NAMES.get(op, 'frame')} payload: {exc}",
            code="bad_payload",
            seq=seq,
            recoverable=True,
        ) from None


def decode_body(body: bytes) -> Frame:
    """Decode the post-prefix bytes of one frame (validates version + payload)."""
    if len(body) < FIXED_BODY_BYTES:
        raise ProtocolError(
            f"frame body of {len(body)} bytes is shorter than the "
            f"{FIXED_BODY_BYTES}-byte fixed header"
        )
    version = body[0]
    if version != PROTOCOL_VERSION:
        raise ProtocolVersionError(version, PROTOCOL_VERSION)
    return _decode(body[1], int.from_bytes(body[2:6], "big"), body[FIXED_BODY_BYTES:])


def _check_length(length: int, max_frame_bytes: int) -> None:
    """Validate a length prefix; both failures leave the stream out of sync."""
    if length > max_frame_bytes:
        raise FrameTooLargeError(length, max_frame_bytes)
    if length < FIXED_BODY_BYTES:
        raise ProtocolError(
            f"frame length {length} is shorter than the {FIXED_BODY_BYTES}-byte "
            "fixed header"
        )


class FrameSplitter:
    """Incremental frame splitter: :meth:`feed` it whatever the socket
    delivered, then call :meth:`next_frame` until it returns ``None``.

    One segment usually carries several pipelined frames; splitting them out
    of one buffer costs no ``await`` per frame.  The checks and typed errors
    are :func:`read_frame`'s: an oversized or too-short length prefix and a bad
    version byte are non-recoverable (the caller closes the connection), a
    malformed payload is recoverable — the bad frame's bytes are consumed and
    the next call resumes at the following frame.
    """

    __slots__ = ("_max_frame_bytes", "_buffer", "_position")

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        self._max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._position = 0

    def feed(self, data: bytes) -> None:
        if self._position:
            del self._buffer[: self._position]
            self._position = 0
        self._buffer += data

    def next_frame(self) -> Optional[Frame]:
        """The next complete frame, or ``None`` until more bytes are fed."""
        buffer, start = self._buffer, self._position
        body_at = start + _HEAD.size
        if body_at > len(buffer):
            if start + HEADER_BYTES <= len(buffer):  # a bad prefix fails at once
                _check_length(_LENGTH_PREFIX.unpack_from(buffer, start)[0], self._max_frame_bytes)
            return None
        length, version, op, seq = _HEAD.unpack_from(buffer, start)
        if not FIXED_BODY_BYTES <= length <= self._max_frame_bytes:
            _check_length(length, self._max_frame_bytes)
        end = start + HEADER_BYTES + length
        if end > len(buffer):
            return None
        self._position = end
        if version != PROTOCOL_VERSION:
            raise ProtocolVersionError(version, PROTOCOL_VERSION)
        return _decode(op, seq, bytes(buffer[body_at:end]))


async def read_frame(
    reader: asyncio.StreamReader,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> Frame:
    """Read one frame; raises the typed protocol errors on malformed input.

    A peer that disconnects between frames surfaces as
    :class:`asyncio.IncompleteReadError` with no partial bytes; mid-frame
    truncation surfaces as the same exception with ``partial`` set — both are
    a *clean close* for the caller, never a hang (the reader returns EOF).
    """
    header = await reader.readexactly(HEADER_BYTES)
    length = int.from_bytes(header, "big")
    _check_length(length, max_frame_bytes)
    body = await reader.readexactly(length)
    return decode_body(body)


def needs_drain(writer: asyncio.StreamWriter) -> bool:
    """Whether ``writer.drain()`` has anything to wait for after a write.

    With an empty transport buffer the bytes are already with the kernel and
    ``drain()`` is a no-op; a closing transport still needs it, because that
    is where a lost connection surfaces as an exception.
    """
    transport = writer.transport
    return transport.is_closing() or transport.get_write_buffer_size() > 0
