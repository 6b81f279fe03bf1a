"""The frame codec's oracle: ``encode_frame`` and ``decode_body`` as they
stood before the one-struct frame head and the server's
:func:`~repro.server.protocol.encode_distances` (a ``to_bytes`` a header
field, a ``(encode, decode)`` table by op, the epoch through the bool scan).

The product codec must give the same bytes for every payload it accepts, the
same :class:`~repro.exceptions.ProtocolError` type and code for every one it
refuses, and the same decoded frames.  :func:`decode_body` returns an
``(op, seq, payload)`` tuple, which compares equal to a product ``Frame``.
"""

from __future__ import annotations

import json
import struct
from itertools import chain, starmap
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import FrameTooLargeError, ProtocolError, ProtocolVersionError
from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FIXED_BODY_BYTES,
    HEADER_BYTES,
    MAX_STAGE_NAMES,
    OP_DISTANCES,
    OP_NAMES,
    OP_ONE_TO_MANY,
    OP_QUERY_BATCH,
    PROTOCOL_VERSION,
)

_PAIR = struct.Struct("<ii")
_ZERO, _ONE = bytes(4), (1).to_bytes(4, "little")


def _refuse_bools(ids, packed: bytes) -> None:
    if (_ZERO in packed or _ONE in packed) and bool in set(map(type, ids)):
        raise ProtocolError("a vertex id is a bool, not an integer")


def _pack(layout: str, values) -> bytes:
    try:
        packed = struct.pack(layout, *values)
    except struct.error as exc:
        raise ProtocolError(f"value does not fit the packed payload: {exc}") from None
    _refuse_bools(values, packed)
    return packed


def _encode_pairs(payload) -> bytes:
    pairs = payload["pairs"]
    pairs = pairs.tolist() if isinstance(pairs, np.ndarray) else list(pairs)
    try:
        packed = b"".join(starmap(_PAIR.pack, pairs))
    except struct.error as exc:
        raise ProtocolError(f"each pair must be two int32 vertex ids: {exc}") from None
    _refuse_bools(chain.from_iterable(pairs), packed)
    return packed


def _encode_one_to_many(payload) -> bytes:
    ids = [payload["source"], *payload["targets"]]
    return _pack(f"<{len(ids)}i", ids)


def _encode_distances(payload) -> bytes:
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
    head = _pack("<qI", (payload["epoch"], len(distances)))
    return b"".join((head, distances.tobytes(), ids, "\n".join(names).encode()))


def _records(raw: bytes, head: int, size: int, what: str) -> int:
    count, torn = divmod(len(raw) - head, size)
    if count < 1 or torn:
        raise ValueError(f"{len(raw)} bytes is not {head} + n x {size} ({what}, n >= 1)")
    return count


def _decode_pairs(raw: bytes) -> bytes:
    _records(raw, 0, 8, "int32 source, int32 target")
    return raw


def _decode_one_to_many(raw: bytes) -> bytes:
    count = _records(raw, 4, 4, "int32 source, then int32 targets")
    pairs = np.empty((count, 2), dtype="<i4")
    pairs[:, 0], pairs[:, 1] = np.frombuffer(raw, "<i4", 1), np.frombuffer(raw, "<i4", -1, 4)
    return pairs.tobytes()


def _decode_distances(raw: bytes):
    epoch, count = struct.unpack_from("<qI", raw) if len(raw) >= 12 else (0, 0)
    ids_at = 12 + 8 * count
    if count < 1 or len(raw) < ids_at + count:
        raise ValueError(f"{len(raw)} bytes is not 12 + 9n (+ stage names) with n >= 1")
    ids = raw[ids_at : ids_at + count]
    names = raw[ids_at + count :].decode("utf-8").split("\n")
    if len(names) == 1 and ids.count(0) == count:
        stages = [names[0]] * count
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


_PACKED = {
    OP_QUERY_BATCH: (_encode_pairs, _decode_pairs),
    OP_ONE_TO_MANY: (_encode_one_to_many, _decode_one_to_many),
    OP_DISTANCES: (_encode_distances, _decode_distances),
}
_JSON = (_encode_json, _decode_json)


def encode_frame(
    op: int,
    seq: int,
    payload: Optional[object] = None,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytes:
    if not 0 <= op <= 0xFF:
        raise ProtocolError(f"op code {op} does not fit one byte")
    if not 0 <= seq <= 0xFFFFFFFF:
        raise ProtocolError(f"seq {seq} does not fit u32")
    try:
        body = _PACKED.get(op, _JSON)[0](payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            f"payload of op {OP_NAMES.get(op, op)} has the wrong shape: {exc!r}"
        ) from None
    length = FIXED_BODY_BYTES + len(body)
    if length > max_frame_bytes:
        raise FrameTooLargeError(length, max_frame_bytes)
    return b"".join(
        (
            length.to_bytes(HEADER_BYTES, "big"),
            bytes((PROTOCOL_VERSION, op)),
            seq.to_bytes(4, "big"),
            body,
        )
    )


def decode_body(body: bytes) -> Tuple[int, int, object]:
    if len(body) < FIXED_BODY_BYTES:
        raise ProtocolError(
            f"frame body of {len(body)} bytes is shorter than the "
            f"{FIXED_BODY_BYTES}-byte fixed header"
        )
    version = body[0]
    if version != PROTOCOL_VERSION:
        raise ProtocolVersionError(version, PROTOCOL_VERSION)
    op = body[1]
    seq = int.from_bytes(body[2:6], "big")
    try:
        payload = _PACKED.get(op, _JSON)[1](body[FIXED_BODY_BYTES:])
    except ValueError as exc:
        raise ProtocolError(
            f"malformed {OP_NAMES.get(op, 'frame')} payload: {exc}",
            code="bad_payload",
            seq=seq,
            recoverable=True,
        ) from None
    return op, seq, payload
