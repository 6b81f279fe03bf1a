"""``repro.server`` — the asyncio network query plane.

A length-prefixed binary frame protocol in which every query is a packed
batch (:mod:`repro.server.protocol`), an asyncio server over a
:class:`~repro.serving.engine.ServingEngine` or
:class:`~repro.cluster.engine.ClusterEngine` backend with explicit
backpressure and graceful drain (:mod:`repro.server.server`), a pipelining
:class:`~repro.server.client.AsyncClient`, and a closed-loop load generator
(:mod:`repro.server.loadgen`).  See DESIGN.md §12 and the
``repro-experiments serve`` CLI subcommand.
"""

from repro.server.client import AsyncClient, BatchReply, QueryReply
from repro.server.loadgen import LoadReport, run_closed_loop
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
    PROTOCOL_VERSION,
    Frame,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.server.server import QueryServer

__all__ = [
    "AsyncClient",
    "BatchReply",
    "QueryReply",
    "LoadReport",
    "run_closed_loop",
    "QueryServer",
    "Frame",
    "encode_frame",
    "read_frame",
    "write_frame",
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "OP_QUERY_BATCH",
    "OP_ONE_TO_MANY",
    "OP_APPLY_BATCH",
    "OP_STATS",
    "OP_PING",
    "OP_RESULT",
    "OP_ERROR",
    "OP_RETRY",
    "OP_DISTANCES",
]
