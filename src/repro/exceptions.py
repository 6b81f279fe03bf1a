"""Exception hierarchy for the repro package.

All library-specific errors derive from :class:`ReproError` so that callers can
catch any failure originating in this package with a single ``except`` clause
while still being able to distinguish graph-level, index-level, partitioning
and workload problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class GraphError(ReproError):
    """Raised for invalid graph construction or mutation requests."""


class EdgeNotFoundError(GraphError):
    """Raised when an operation references an edge that does not exist."""

    def __init__(self, u: int, v: int):
        super().__init__(f"edge ({u}, {v}) does not exist")
        self.u = u
        self.v = v


class VertexNotFoundError(GraphError):
    """Raised when an operation references a vertex that does not exist.

    ``position`` is the vertex's index in the flat id buffer of the batch
    call that found it missing (sources and targets interleaved), when one
    did."""

    def __init__(self, v: int, position: "int | None" = None):
        super().__init__(f"vertex {v} does not exist")
        self.vertex = v
        self.position = position


class InvalidWeightError(GraphError):
    """Raised when an edge weight is not a strictly positive finite number."""

    def __init__(self, weight: float):
        super().__init__(f"edge weight must be positive and finite, got {weight!r}")
        self.weight = weight


class DisconnectedGraphError(GraphError):
    """Raised when an algorithm requires a connected graph but got one that is not."""


class NativeKernelError(ReproError):
    """Raised when the native C kernel (``repro.kernels.native``), which
    every index build, snapshot load and query store runs on, cannot be
    compiled or loaded; the message names the compile command and the
    failure."""


class IndexError_(ReproError):
    """Base class for shortest-path index errors (named with a trailing underscore
    to avoid shadowing the builtin :class:`IndexError`)."""


class IndexNotBuiltError(IndexError_):
    """Raised when a query or update is issued against an index that has not been built."""


class IndexStaleError(IndexError_):
    """Raised when a query stage is used while the corresponding index is stale."""


class SnapshotError(ReproError):
    """Base class for index-persistence (``repro.store``) errors."""


class SnapshotFormatError(SnapshotError):
    """Raised when a snapshot is missing, truncated or structurally corrupt."""


class SnapshotVersionError(SnapshotError):
    """Raised when a snapshot's schema version is not the one this code reads/writes."""

    def __init__(self, found: object, expected: int):
        super().__init__(
            f"snapshot schema version {found!r} is not supported "
            f"(this build reads/writes version {expected})"
        )
        self.found = found
        self.expected = expected


class SnapshotGraphMismatchError(SnapshotError):
    """Raised when a snapshot's graph fingerprint does not match the supplied graph."""


class SnapshotUnsupportedError(SnapshotError):
    """Raised when an index (or index state) cannot be snapshotted."""


class PartitioningError(ReproError):
    """Raised when a partitioning request cannot be satisfied."""


class WorkloadError(ReproError):
    """Raised for invalid workload or throughput-evaluation configuration."""


class ServingError(ReproError):
    """Base class for errors raised by the live query-serving engine."""


class ClusterError(ServingError):
    """Base class for errors raised by the sharded multi-process cluster."""


class ClusterWorkerError(ClusterError):
    """Raised when a cluster worker dies, hangs past its timeout, or reports
    a command failure; the in-flight batch fails and the worker is respawned
    into the newest store generation."""

    def __init__(self, worker_id: int, reason: str):
        super().__init__(f"cluster worker {worker_id} failed: {reason}")
        self.worker_id = worker_id
        self.reason = reason


class StoreNotPublishedError(ClusterError):
    """Raised by a store reader whose query needs a frozen store that the
    adopted generation does not carry: a reader never freezes one from its
    own structures, which stopped describing the served epoch at the adopt."""

    def __init__(self, key: str):
        super().__init__(
            f"frozen store {key!r} is not in the adopted store generation"
        )
        self.key = key


class ServerError(ServingError):
    """Base class for errors raised by the network query plane (``repro.server``)."""


class ProtocolError(ServerError):
    """Raised when a frame on the wire violates the protocol.

    ``code`` is the machine-readable error code carried by the typed ERROR
    frame the server answers with; ``seq`` is the offending request's
    sequence number when the header parsed far enough to recover it;
    ``recoverable`` says whether the byte stream is still in sync (the
    connection can keep being used) or must be closed.
    """

    def __init__(
        self,
        message: str,
        code: str = "malformed_frame",
        seq: "int | None" = None,
        recoverable: bool = False,
    ):
        super().__init__(message)
        self.code = code
        self.seq = seq
        self.recoverable = recoverable


class ProtocolVersionError(ProtocolError):
    """Raised when a frame carries an unsupported protocol version byte."""

    def __init__(self, found: int, expected: int):
        super().__init__(
            f"unsupported protocol version {found} (this build speaks {expected})",
            code="bad_version",
        )
        self.found = found
        self.expected = expected


class FrameTooLargeError(ProtocolError):
    """Raised when a frame's length prefix exceeds the configured cap."""

    def __init__(self, length: int, limit: int):
        super().__init__(
            f"frame of {length} bytes exceeds the {limit}-byte cap",
            code="frame_too_large",
        )
        self.length = length
        self.limit = limit


class ServerBackpressureError(ServerError):
    """Client-side mapping of a RETRY frame (the 429 analogue).

    Carries the server's queue-depth hint and suggested wait so closed-loop
    clients can back off proportionally to the backlog they caused.
    """

    def __init__(self, reason: str, queue_depth: int, suggested_wait_seconds: float):
        super().__init__(
            f"server asked to retry ({reason}): queue_depth={queue_depth}, "
            f"suggested_wait={suggested_wait_seconds:.4f}s"
        )
        self.reason = reason
        self.queue_depth = queue_depth
        self.suggested_wait_seconds = suggested_wait_seconds


class RemoteServerError(ServerError):
    """Client-side mapping of a typed ERROR frame."""

    def __init__(self, code: str, message: str):
        super().__init__(f"server error [{code}]: {message}")
        self.code = code


class ServerClosedError(ServerError):
    """Raised when a request cannot complete because the connection closed."""


class QueryRejectedError(ServingError):
    """Raised when admission control sheds a query to protect the QoS bound."""

    def __init__(self, reason: str):
        super().__init__(f"query rejected by admission control: {reason}")
        self.reason = reason


class EngineStoppedError(ServingError):
    """Raised when work is submitted to a serving engine that is not running."""
