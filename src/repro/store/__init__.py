"""repro.store — versioned index persistence and mmap-backed snapshot loading.

The subsystem turns every built :class:`~repro.base.DistanceIndex` into a
durable artifact: :func:`save_index` writes a schema-versioned snapshot
directory (JSON manifest + state tree + one flat-array payload file laid out
as an arena, which a load maps once), :func:`load_index` restores a
ready-to-serve index — reconstructing or fingerprint-verifying the graph,
honoring :class:`~repro.registry.IndexSpec` overrides, and reattaching the
frozen kernel stores so the first query after a load already runs at full
speed.  See DESIGN.md §8 for the format and lifecycle.
"""

from repro.exceptions import (
    SnapshotError,
    SnapshotFormatError,
    SnapshotGraphMismatchError,
    SnapshotUnsupportedError,
    SnapshotVersionError,
)
from repro.store.snapshot import (
    FORMAT,
    SCHEMA_VERSION,
    STORES_FORMAT,
    graph_fingerprint,
    load_index,
    load_snapshot_graph,
    load_stores,
    read_manifest,
    save_index,
    save_stores,
)

__all__ = [
    "FORMAT",
    "SCHEMA_VERSION",
    "STORES_FORMAT",
    "save_index",
    "load_index",
    "save_stores",
    "load_stores",
    "load_snapshot_graph",
    "read_manifest",
    "graph_fingerprint",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotVersionError",
    "SnapshotGraphMismatchError",
    "SnapshotUnsupportedError",
]
