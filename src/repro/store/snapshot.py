"""Schema-versioned on-disk snapshots of built distance indexes.

A snapshot is a directory::

    <path>/
      manifest.json   -- format tag, schema version, method + spec params,
                         graph fingerprint (written last: its presence
                         marks a complete snapshot)
      state.json      -- the JSON state tree produced by ``to_state`` with
                         embedded array references
      payload.npz     -- flat arrays (mmap-read on load)

``save_index`` captures everything the query *and* maintenance paths read,
plus the frozen kernel stores behind the index's batch query path (when the
C kernel is loaded), so a loaded index serves its first query at full speed
and accepts update batches exactly like the original.  ``load_index`` reverses it: spec resolution
through the registry (keyword overrides welcome), graph reconstruction or
fingerprint verification, ``from_state``, then kernel-store reattachment.

A *store generation* (``save_stores`` / ``load_stores``) is the same layout
holding only those kernel stores, tagged with the epoch they answer for: how
the cluster's maintainer ships each update batch's result to its readers.

Failure modes are typed (:mod:`repro.exceptions`): a truncated or missing
payload raises :class:`SnapshotFormatError`, a schema mismatch
:class:`SnapshotVersionError`, and a graph that does not match the snapshot's
fingerprint :class:`SnapshotGraphMismatchError` — never a silently wrong
distance.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
import time
from typing import Dict, Optional, Tuple

from repro import obs
from repro.base import DistanceIndex
from repro.exceptions import (
    SnapshotFormatError,
    SnapshotGraphMismatchError,
    SnapshotUnsupportedError,
    SnapshotVersionError,
)
from repro.graph.graph import Graph
from repro.kernels.native import native_kernel
from repro.store.arrays import ArrayWriter, open_payload
from repro.store.codec import pack_graph, unpack_graph, unpack_kernel_store

FORMAT = "repro-index-snapshot"
STORES_FORMAT = "repro-store-generation"
SCHEMA_VERSION = 1

_MANIFEST = "manifest.json"
_STATE = "state.json"


def graph_fingerprint(graph: Graph) -> str:
    """Deterministic digest of a graph's exact topology and weights.

    Weights are hashed through ``repr`` (shortest round-trip form), so two
    graphs fingerprint equal iff they are bit-identical; vertex and edge
    enumeration is sorted, so adjacency iteration order does not matter.
    """
    digest = hashlib.sha256()
    digest.update(f"v{graph.num_vertices};e{graph.num_edges};".encode())
    for v in sorted(graph.vertices()):
        digest.update(f"n{v};".encode())
    for u, v, w in sorted(graph.edges()):
        digest.update(f"{u},{v},{w!r};".encode())
    return "sha256:" + digest.hexdigest()


def _spec_for(index: DistanceIndex):
    if index.spec is not None:
        return index.spec
    from repro.registry import spec_class

    try:
        cls = spec_class(index.name)
    except ValueError as exc:
        raise SnapshotUnsupportedError(
            f"index {type(index).__name__} (name={index.name!r}) is not a "
            "registered method and carries no spec; snapshots cover the "
            "registry's methods"
        ) from exc
    # Directly-constructed index (no registry spec attached): reconstruct the
    # recipe from the instance itself.  Every spec field mirrors a same-named
    # constructor attribute, so the manifest records the parameters the index
    # was actually built with, not the method defaults.
    params = {
        field.name: getattr(index, field.name)
        for field in dataclasses.fields(cls)
        if hasattr(index, field.name)
    }
    return cls(**params)


def save_index(
    index: DistanceIndex,
    path: str,
    extras: Optional[Dict[str, object]] = None,
    generation: Optional[int] = None,
    atomic: bool = False,
) -> str:
    """Persist a built index (and its graph) as a snapshot directory.

    Parameters
    ----------
    index:
        Any built, registry-created :class:`~repro.base.DistanceIndex`.
    path:
        Snapshot directory (created if missing, files overwritten).
    extras:
        Optional JSON-able metadata recorded in the manifest (e.g. the
        serving engine's epoch).
    generation:
        Monotonic publish counter recorded as the manifest's top-level
        ``generation`` field (defaults to 0).  The cluster's
        ``publish_snapshot`` names each full snapshot it writes with the
        next generation.
    atomic:
        Serialize into a staging directory next to ``path`` and rename it
        into place, so a concurrently-starting reader (e.g. a cluster worker
        warm-starting from ``path``) can never open a half-written snapshot:
        it sees the complete old snapshot, the complete new one, or a typed
        :class:`~repro.exceptions.SnapshotFormatError` — never torn bytes.
    """
    if not index.is_built:
        raise SnapshotUnsupportedError("only built indexes can be snapshotted")
    started = time.perf_counter()
    spec = _spec_for(index)
    writer = ArrayWriter()

    state: Dict[str, object] = {
        "graph": pack_graph(index.graph, writer),
        "index": index.to_state(writer),
    }
    kernels = _pack_kernels(index, writer)
    if kernels:
        state["kernels"] = kernels
    manifest = {
        "format": FORMAT,
        "schema_version": SCHEMA_VERSION,
        "method": spec.method,
        "spec": dataclasses.asdict(spec),
        "payload": writer.filename,
        "payload_backend": writer.backend,
        "state_file": _STATE,
        "generation": int(generation) if generation is not None else 0,
        "graph": {
            "num_vertices": index.graph.num_vertices,
            "num_edges": index.graph.num_edges,
            "fingerprint": graph_fingerprint(index.graph),
        },
        "index": {
            "name": index.name,
            "build_seconds": index.build_seconds,
            "index_size": index.index_size(),
        },
        "created_unix": time.time(),
    }
    if extras:
        manifest["extras"] = extras
    _write(path, writer, state, manifest, atomic)
    if obs.is_enabled():
        _record_snapshot_op("save", index.name, time.perf_counter() - started, path)
    return path


def save_stores(index: DistanceIndex, path: str, epoch: int) -> str:
    """Write ``index``'s exported query stores as a *store generation*.

    A store generation is a snapshot directory without the graph and the
    index state: the npz payload holds only the arenas of
    :meth:`~repro.base.DistanceIndex._kernel_exports` (frozen now if this
    kernel epoch has not frozen them yet), and the manifest records the
    ``epoch`` they answer for.  The write is atomic (see :func:`save_index`).
    A process holding an index loaded from the same base snapshot maps the
    generation with :func:`load_stores` and serves this epoch through
    :meth:`~repro.base.DistanceIndex.adopt_stores`.
    """
    writer = ArrayWriter()
    state = {"kernels": _pack_kernels(index, writer)}
    manifest = {
        "format": STORES_FORMAT,
        "schema_version": SCHEMA_VERSION,
        "method": _spec_for(index).method,
        "epoch": int(epoch),
        "payload": writer.filename,
        "payload_backend": writer.backend,
        "state_file": _STATE,
    }
    _write(path, writer, state, manifest, atomic=True)
    return path


def load_stores(path: str, graph: Graph) -> Tuple[int, Dict[str, object]]:
    """Map a store generation written by :func:`save_stores`.

    Returns ``(epoch, {memo key: store})``; the arenas are mmap views onto
    the generation's payload.  ``graph`` is the reading index's graph (a
    graph snapshot store is keyed to it).
    """
    manifest = read_manifest(path, STORES_FORMAT)
    reader, state = _open_state(path, manifest)
    try:
        epoch = int(manifest["epoch"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"store generation {path!r} has no epoch: {exc}") from None
    return epoch, _unpack_kernels(state.get("kernels", {}), reader, graph)


def _pack_kernels(index: DistanceIndex, writer: ArrayWriter) -> Dict[str, object]:
    """Freeze (or reuse) and serialize every store ``index`` exports."""
    kernels: Dict[str, object] = {}
    if index.use_kernels:
        for key, freezer in index._kernel_exports().items():
            store = freezer()
            if store is not None:
                kernels[key] = store.to_state(writer)
    return kernels


def _unpack_kernels(packed_stores: Dict[str, object], reader, graph: Graph) -> Dict[str, object]:
    """Reattach every packed store — none without the C kernel, which every
    store answers through (the loading index takes its reference path)."""
    try:
        for key, packed in packed_stores.items():
            if "arena" not in packed:
                raise SnapshotFormatError(
                    f"kernel store {key!r} predates the arena layout; re-save the snapshot"
                )
        if native_kernel() is None:
            return {}
        stores = {
            key: unpack_kernel_store(packed, reader, graph)
            for key, packed in packed_stores.items()
        }
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"corrupt snapshot kernel payload: {exc}") from exc
    return {key: store for key, store in stores.items() if store is not None}


def _write(
    path: str,
    writer: ArrayWriter,
    state: Dict[str, object],
    manifest: Dict[str, object],
    atomic: bool,
) -> None:
    """Write a snapshot directory, in place or by atomic rename."""
    if not atomic:
        _write_files(path, writer, state, manifest)
        return
    parent = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(prefix="." + os.path.basename(path) + ".tmp-", dir=parent)
    try:
        _write_files(staging, writer, state, manifest)
        if os.path.isdir(path):
            # ``os.rename`` refuses a non-empty target; retire the old
            # snapshot first.  Both renames are atomic, so a reader only
            # ever finds a complete old or complete new directory at
            # ``path`` (or, in the instant between the two renames, no
            # directory — a typed SnapshotFormatError, never torn bytes).
            retired = staging + ".old"
            os.rename(path, retired)
            os.rename(staging, path)
            shutil.rmtree(retired, ignore_errors=True)
        else:
            os.rename(staging, path)
    except Exception:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def _write_files(
    path: str,
    writer: ArrayWriter,
    state: Dict[str, object],
    manifest: Dict[str, object],
) -> None:
    """Write payload, state and manifest into ``path`` (manifest last)."""
    os.makedirs(path, exist_ok=True)
    # Invalidate any existing snapshot *before* touching its files: payload
    # array names are deterministic (a0000, ...), so a crash mid-overwrite
    # must never leave an old manifest pairing old refs with new bytes —
    # without a manifest the directory reads as SnapshotFormatError, typed.
    manifest_path = os.path.join(path, _MANIFEST)
    if os.path.exists(manifest_path):
        os.remove(manifest_path)
    writer.write(path)
    with open(os.path.join(path, _STATE), "w") as handle:
        json.dump(state, handle)
    # The manifest goes last: its presence marks a complete snapshot.
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, indent=2)


def _snapshot_bytes(path: str) -> int:
    """Total on-disk size of a snapshot directory's files."""
    total = 0
    try:
        for entry in os.scandir(path):
            if entry.is_file():
                total += entry.stat().st_size
    except OSError:
        pass
    return total


def _record_snapshot_op(op: str, method: str, seconds: float, path: str) -> None:
    size = _snapshot_bytes(path)
    obs.record_span(f"store.{op}_index", seconds, method=method, bytes=size)
    registry = obs.registry()
    registry.counter(
        f"repro_snapshot_{op}s_total", f"Completed snapshot {op}s", method=method
    ).inc()
    registry.histogram(
        f"repro_snapshot_{op}_seconds", f"Wall time per snapshot {op}", method=method
    ).record(seconds)
    registry.gauge(
        "repro_snapshot_last_bytes", "On-disk size of the last snapshot touched", op=op
    ).set(size)


def read_manifest(path: str, format: str = FORMAT) -> Dict[str, object]:
    """Read and validate a snapshot's manifest (format + schema version);
    ``format`` is :data:`STORES_FORMAT` for a store generation."""
    manifest_path = os.path.join(path, _MANIFEST)
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise SnapshotFormatError(
            f"{path!r} is not a snapshot directory (no readable manifest): {exc}"
        ) from exc
    except ValueError as exc:
        raise SnapshotFormatError(f"corrupt snapshot manifest {manifest_path!r}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != format:
        raise SnapshotFormatError(
            f"{manifest_path!r} is not a {format} manifest"
        )
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise SnapshotVersionError(manifest.get("schema_version"), SCHEMA_VERSION)
    return manifest


def _open_state(path: str, manifest: Dict[str, object], mmap: bool = True):
    """The payload reader and the JSON state tree a manifest points at."""
    try:
        payload_name = manifest["payload"]
        payload_backend = manifest["payload_backend"]
    except KeyError as exc:
        raise SnapshotFormatError(f"snapshot manifest is missing field {exc}") from None
    reader = open_payload(path, payload_name, payload_backend, mmap=mmap)
    state_path = os.path.join(path, manifest.get("state_file", _STATE))
    try:
        with open(state_path) as handle:
            state = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SnapshotFormatError(f"unreadable snapshot state {state_path!r}: {exc}") from exc
    return reader, state


def load_index(
    path: str,
    graph: Optional[Graph] = None,
    mmap: bool = True,
    **overrides: object,
) -> DistanceIndex:
    """Load a snapshot back into a ready-to-serve index.

    Parameters
    ----------
    path:
        Snapshot directory written by :func:`save_index`.
    graph:
        Optional live graph to build the index on.  It must fingerprint
        exactly as the snapshot's graph (else
        :class:`~repro.exceptions.SnapshotGraphMismatchError`); when omitted
        the graph is reconstructed from the snapshot.
    mmap:
        Attach mmap-backed views onto the npz payload where possible.
    overrides:
        Spec parameter overrides (validated against the method's
        :class:`~repro.registry.IndexSpec`), e.g. ``use_kernels=False``.
    """
    from repro.registry import get_spec

    started = time.perf_counter()
    manifest = read_manifest(path)
    try:
        method = manifest["method"]
        saved_params = dict(manifest["spec"])
        graph_meta = manifest["graph"]
    except KeyError as exc:
        raise SnapshotFormatError(f"snapshot manifest is missing field {exc}") from None
    saved_params.update(overrides)
    spec = get_spec(method, **saved_params)
    reader, state = _open_state(path, manifest, mmap)

    if graph is not None:
        found = graph_fingerprint(graph)
        if found != graph_meta.get("fingerprint"):
            raise SnapshotGraphMismatchError(
                f"supplied graph (fingerprint {found}) does not match the "
                f"snapshot's graph ({graph_meta.get('fingerprint')}); "
                "the snapshot's labels would answer wrong distances"
            )
    else:
        try:
            graph = unpack_graph(state["graph"], reader)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise SnapshotFormatError(f"corrupt snapshot graph payload: {exc}") from exc

    index = spec.create(graph)
    index.use_kernels = spec.use_kernels
    index.spec = spec
    try:
        index.from_state(state["index"], reader)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"corrupt snapshot index payload: {exc}") from exc
    index._built = True
    index.build_seconds = manifest.get("index", {}).get("build_seconds", 0.0)
    index.invalidate_kernels()
    if index.use_kernels:
        for key, store in _unpack_kernels(state.get("kernels", {}), reader, graph).items():
            index._attach_kernel(key, store)
    if obs.is_enabled():
        _record_snapshot_op("load", index.name, time.perf_counter() - started, path)
    return index


def load_snapshot_graph(path: str, mmap: bool = True) -> Graph:
    """Reconstruct only the graph of a snapshot (no index state)."""
    reader, state = _open_state(path, read_manifest(path), mmap)
    try:
        return unpack_graph(state["graph"], reader)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"corrupt snapshot graph payload: {exc}") from exc
