"""Shared (de)serializers for the structures every index snapshot is made of.

Each :meth:`~repro.base.DistanceIndex.to_state` implementation composes these
helpers rather than inventing its own wire format: graphs, flat
contractions, H2H label arrays, partitionings, partition-index families and
overlay indexes all have exactly one on-disk shape.  The helpers keep two
invariants:

* **bit-exactness** — every float travels through a float64 array (or JSON
  ``repr`` round-trip), and orders are preserved where the live structures
  rely on them, so a loaded index answers queries with the exact values the
  saved one would;
* **maintainability** — everything ``apply_batch`` reads (a contraction's
  graph weights and supporter slots, the label arenas) is persisted, so a
  loaded index accepts update batches exactly like the original.

Derived structures that are cheap to recompute relative to construction —
tree decompositions (parents from the contraction; depths and LCA entries
read from the label arena), partition boundary sets, PMHL's
cross-boundary union, the boundary distance tables of P-TD-P, PMHL and
PostMHL (one ``distance_matrix`` call per partition over the loaded
labels) — are rebuilt on load instead of stored; what the
paper's methods pay minutes for (the contraction passes and label arrays)
is what goes into the payload.  PostMHL's boundary arrays ``disB`` are
stored (one ``float64`` array, the per-partition matrices row-major in
partition order, shaped on load by the partitioning) although a build
gathers them from the label columns: U-Stage 4 recomputes them through
the boundary tables, 2-hop queries whose sums may differ in the last bit
from the label entry, so after a batch they are not derivable from the
labels.  A contraction is stored as its
:meth:`~repro.treedec.slots.SlotContraction.to_state` (the arena, ``base``
and the supporter CSR) under the key ``slots``, and H2H labels as their
arena (:func:`pack_labels`): the label store's entries, flattened LCA tables
included, and ``dis_data``.  Both are mapped back as they are and copied on
their first write.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Tuple

import numpy as np

from repro.exceptions import VertexNotFoundError
from repro.graph.graph import Graph
from repro.store.arrays import ArrayReader, ArrayWriter


# ----------------------------------------------------------------------
# Graph
# ----------------------------------------------------------------------
def pack_graph(graph: Graph, io: ArrayWriter) -> Dict[str, object]:
    """Serialize a graph's vertices, adjacency and coordinates.  The
    adjacency is a CSR with every vertex's neighbours in iteration order
    (each edge twice), so a loaded graph iterates exactly as the saved one
    (a graph snapshot frozen from it is byte-identical)."""
    verts, indptr, indices, weights = graph.to_csr()
    ids = np.asarray(verts, dtype=np.int64)
    state: Dict[str, object] = {
        "vertices": io.put_ints(ids),
        "indptr": io.put_ints(indptr),
        "nbrs": io.put_ints(ids[np.asarray(indices, dtype=np.int64)]),
        "weights": io.put_floats(weights),
    }
    coords = [(v, *c) for v in verts if (c := graph.coordinate(v)) is not None]
    if coords:
        state["coord_v"] = io.put_ints([c[0] for c in coords])
        state["coord_x"] = io.put_floats([c[1] for c in coords])
        state["coord_y"] = io.put_floats([c[2] for c in coords])
    return state


def unpack_graph(state: Dict[str, object], io: ArrayReader) -> Graph:
    verts = np.asarray(io.get_array(state["vertices"]), dtype=np.int64)
    indptr = np.asarray(io.get_array(state["indptr"]), dtype=np.int64)
    nbrs = np.asarray(io.get_array(state["nbrs"]), dtype=np.int64)
    weights = np.asarray(io.get_array(state["weights"]), dtype=np.float64)
    # Validate once up front, in numpy, then build the adjacency directly:
    # the per-edge ``add_edge`` checks would dominate load time on big graphs.
    if not (np.isfinite(weights) & (weights > 0)).all():
        raise ValueError("snapshot graph payload carries a non-positive edge weight")
    if len(verts) and verts.min() < 0:
        raise ValueError("snapshot graph payload carries a negative vertex id")
    counts = np.diff(indptr)
    if (
        len(indptr) != len(verts) + 1 or indptr[0] != 0 or indptr[-1] != len(nbrs)
        or (counts < 0).any()
    ):
        raise ValueError("snapshot graph payload has a malformed adjacency")
    # Every edge is listed once from each end, with one weight, between two
    # distinct vertices: the entries sorted by (u, v) are the transposed
    # entries sorted by (v, u), with no pair twice and no self-loop.  Every
    # neighbour is then a row's vertex too.
    us = np.repeat(verts, counts)
    forward, backward = np.lexsort((nbrs, us)), np.lexsort((us, nbrs))
    u, v = us[forward], nbrs[forward]
    if (
        (us == nbrs).any() or ((u[1:] == u[:-1]) & (v[1:] == v[:-1])).any()
        or not np.array_equal(u, nbrs[backward]) or not np.array_equal(v, us[backward])
        or not np.array_equal(weights[forward], weights[backward])
    ):
        raise ValueError("snapshot graph payload has an asymmetric adjacency")
    # One dict per row, over its slice of the (neighbour, weight) stream.
    entries = zip(nbrs.tolist(), weights.tolist())
    adjacency = {v: dict(islice(entries, count)) for v, count in zip(verts.tolist(), counts.tolist())}
    if len(adjacency) != len(verts):
        raise ValueError("snapshot graph payload lists a vertex twice")
    graph = Graph()
    graph._adj = adjacency
    graph._num_edges = len(nbrs) // 2
    if "coord_v" in state:
        coord_v = np.asarray(io.get_array(state["coord_v"]), dtype=np.int64)
        missing = coord_v[~np.isin(coord_v, verts)]
        if len(missing):
            raise VertexNotFoundError(int(missing[0]))
        xs = np.asarray(io.get_array(state["coord_x"]), dtype=np.float64).tolist()
        ys = np.asarray(io.get_array(state["coord_y"]), dtype=np.float64).tolist()
        graph._coords = dict(zip(coord_v.tolist(), zip(xs, ys)))
    return graph


# ----------------------------------------------------------------------
# H2H label arrays (dis / pos over a tree decomposition)
# ----------------------------------------------------------------------
def pack_labels(labels, io: ArrayWriter) -> Dict[str, object]:
    """Serialize an ``H2HLabels`` instance: its arena, as written; a load
    reattaches it with ``H2HLabels.over(contraction, Arena.from_state(...))``
    (a view of the mapped payload, copied on the first update)."""
    return labels.arena.to_state(io)


# ----------------------------------------------------------------------
# Planar partitioning
# ----------------------------------------------------------------------
def pack_partitioning(partitioning, io: ArrayWriter) -> Dict[str, object]:
    items = list(partitioning.vertex_partition.items())
    return {
        "verts": io.put_ints([v for v, _ in items]),
        "pids": io.put_ints([p for _, p in items]),
    }


def unpack_partitioning(state: Dict[str, object], io: ArrayReader, graph: Graph):
    from repro.partitioning.base import Partitioning

    assignment = dict(
        zip(io.get_list(state["verts"]), io.get_list(state["pids"]))
    )
    return Partitioning(graph, assignment)


# ----------------------------------------------------------------------
# Partition index family / overlay index
# ----------------------------------------------------------------------
def pack_family(family, io: ArrayWriter) -> Dict[str, object]:
    """Serialize a ``PartitionIndexFamily``: each partition's flat
    contraction (its ``base`` is the partition graph's weights, extended
    boundary pairs included) and labels."""
    return {
        "with_labels": family.with_labels,
        "slots": [c.to_state(io) for c in family.contractions],
        "labels": [
            pack_labels(lab, io) if lab is not None else None
            for lab in family.labels
        ],
    }


def unpack_family(state: Dict[str, object], io: ArrayReader, partitioning, order):
    from repro.kernels.arena import Arena
    from repro.psp.partition_family import PartitionIndexFamily
    from repro.treedec.slots import SlotContraction

    family = PartitionIndexFamily(partitioning, order, with_labels=state["with_labels"])
    for pid, (packed, labels) in enumerate(zip(state["slots"], state["labels"])):
        family.attach(
            pid, SlotContraction.from_state(packed, io),
            None if labels is None else Arena.from_state(labels, io),
        )
    family._built = True
    return family


def pack_overlay(overlay, io: ArrayWriter) -> Dict[str, object]:
    """Serialize an ``OverlayIndex``: its flat contraction (whose ``base``
    carries the overlay graph's maintained weights) and labels."""
    return {
        "with_labels": overlay.with_labels,
        "slots": overlay.contraction.to_state(io),
        "labels": pack_labels(overlay.labels, io) if overlay.labels is not None else None,
    }


def unpack_overlay(state: Dict[str, object], io: ArrayReader, partitioning, family, order):
    from repro.kernels.arena import Arena
    from repro.psp.overlay import OverlayIndex
    from repro.treedec.slots import SlotContraction

    overlay = OverlayIndex(
        partitioning, family, order, with_labels=state["with_labels"]
    )
    labels = state["labels"]
    overlay.attach(
        SlotContraction.from_state(state["slots"], io),
        None if labels is None else Arena.from_state(labels, io),
    )
    overlay._built = True
    return overlay


# ----------------------------------------------------------------------
# Weighted adjacency rows: Dict[int, [(int, float), ...]] as CSR arrays
# (TOAIN's core-label table)
# ----------------------------------------------------------------------
def pack_pairs_csr(rows, io: ArrayWriter) -> Dict[str, object]:
    """CSR-serialize ``(vertex, [(neighbor, weight), ...])`` rows in order."""
    verts: List[int] = []
    indptr = [0]
    nbrs: List[int] = []
    weights: List[float] = []
    for v, pairs in rows:
        verts.append(v)
        for u, w in pairs:
            nbrs.append(u)
            weights.append(w)
        indptr.append(len(nbrs))
    return {
        "verts": io.put_ints(verts),
        "indptr": io.put_ints(indptr),
        "nbrs": io.put_ints(nbrs),
        "weights": io.put_floats(weights),
    }


def unpack_pairs_csr(
    state: Dict[str, object], io: ArrayReader
) -> Dict[int, List[Tuple[int, float]]]:
    verts = io.get_list(state["verts"])
    indptr = io.get_list(state["indptr"])
    nbrs = io.get_list(state["nbrs"])
    weights = io.get_list(state["weights"])
    return {
        v: list(
            zip(nbrs[indptr[i] : indptr[i + 1]], weights[indptr[i] : indptr[i + 1]])
        )
        for i, v in enumerate(verts)
    }


# ----------------------------------------------------------------------
# Frozen kernel stores (see repro.kernels)
# ----------------------------------------------------------------------
def unpack_kernel_store(state: Dict[str, object], io: ArrayReader, graph: Graph):
    """Reattach one frozen kernel store from its snapshot payload."""
    from repro.kernels.graph_snapshot import GraphSnapshot
    from repro.kernels.hub_store import HubStore
    from repro.kernels.label_store import LabelStore
    from repro.kernels.shortcut_store import ShortcutStore

    kinds = {
        "label_store": LabelStore,
        "hub_store": HubStore,
        "shortcut_store": ShortcutStore,
        "graph_snapshot": GraphSnapshot,
    }
    cls = kinds.get(state.get("kind"))
    if cls is None:
        return None
    if cls is GraphSnapshot:
        return cls.from_state(state, io, graph)
    return cls.from_state(state, io)
