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

from typing import Dict, List, Tuple

import numpy as np

from repro.exceptions import PartitioningError
from repro.graph.graph import Graph
from repro.store.arrays import ArrayReader, ArrayWriter


# ----------------------------------------------------------------------
# Graph
# ----------------------------------------------------------------------
def pack_graph(graph: Graph, io: ArrayWriter) -> Dict[str, object]:
    """Serialize a graph as its arrays (``ids``, ``indptr``, ``indices``,
    ``edge``, ``weights`` and ``coords`` when it has any), so a loaded graph
    has the saved one's rows, edge ids and weights, and a graph snapshot
    frozen from it is byte-identical."""
    state: Dict[str, object] = {
        name: io.put_array(getattr(graph, name))
        for name in ("ids", "indptr", "indices", "edge", "weights")
    }
    if graph.coords is not None:
        state["coords"] = io.put_array(graph.coords.reshape(-1))
    return state


def unpack_graph(state: Dict[str, object], io: ArrayReader) -> Graph:
    """The graph over views of the payload's arrays, checked in numpy
    (:meth:`Graph.from_arrays`) before anything reads them."""
    arrays = [io.get_array(state[name]) for name in ("ids", "indptr", "indices", "edge", "weights")]
    coords = io.get_array(state["coords"]).reshape(-1, 2) if "coords" in state else None
    return Graph.from_arrays(*arrays, coords=coords)


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
    """Serialize a planar partitioning as its ``part`` array (one partition
    id per graph row) and its partition count."""
    return {"part": io.put_array(partitioning.part), "num_partitions": partitioning.num_partitions}


def unpack_partitioning(state: Dict[str, object], io: ArrayReader, graph: Graph):
    """The partitioning over a view of the payload's ``part``; an entry
    outside ``0..num_partitions-1`` or a partition left empty is a
    ``ValueError``."""
    from repro.partitioning.base import Partitioning

    part, k = io.get_array(state["part"]), int(state["num_partitions"])
    if part.dtype != np.int32 or len(part) != graph.num_vertices:
        raise ValueError("partitioning payload does not cover the graph's vertices")
    if len(part) and (part.min() < 0 or part.max() >= k):
        raise ValueError("partitioning payload names a partition out of range")
    try:
        return Partitioning(graph, part)
    except PartitioningError as exc:
        raise ValueError(f"partitioning payload is malformed: {exc}") from None


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
