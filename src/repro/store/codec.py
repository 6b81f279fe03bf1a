"""Shared (de)serializers for the structures every index snapshot is made of.

Each :meth:`~repro.base.DistanceIndex.to_state` implementation composes these
helpers rather than inventing its own wire format: graphs, MDE contractions,
H2H label arrays, partitionings, partition-index families and overlay indexes
all have exactly one on-disk shape.  The helpers keep two invariants:

* **bit-exactness** — every float travels through a float64 array (or JSON
  ``repr`` round-trip), and dict/list orders are preserved where the live
  structures rely on them, so a loaded index answers queries with the exact
  values the saved one would;
* **maintainability** — everything ``apply_batch`` reads (supporter records,
  base-edge weights, per-partition graphs) is persisted, so a loaded index
  accepts update batches exactly like the original.

Derived structures that are cheap to recompute relative to construction —
tree decompositions, LCA oracles, partition boundary sets — are rebuilt on
load instead of stored; what the paper's methods pay minutes for (the
contraction passes and label arrays) is what goes into the payload.  H2H
labels are stored as their arena (:func:`pack_labels`): the label store's
entries, flattened LCA tables included, and ``dis_data``, mapped back as
they are and checked against the tree on load (:func:`unpack_labels`).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Tuple

from repro.graph.graph import Graph
from repro.store.arrays import ArrayReader, ArrayWriter
from repro.treedec.mde import ContractionResult
from repro.treedec.tree import TreeDecomposition


class _LoadedDict(dict):
    """What a :class:`LazyDict` becomes once its loader has run.

    A ``dict`` subclass with no Python-level method at all (the slots only
    keep the two layouts assignment-compatible), so every subscript, ``get``
    and iteration of a materialised container runs at built-in ``dict``
    speed: a loaded index maintains exactly as fast as the one it was saved
    from.
    """

    __slots__ = ("_loader", "_lock")


class LazyDict(_LoadedDict):
    """A dict whose contents are produced by ``loader`` on first access.

    Loading a snapshot materialises Python dict-of-list structures from flat
    arrays; for the structures only the *maintenance* paths read (supporter
    records and shortcut arrays of dict contractions) that conversion is
    deferred: the loader closure keeps the (mmap-
    backed) arrays and runs once, on the first access, after which the
    instance **is** a plain dict — its class is swapped to the override-free
    :class:`_LoadedDict`, so no later access enters Python.  Query-only warm
    starts therefore never pay for the structures they never touch, and
    maintenance never pays for the laziness after the first touch.

    Every public ``dict`` method that reads, merges or writes is wrapped to
    materialise first (see ``_MATERIALISING`` below; a loader running *after*
    a write would silently overwrite it).
    """

    __slots__ = ()

    def __init__(self, loader):
        super().__init__()
        self._loader = loader
        self._lock = threading.Lock()


def _ensure_loaded(lazy: _LoadedDict) -> None:
    # Warm-started serving runs queries on multiple threads; the first
    # touches can race here.  The loader fills a *staging* dict under the
    # lock (so its own writes don't re-enter the wrappers) and ``_loader``
    # flips to None only after ``lazy`` holds the full contents — a thread
    # seeing None on the fast path therefore always sees a completely
    # materialised dict, never a partial one.  The class swap comes last:
    # a thread that bypasses the wrappers sees the same complete dict.
    if lazy._loader is None:
        return
    with lazy._lock:
        loader = lazy._loader
        if loader is None:
            return
        staging: dict = {}
        loader(staging)
        dict.update(lazy, staging)
        lazy._loader = None
        lazy.__class__ = _LoadedDict


def _materialising(name: str):
    method = getattr(dict, name)

    def wrapper(self, *args, **kwargs):
        _ensure_loaded(self)
        return method(self, *args, **kwargs)

    wrapper.__name__ = name
    wrapper.__qualname__ = f"LazyDict.{name}"
    return wrapper


#: Every public ``dict`` method that observes or changes the contents.
#: ``bool()`` goes through ``__len__``; ``str()`` / ``format()`` through
#: ``__repr__``; ``dict(lazy)`` and ``{**lazy}`` through ``keys`` because
#: ``__iter__`` is overridden (CPython's raw-storage fast path is skipped).
_MATERIALISING = (
    "__contains__", "__getitem__", "__iter__", "__len__", "__reversed__",
    "__eq__", "__ne__", "__repr__", "__or__", "__ror__", "__ior__",
    "__setitem__", "__delitem__",
    "get", "keys", "values", "items", "copy",
    "pop", "popitem", "setdefault", "update", "clear",
)
for _name in _MATERIALISING:
    setattr(LazyDict, _name, _materialising(_name))
del _name


# ----------------------------------------------------------------------
# Graph
# ----------------------------------------------------------------------
def pack_graph(graph: Graph, io: ArrayWriter) -> Dict[str, object]:
    """Serialize a graph's vertices, edges and coordinates."""
    verts = list(graph.vertices())
    edge_u: List[int] = []
    edge_v: List[int] = []
    edge_w: List[float] = []
    for u, v, w in graph.edges():
        edge_u.append(u)
        edge_v.append(v)
        edge_w.append(w)
    state: Dict[str, object] = {
        "vertices": io.put_ints(verts),
        "edge_u": io.put_ints(edge_u),
        "edge_v": io.put_ints(edge_v),
        "edge_w": io.put_floats(edge_w),
    }
    coords = [(v, *c) for v in verts if (c := graph.coordinate(v)) is not None]
    if coords:
        state["coord_v"] = io.put_ints([c[0] for c in coords])
        state["coord_x"] = io.put_floats([c[1] for c in coords])
        state["coord_y"] = io.put_floats([c[2] for c in coords])
    return state


def unpack_graph(state: Dict[str, object], io: ArrayReader) -> Graph:
    verts = io.get_list(state["vertices"])
    edge_u = io.get_list(state["edge_u"])
    edge_v = io.get_list(state["edge_v"])
    edge_w = io.get_list(state["edge_w"])
    # Validate once up front, then build the adjacency directly: the
    # per-edge ``add_edge`` checks would dominate load time on big graphs.
    if any(not (math.isfinite(w) and w > 0) for w in edge_w):
        raise ValueError("snapshot graph payload carries a non-positive edge weight")
    if verts and min(verts) < 0:
        raise ValueError("snapshot graph payload carries a negative vertex id")
    graph = Graph()
    adjacency = {v: {} for v in verts}
    for u, v, w in zip(edge_u, edge_v, edge_w):
        adjacency[u][v] = w
        adjacency[v][u] = w
    graph._adj = adjacency
    graph._num_edges = len(edge_u)
    if "coord_v" in state:
        for v, x, y in zip(
            io.get_list(state["coord_v"]),
            io.get_list(state["coord_x"]),
            io.get_list(state["coord_y"]),
        ):
            graph.set_coordinate(v, x, y)
    return graph


# ----------------------------------------------------------------------
# MDE contraction (order + shortcuts + supporters + base edges)
# ----------------------------------------------------------------------
def pack_contraction(contraction: ContractionResult, io: ArrayWriter) -> Dict[str, object]:
    order = contraction.order
    nbr_indptr = [0]
    nbr_data: List[int] = []
    sc_data: List[float] = []
    for v in order:
        nbrs = contraction.neighbors[v]
        shortcuts = contraction.shortcuts[v]
        nbr_data.extend(nbrs)
        sc_data.extend(shortcuts[u] for u in nbrs)
        nbr_indptr.append(len(nbr_data))
    sup_a: List[int] = []
    sup_b: List[int] = []
    sup_indptr = [0]
    sup_data: List[int] = []
    for (a, b), supporters in contraction.supporters.items():
        sup_a.append(a)
        sup_b.append(b)
        sup_data.extend(supporters)
        sup_indptr.append(len(sup_data))
    base_items = list(contraction.base_edges.items())
    return {
        "order": io.put_ints(order),
        "nbr_indptr": io.put_ints(nbr_indptr),
        "nbr_data": io.put_ints(nbr_data),
        "sc_data": io.put_floats(sc_data),
        "sup_a": io.put_ints(sup_a),
        "sup_b": io.put_ints(sup_b),
        "sup_indptr": io.put_ints(sup_indptr),
        "sup_data": io.put_ints(sup_data),
        "base_u": io.put_ints([k[0] for k, _ in base_items]),
        "base_v": io.put_ints([k[1] for k, _ in base_items]),
        "base_w": io.put_floats([w for _, w in base_items]),
    }


def _canonical_ids(order: List[int]):
    """Map a vertex id to the one int object ``order`` holds for it.

    Every array read mints fresh int objects, and a dict probe whose key is
    equal but not *identical* to the stored one pays a rich comparison on top
    of the hash match — maintenance makes millions of them.  Routing the
    vertex-id lists of one structure through this map gives a loaded index
    what a built one has for free: one int object per vertex.
    """
    return dict(zip(order, order)).__getitem__


def unpack_contraction(state: Dict[str, object], io: ArrayReader) -> ContractionResult:
    result = ContractionResult()
    order = io.get_list(state["order"])
    result.order = order
    result.rank = {v: i for i, v in enumerate(order)}
    nbr_indptr = io.get_list(state["nbr_indptr"])
    same = _canonical_ids(order)
    nbr_data = list(map(same, io.get_list(state["nbr_data"])))
    for i, v in enumerate(order):
        result.neighbors[v] = nbr_data[nbr_indptr[i] : nbr_indptr[i + 1]]
    neighbors = result.neighbors

    # The shortcut dicts are read by queries (CH-family pure paths) but not
    # by tree reconstruction; the supporter/base-edge records are read only
    # by ``apply_batch``.  All three materialise lazily from the payload.
    def load_shortcuts(target: dict) -> None:
        sc_data = io.get_list(state["sc_data"])
        for i, v in enumerate(order):
            target[v] = dict(
                zip(neighbors[v], sc_data[nbr_indptr[i] : nbr_indptr[i + 1]])
            )

    def load_supporters(target: dict) -> None:
        sup_indptr = io.get_list(state["sup_indptr"])
        sup_data = list(map(same, io.get_list(state["sup_data"])))
        for i, (a, b) in enumerate(
            zip(
                map(same, io.get_list(state["sup_a"])),
                map(same, io.get_list(state["sup_b"])),
            )
        ):
            target[(a, b)] = sup_data[sup_indptr[i] : sup_indptr[i + 1]]

    def load_base_edges(target: dict) -> None:
        for u, v, w in zip(
            io.get_list(state["base_u"]),
            io.get_list(state["base_v"]),
            io.get_list(state["base_w"]),
        ):
            target[(u, v)] = w

    result.shortcuts = LazyDict(load_shortcuts)
    result.supporters = LazyDict(load_supporters)
    result.base_edges = LazyDict(load_base_edges)
    return result


# ----------------------------------------------------------------------
# H2H label arrays (dis / pos over a tree decomposition)
# ----------------------------------------------------------------------
def pack_labels(labels, io: ArrayWriter) -> Dict[str, object]:
    """Serialize an ``H2HLabels`` instance: its arena, as written."""
    return labels.arena.to_state(io)


def unpack_labels(state: Dict[str, object], io: ArrayReader, tree: TreeDecomposition):
    """Map saved labels onto ``tree``: the arena is reattached (mmap-backed
    when the payload is) and copied on the first update.  Only the rows are
    checked here; the label pass checks every index it follows before it
    writes, and the store's build what a query reads."""
    from repro.kernels.arena import Arena
    from repro.labeling.h2h import H2HLabels

    return H2HLabels(tree, Arena.from_state(state, io))


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
    """Serialize a ``PartitionIndexFamily`` (graph copies included).

    The per-partition graphs are stored rather than re-derived because the
    post-boundary (extended) families carry boundary-pair edges that do not
    exist in the road network.
    """
    return {
        "with_labels": family.with_labels,
        "graphs": [pack_graph(g, io) for g in family.graphs],
        "contractions": [pack_contraction(c, io) for c in family.contractions],
        "labels": [
            pack_labels(lab, io) if lab is not None else None
            for lab in family.labels
        ],
    }


def unpack_family(state: Dict[str, object], io: ArrayReader, partitioning, order):
    from repro.psp.partition_family import PartitionIndexFamily

    graphs = [unpack_graph(g, io) for g in state["graphs"]]
    family = PartitionIndexFamily(
        partitioning, order, with_labels=state["with_labels"], graphs=graphs
    )
    for pid, packed in enumerate(state["contractions"]):
        contraction = unpack_contraction(packed, io)
        tree = TreeDecomposition.from_contraction(contraction, allow_forest=True)
        family.contractions[pid] = contraction
        family.trees[pid] = tree
        packed_labels = state["labels"][pid]
        if packed_labels is not None:
            family.labels[pid] = unpack_labels(packed_labels, io, tree)
    family._built = True
    return family


def pack_overlay(overlay, io: ArrayWriter) -> Dict[str, object]:
    """Serialize an ``OverlayIndex`` (its graph is maintained incrementally
    and can drift from a fresh ``build_overlay_graph``, so it is stored)."""
    return {
        "with_labels": overlay.with_labels,
        "graph": pack_graph(overlay.graph, io),
        "contraction": pack_contraction(overlay.contraction, io),
        "labels": pack_labels(overlay.labels, io) if overlay.labels is not None else None,
    }


def unpack_overlay(state: Dict[str, object], io: ArrayReader, partitioning, family, order):
    from repro.psp.overlay import OverlayIndex

    overlay = OverlayIndex(
        partitioning, family, order, with_labels=state["with_labels"]
    )
    overlay.graph = unpack_graph(state["graph"], io)
    overlay.contraction = unpack_contraction(state["contraction"], io)
    overlay.tree = TreeDecomposition.from_contraction(
        overlay.contraction, allow_forest=True
    )
    if state["labels"] is not None:
        overlay.labels = unpack_labels(state["labels"], io, overlay.tree)
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
# Symmetric pair -> distance tables (boundary distance caches)
# ----------------------------------------------------------------------
def pack_pair_table(table: Dict[Tuple[int, int], float], io: ArrayWriter) -> Dict[str, object]:
    """Serialize a symmetric ``(a, b) -> d`` table (one direction stored)."""
    items = [(a, b, d) for (a, b), d in table.items() if a < b]
    return {
        "a": io.put_ints([a for a, _, _ in items]),
        "b": io.put_ints([b for _, b, _ in items]),
        "d": io.put_floats([d for _, _, d in items]),
    }


def unpack_pair_table(state: Dict[str, object], io: ArrayReader) -> Dict[Tuple[int, int], float]:
    table: Dict[Tuple[int, int], float] = {}
    for a, b, d in zip(
        io.get_list(state["a"]), io.get_list(state["b"]), io.get_list(state["d"])
    ):
        table[(a, b)] = d
        table[(b, a)] = d
    return table


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
