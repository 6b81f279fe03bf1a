"""Weighted undirected road-network graph, stored as arrays.

The :class:`Graph` class is the substrate every index in this package is
built on.  Its topology is a CSR made once — by :meth:`Graph.from_edges`, or
checked from a snapshot payload by :meth:`Graph.from_arrays` — and never
changed; its metric is one ``float64`` weight per undirected edge, which
:meth:`Graph.set_edge_weight` overwrites in place.  The paper's updates
change weights only: this is the topology / metric split of Customizable CH
(Dibbelt, Strasser, Wagner, JEA 2016) every contraction here follows.

* ``ids: int64[n]`` — vertex ids, strictly ascending, not necessarily
  contiguous; a vertex's *position* (row) is its index in ``ids``;
* ``indptr: int64[n + 1]`` / ``indices: int64[2m]`` — each row's neighbour
  positions, every edge listed from both ends, in the order the edges first
  reached the builder (so generators, partitioners and searches whose
  tie-breaks follow neighbour order are a function of the edge sequence);
* ``edge: int64[2m]`` — each slot's undirected edge; ``weights: float64[m]``;
* ``coords: float64[n, 2]`` or ``None`` (``nan`` where a vertex has none).

The Python searches (the reference queries and the partitioners) walk lists
made by one ``tolist()`` per topology (per weight version for the weighted
rows), never numpy scalars.  Vertex
membership is one dict lookup (id to row, made once per topology).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import (
    EdgeNotFoundError,
    GraphError,
    InvalidWeightError,
    VertexNotFoundError,
)
from repro.kernels.arena import build_remap, rows_of
from repro.uniques import unique

Edge = Tuple[int, int, float]


def _check_weight(weight: float) -> float:
    """Validate an edge weight and return it as a float."""
    try:
        value = float(weight)
    except (TypeError, ValueError) as exc:
        raise InvalidWeightError(weight) from exc
    if not math.isfinite(value) or value <= 0:
        raise InvalidWeightError(weight)
    return value


def _ints(values) -> np.ndarray:
    """``values`` (any iterable of ids) as a flat ``int64`` array."""
    return np.asarray(values if isinstance(values, np.ndarray) else list(values),
                      dtype=np.int64).reshape(-1)


class Graph:
    """Undirected graph with positive edge weights and optional coordinates.

    Build it with :meth:`from_edges`; the constructor wraps arrays that are
    already the layout of the module docstring.  An edge's one weight is read
    from both endpoints (the paper treats road networks as undirected).
    """

    __slots__ = ("ids", "indptr", "indices", "edge", "weights", "coords",
                 "_version", "_members", "_topology", "_rows")

    def __init__(self, ids, indptr, indices, edge, weights, coords=None, version: int = 0):
        self.ids, self.indptr, self.indices, self.edge = ids, indptr, indices, edge
        self.weights, self.coords, self._version = weights, coords, version
        #: ``v in _members`` is the vertex check and ``_members[v]`` its row:
        #: a dict, whose lookup costs half a ``range`` test's in CPython.
        self._members = dict(zip(ids.tolist(), range(len(ids))))
        #: Arrays and lists derived from the topology alone, shared by copies.
        self._topology: Dict[str, object] = {}
        self._rows: Tuple[int, Optional[list]] = (-1, None)

    @classmethod
    def from_edges(
        cls,
        us: Sequence[int] = (),
        vs: Sequence[int] = (),
        weights: Sequence[float] = (),
        vertices: Sequence[int] = (),
        coords=None,
    ) -> "Graph":
        """The graph on ``vertices`` plus every endpoint, with the edges
        ``(us[i], vs[i], weights[i])``.

        An edge given twice keeps its first position in both rows and the
        *minimum* weight (shortcut-insertion semantics).  A self-loop, a
        negative id or a weight that is not finite and positive is refused,
        the first in input order reported.  ``coords`` is ``float64[n, 2]``
        aligned with the sorted ids.
        """
        us, vs = _ints(us), _ints(vs)
        try:
            ws = np.asarray(weights, dtype=np.float64).reshape(-1)
        except (TypeError, ValueError):
            for weight in weights:
                _check_weight(weight)
            raise
        if not len(us) == len(vs) == len(ws):
            raise GraphError("from_edges needs one weight per (u, v) pair")
        bad = (us == vs) | ~(np.isfinite(ws) & (ws > 0))
        if bad.any():
            first = int(np.argmax(bad))
            if us[first] == vs[first]:
                raise GraphError(f"self-loops are not allowed (vertex {int(us[first])})")
            raise InvalidWeightError(weights[first])
        ids = unique(np.concatenate([_ints(vertices), us, vs]))
        if len(ids) and ids[0] < 0:
            raise GraphError(f"vertex ids must be non-negative, got {int(ids[0])}")
        pu, pv = np.searchsorted(ids, us), np.searchsorted(ids, vs)
        lo, hi = np.minimum(pu, pv), np.maximum(pu, pv)
        # Duplicates sort together in input order (lexsort is stable): the
        # first names the edge, the minimum weighs it.
        order = np.lexsort((hi, lo))
        new = np.ones(len(order), dtype=bool)
        new[1:] = (np.diff(lo[order]) != 0) | (np.diff(hi[order]) != 0)
        starts = np.flatnonzero(new)
        first = order[starts]
        ranked = np.argsort(first)
        a, b = pu[first[ranked]], pv[first[ranked]]
        w = (np.minimum.reduceat(ws[order], starts) if len(starts) else ws)[ranked]
        # Both directions of every edge; each row's slots in edge order.
        src, eid = np.concatenate([a, b]), np.tile(np.arange(len(w)), 2)
        slots = np.lexsort((eid, src))
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=len(ids)), out=indptr[1:])
        if coords is not None:
            coords = np.array(coords, dtype=np.float64).reshape(len(ids), 2)
        return cls(ids, indptr, np.concatenate([b, a])[slots], eid[slots], w, coords)

    @classmethod
    def from_arrays(cls, ids, indptr, indices, edge, weights, coords=None) -> "Graph":
        """Wrap arrays (a snapshot payload's views) once numpy has checked
        they are the module docstring's layout: a ``ValueError`` names the
        first broken rule, so no search ever reads a bad CSR."""
        n, slots, m = len(ids), len(indices), len(weights)
        if any(a.dtype != np.int64 or a.ndim != 1 for a in (ids, indptr, indices, edge)) \
                or weights.dtype != np.float64:
            raise ValueError("graph payload arrays do not have the graph's dtypes")
        if n and (ids[0] < 0 or (ids[1:] <= ids[:-1]).any()):
            raise ValueError("graph payload ids are not distinct non-negative ascending ids")
        if (len(indptr) != n + 1 or indptr[0] != 0 or indptr[-1] != slots
                or (indptr[1:] < indptr[:-1]).any() or len(edge) != slots or slots != 2 * m):
            raise ValueError("graph payload has a malformed adjacency")
        if slots and (min(indices.min(), edge.min()) < 0 or indices.max() >= n
                      or edge.max() >= m):
            raise ValueError("graph payload names a row or an edge out of range")
        if not (np.isfinite(weights) & (weights > 0)).all():
            raise ValueError("graph payload carries a non-positive edge weight")
        # Every edge owns two slots, each the other's mirror image, between
        # distinct rows, and no two rows are joined twice.
        graph = cls(ids, indptr, indices, edge, weights, coords)
        tail, pair = graph.slot_rows(), np.argsort(edge, kind="stable")
        a, b = pair[0::2], pair[1::2]
        if ((np.bincount(edge, minlength=m) != 2).any() or (tail == indices).any()
                or (tail[a] != indices[b]).any() or (indices[a] != tail[b]).any()
                or len(unique(tail * n + indices)) != slots):
            raise ValueError("graph payload has an asymmetric adjacency")
        if coords is not None and coords.shape != (n, 2):
            raise ValueError("graph payload coordinates do not match its vertices")
        return graph

    # ------------------------------------------------------------------
    # Vertices and edges
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        return len(self.weights)

    @property
    def version(self) -> int:
        """Counter bumped by every weight write: frozen snapshots
        (``repro.kernels.GraphSnapshot``) record it to detect staleness."""
        return self._version

    @property
    def slot_weights(self) -> np.ndarray:
        """``float64[2m]``: each slot's weight."""
        return self.weights[self.edge]

    @property
    def id_list(self) -> List[int]:
        """The ids as a Python list, made once (callers must not mutate it)."""
        return self._derived("ids", self.ids.tolist)

    def vertices(self) -> Iterator[int]:
        """Iterate over all vertex ids, ascending."""
        return iter(self.id_list)

    def edges(self) -> Iterator[Edge]:
        """Every edge once as ``(u, v, weight)`` with ``u < v``: rows
        ascending, each row's neighbours in row order."""
        return zip(*(array.tolist() for array in self.edge_arrays()))

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(us, vs, weights)`` of :meth:`edges`, as arrays."""
        upper = self.upper_slots()
        return (self.ids[self.slot_rows()[upper]], self.ids[self.indices[upper]],
                self.weights[self.edge[upper]])

    def has_vertex(self, v: int) -> bool:
        return v in self._members

    def position(self, v: int) -> int:
        """Row of vertex ``v``; :class:`VertexNotFoundError` if absent."""
        if v not in self._members:
            raise VertexNotFoundError(v)
        return self._members[v]

    def positions(self, vertices) -> np.ndarray:
        """Rows of ``vertices`` as an ``int64`` array, one id-map call (the
        C ``map_ids``); the first vertex that does
        not exist is a :class:`VertexNotFoundError` naming it and its
        position."""
        return rows_of(self._derived("idmap", lambda: build_remap(self.ids)), vertices)

    def _edge_id(self, u: int, v: int) -> int:
        """The edge joining ``u`` and ``v``, ``-1`` when there is none."""
        members = self._members
        if u in members and v in members:
            indptr, indices, edge = self._lists()
            row, start = members[u], indptr[members[u]]
            neighbours = indices[start : indptr[row + 1]]
            if members[v] in neighbours:
                return edge[start + neighbours.index(members[v])]
        return -1

    def has_edge(self, u: int, v: int) -> bool:
        return self._edge_id(u, v) >= 0

    def degree(self, v: int) -> int:
        row = self.position(v)
        return int(self.indptr[row + 1] - self.indptr[row])

    # ------------------------------------------------------------------
    # The metric
    # ------------------------------------------------------------------
    def set_edge_weight(self, u: int, v: int, weight: float) -> None:
        """Overwrite the weight of edge ``(u, v)``: one ``weights`` entry
        (the array is copied first if it is a read-only payload view)."""
        value, edge = _check_weight(weight), self._edge_id(u, v)
        if edge < 0:
            raise EdgeNotFoundError(u, v)
        if not self.weights.flags.writeable:
            self.weights = self.weights.copy()
        self.weights[edge] = value
        self._version += 1

    def edge_weight(self, u: int, v: int) -> float:
        """The weight of edge ``(u, v)``; raise if it does not exist."""
        edge = self._edge_id(u, v)
        if edge < 0:
            raise EdgeNotFoundError(u, v)
        return float(self.weights[edge])

    def weights_of(self, us, vs, default: float = math.inf) -> np.ndarray:
        """``float64`` weights of the pairs ``(us[i], vs[i])``, ``default``
        where a pair is no edge: one sorted search, no Python per pair."""
        keys, slot_of = self._derived("keys", self._slot_keys)
        wanted = self.positions(us) * len(self.ids) + self.positions(vs)
        at = np.minimum(np.searchsorted(keys, wanted), max(len(keys) - 1, 0))
        hit = keys[at] == wanted if len(keys) else np.zeros(len(wanted), bool)
        out = np.full(len(wanted), default, dtype=np.float64)
        out[hit] = self.weights[self.edge[slot_of[at[hit]]]]
        return out

    # ------------------------------------------------------------------
    # Coordinates (used by coordinate-based partitioning and A*)
    # ------------------------------------------------------------------
    def set_coordinate(self, v: int, x: float, y: float) -> None:
        row = self.position(v)
        if self.coords is None:
            self.coords = np.full((len(self.ids), 2), np.nan)
        self.coords[row] = (float(x), float(y))

    def coordinate(self, v: int) -> Optional[Tuple[float, float]]:
        """The coordinate of ``v``, or ``None`` if not set."""
        if self.coords is None:
            return None
        x, y = self.coords[self.position(v)].tolist()
        return None if math.isnan(x) else (x, y)

    def has_coordinates(self) -> bool:
        """``True`` if every vertex has a coordinate."""
        return self.coords is not None and len(self.ids) > 0 and not np.isnan(self.coords).any()

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """A copy with its own weights and coordinates, sharing the
        (immutable) topology.  It carries the ``version`` forward, so a
        version-keyed snapshot handed the copy stays monotonic."""
        g = Graph(self.ids, self.indptr, self.indices, self.edge, self.weights.copy(),
                  None if self.coords is None else self.coords.copy(), self._version)
        g._members, g._topology = self._members, self._topology
        return g

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """The vertex-induced subgraph on ``vertices`` (the PSP indexes'
        ``E_intra``): a mask over the slots, rows and edges in their order."""
        keep = np.zeros(len(self.ids), dtype=bool)
        keep[self.positions(vertices)] = True
        slots = keep[self.slot_rows()] & keep[self.indices]
        kept = np.zeros(len(self.weights), dtype=bool)
        kept[self.edge[slots]] = True
        row_of, edge_of = np.cumsum(keep) - 1, np.cumsum(kept) - 1
        indptr = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_of[self.slot_rows()[slots]], minlength=len(indptr) - 1),
                  out=indptr[1:])
        return Graph(self.ids[keep], indptr, row_of[self.indices[slots]],
                     edge_of[self.edge[slots]], self.weights[kept],
                     None if self.coords is None else self.coords[keep])

    def with_edges(self, us=(), vs=(), weights=(), vertices=()) -> "Graph":
        """This graph plus the edges ``(us[i], vs[i], weights[i])``, appended
        in order, and the isolated ``vertices``: one :meth:`from_edges` over
        the concatenated edge arrays, so rows keep their order and a pair
        that is already an edge keeps the minimum.  New vertices have no
        coordinate."""
        slot = np.empty(len(self.weights), dtype=np.int64)
        slot[self.edge] = np.arange(len(self.edge))  # a slot of each edge, either direction
        graph = Graph.from_edges(
            np.concatenate([self.ids[self.slot_rows()[slot]], _ints(us)]),
            np.concatenate([self.ids[self.indices[slot]], _ints(vs)]),
            np.concatenate([self.weights, np.asarray(weights, dtype=np.float64).reshape(-1)]),
            vertices=np.concatenate([self.ids, _ints(vertices)]),
        )
        if self.coords is not None:
            graph.coords = np.full((graph.num_vertices, 2), np.nan)
            graph.coords[graph.positions(self.ids)] = self.coords
        return graph

    # ------------------------------------------------------------------
    # Derived from the topology (made once, shared by copies)
    # ------------------------------------------------------------------
    def _derived(self, name: str, make):
        if name not in self._topology:
            self._topology[name] = make()
        return self._topology[name]

    def _lists(self) -> Tuple[List[int], List[int], List[int]]:
        """``(indptr, indices, edge)`` as Python lists."""
        return self._derived("lists", lambda: tuple(
            a.tolist() for a in (self.indptr, self.indices, self.edge)))

    def slot_rows(self) -> np.ndarray:
        """``int64[2m]``: the row each slot belongs to."""
        return self._derived("tail", lambda: np.repeat(
            np.arange(len(self.ids), dtype=np.int64), np.diff(self.indptr)))

    def upper_slots(self) -> np.ndarray:
        """The slots of :meth:`edges` (neighbour above its row), in order."""
        return self._derived("upper", lambda: np.flatnonzero(self.indices > self.slot_rows()))

    def _slot_keys(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted ``row * n + neighbour`` keys and the slot of each."""
        raw = self.slot_rows() * len(self.ids) + self.indices
        slot_of = np.argsort(raw, kind="stable")
        return raw[slot_of], slot_of

    def neighbor_rows(self) -> List[List[int]]:
        """Per row, its neighbour positions in row order."""
        indptr, indices, _ = self._lists()
        return self._derived("rows", lambda: [
            indices[lo:hi] for lo, hi in zip(indptr, indptr[1:])])

    def adjacency(self) -> List[List[Tuple[int, float]]]:
        """Per row, its ``(neighbour position, weight)`` pairs in row order:
        what the pure searches walk, made once per weight version."""
        version, rows = self._rows
        if rows is None or version != self._version:
            indptr, indices, _ = self._lists()
            flat = list(zip(indices, self.slot_weights.tolist()))
            rows = [flat[lo:hi] for lo, hi in zip(indptr, indptr[1:])]
            self._rows = (self._version, rows)
        return rows

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def connected_components(self) -> List[List[int]]:
        """The connected components as lists of vertex ids (ascending),
        by their smallest id: a label propagation with pointer jumping."""
        label, tail = np.arange(len(self.ids)), self.slot_rows()
        while True:
            lower = label.copy()
            np.minimum.at(lower, tail, label[self.indices])
            lower = lower[lower]
            if np.array_equal(lower, label):
                break
            label = lower
        order = np.argsort(label, kind="stable")
        starts = np.flatnonzero(np.diff(label[order], prepend=-1))[1:]
        return [ids.tolist() for ids in np.split(self.ids[order], starts)] if len(order) else []

    def is_connected(self) -> bool:
        """``True`` if the graph has at most one connected component."""
        return len(self.ids) == 0 or len(self.connected_components()) == 1

    def __contains__(self, v: int) -> bool:
        return v in self._members

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"
