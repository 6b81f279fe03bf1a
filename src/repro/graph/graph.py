"""Weighted undirected road-network graph.

The :class:`Graph` class is the substrate every index in this package is built
on.  It stores an undirected graph with strictly positive edge weights
(travel times) using an adjacency-dictionary representation, which gives

* O(1) average weight lookup / update (needed by the dynamic-index update
  paths, which touch individual edges),
* cheap iteration over a vertex's neighbours (needed by Dijkstra-family
  searches and by Minimum Degree Elimination), and
* cheap structural copies (needed when building partition subgraphs and
  extended partitions).

Vertices are non-negative integers.  They do not have to be contiguous,
although the synthetic generators produce contiguous ids.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.exceptions import (
    EdgeNotFoundError,
    GraphError,
    InvalidWeightError,
    VertexNotFoundError,
)

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


class Graph:
    """Undirected graph with positive edge weights and optional coordinates.

    Parameters
    ----------
    num_vertices:
        If given, vertices ``0..num_vertices-1`` are created up front.

    Notes
    -----
    The graph is *undirected*: ``add_edge(u, v, w)`` makes the weight visible
    from both endpoints, and ``set_edge_weight`` keeps both directions in
    sync.  This mirrors the paper, which treats road networks as undirected
    and notes the techniques extend to directed graphs.
    """

    __slots__ = ("_adj", "_coords", "_num_edges", "_version")

    def __init__(self, num_vertices: int = 0):
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be non-negative, got {num_vertices}")
        self._adj: Dict[int, Dict[int, float]] = {v: {} for v in range(num_vertices)}
        self._coords: Dict[int, Tuple[float, float]] = {}
        self._num_edges = 0
        self._version = 0

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices currently in the graph."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges currently in the graph."""
        return self._num_edges

    @property
    def version(self) -> int:
        """Monotonic mutation counter (bumped by every structural/weight change).

        Frozen snapshots (``repro.kernels.GraphSnapshot``) record the version
        at freeze time so staleness is detectable in O(1).
        """
        return self._version

    def vertices(self) -> Iterator[int]:
        """Iterate over all vertex ids."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all undirected edges as ``(u, v, weight)`` with ``u < v``."""
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if u < v:
                    yield (u, v, w)

    def has_vertex(self, v: int) -> bool:
        """Return ``True`` if vertex ``v`` exists."""
        return v in self._adj

    def missing_endpoint(self, pairs: Iterable[Tuple[int, int]]) -> Optional[int]:
        """First vertex of ``pairs`` (source before target) that does not
        exist, or ``None`` — a whole batch validated in one call."""
        adj = self._adj
        for source, target in pairs:
            if source not in adj:
                return source
            if target not in adj:
                return target
        return None

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if the undirected edge ``(u, v)`` exists."""
        return u in self._adj and v in self._adj[u]

    def degree(self, v: int) -> int:
        """Return the number of neighbours of ``v``."""
        self._require_vertex(v)
        return len(self._adj[v])

    def neighbors(self, v: int) -> Dict[int, float]:
        """Return the neighbour-to-weight mapping of ``v``.

        The returned dictionary is the live internal mapping; callers must not
        mutate it.  Use :meth:`set_edge_weight` / :meth:`add_edge` instead.
        """
        self._require_vertex(v)
        return self._adj[v]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(self, v: int) -> None:
        """Add an isolated vertex ``v`` (no-op if it already exists)."""
        if v < 0:
            raise GraphError(f"vertex ids must be non-negative, got {v}")
        if v not in self._adj:
            self._adj[v] = {}
            self._version += 1

    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add the undirected edge ``(u, v)`` with the given weight.

        If the edge already exists its weight is kept at the *minimum* of the
        existing and the new weight.  This matches shortcut-insertion
        semantics used throughout the contraction-based indexes.
        """
        if u == v:
            raise GraphError(f"self-loops are not allowed (vertex {u})")
        value = _check_weight(weight)
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._adj[u]:
            if value < self._adj[u][v]:
                self._adj[u][v] = value
                self._adj[v][u] = value
                self._version += 1
        else:
            self._adj[u][v] = value
            self._adj[v][u] = value
            self._num_edges += 1
            self._version += 1

    def set_edge_weight(self, u: int, v: int, weight: float) -> None:
        """Overwrite the weight of an existing edge ``(u, v)``."""
        value = _check_weight(weight)
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._adj[u][v] = value
        self._adj[v][u] = value
        self._version += 1

    def edge_weight(self, u: int, v: int) -> float:
        """Return the weight of edge ``(u, v)``; raise if it does not exist."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        return self._adj[u][v]

    def edge_weight_or(self, u: int, v: int, default: float = math.inf) -> float:
        """Return the weight of edge ``(u, v)`` or ``default`` if absent."""
        if u in self._adj:
            return self._adj[u].get(v, default)
        return default

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the undirected edge ``(u, v)``; raise if it does not exist."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1
        self._version += 1

    def remove_vertex(self, v: int) -> None:
        """Remove vertex ``v`` and all incident edges."""
        self._require_vertex(v)
        for nbr in list(self._adj[v]):
            self.remove_edge(v, nbr)
        del self._adj[v]
        self._coords.pop(v, None)
        self._version += 1

    # ------------------------------------------------------------------
    # Coordinates (used by coordinate-based partitioning and A*)
    # ------------------------------------------------------------------
    def set_coordinate(self, v: int, x: float, y: float) -> None:
        """Attach a planar coordinate to vertex ``v``."""
        self._require_vertex(v)
        self._coords[v] = (float(x), float(y))

    def coordinate(self, v: int) -> Optional[Tuple[float, float]]:
        """Return the coordinate of ``v`` or ``None`` if not set."""
        return self._coords.get(v)

    def has_coordinates(self) -> bool:
        """Return ``True`` if every vertex has a coordinate."""
        return len(self._coords) == len(self._adj) and len(self._adj) > 0

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return a deep structural copy of this graph.

        The copy carries the source's ``version`` counter forward: a holder
        of a version-keyed snapshot that is handed the copy in place of the
        original keeps monotonic staleness detection — the counter can never
        jump *backwards* past a freeze point across the copy boundary.
        """
        g = Graph()
        g._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        g._coords = dict(self._coords)
        g._num_edges = self._num_edges
        g._version = self._version
        return g

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Return the vertex-induced subgraph on ``vertices``.

        Only edges with *both* endpoints inside ``vertices`` are kept, which is
        exactly the intra-partition edge set ``E_intra`` used by the PSP
        indexes.
        """
        keep = set(vertices)
        for v in keep:
            self._require_vertex(v)
        g = Graph()
        for v in keep:
            g.add_vertex(v)
            if v in self._coords:
                g._coords[v] = self._coords[v]
        for v in keep:
            for u, w in self._adj[v].items():
                if u in keep and v < u:
                    g.add_edge(v, u, w)
        return g

    # ------------------------------------------------------------------
    # Frozen export
    # ------------------------------------------------------------------
    def to_csr(self) -> Tuple[List[int], List[int], List[int], List[float]]:
        """Export the adjacency in CSR form: ``(ids, indptr, indices, weights)``.

        ``ids`` lists the vertices in adjacency-iteration order; ``indices``
        holds *positions into* ``ids`` (not vertex ids).  Row contents
        preserve the neighbour-dict iteration order, so searches over the
        CSR relax edges in exactly the order the live graph would — the
        property the frozen-kernel equivalence guarantees rest on.
        """
        rows = self._adj.values()
        ids = list(self._adj)
        position = dict(zip(ids, range(len(ids))))
        indptr = [0, *itertools.accumulate(map(len, rows))]
        indices = [position[u] for nbrs in rows for u in nbrs]
        weights = [w for nbrs in rows for w in nbrs.values()]
        return ids, indptr, indices, weights

    # ------------------------------------------------------------------
    # Connectivity helpers
    # ------------------------------------------------------------------
    def connected_components(self) -> List[List[int]]:
        """Return the connected components as lists of vertex ids."""
        seen: set = set()
        components: List[List[int]] = []
        for start in self._adj:
            if start in seen:
                continue
            stack = [start]
            seen.add(start)
            component = []
            while stack:
                v = stack.pop()
                component.append(v)
                for u in self._adj[v]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            components.append(component)
        return components

    def is_connected(self) -> bool:
        """Return ``True`` if the graph has at most one connected component."""
        if not self._adj:
            return True
        return len(self.connected_components()) == 1

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def _require_vertex(self, v: int) -> None:
        if v not in self._adj:
            raise VertexNotFoundError(v)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"
