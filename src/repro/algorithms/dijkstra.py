"""Index-free shortest-path algorithms: Dijkstra and bidirectional Dijkstra.

These serve two roles in the reproduction:

1. *Baselines* — ``BiDijkstra`` is one of the paper's compared methods and the
   Q-Stage-1 fallback of both PMHL and PostMHL (queries are answered by an
   index-free search while the index is stale).
2. *Ground truth* — every index in the test-suite is validated against plain
   Dijkstra.

Every search runs over row positions and the weighted rows of
:meth:`~repro.graph.graph.Graph.adjacency` (Python lists, made once per
weight version); positions ascend with vertex ids, so the heap's ties break
by id, and ids are translated back only at the answer.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import VertexNotFoundError
from repro.graph.graph import Graph

INF = math.inf


def _dijkstra_settle(
    graph: Graph, source: int, remaining: Optional[set]
) -> Dict[int, float]:
    """Core Dijkstra loop over positions (no validation; ``remaining``, a set
    of positions, is consumed in place): ``{position: distance}``.

    Shared by every one-to-many entry point so batch callers pay validation
    and target-set construction once per source group, not once per call.
    """
    rows = graph.adjacency()
    dist: Dict[int, float] = {source: 0.0}
    settled: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in settled:
            continue
        settled[v] = d
        if remaining is not None:
            remaining.discard(v)
            if not remaining:
                break
        for u, w in rows[v]:
            nd = d + w
            if nd < dist.get(u, INF):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return settled


def _row(graph: Graph, v: int) -> int:
    """Row of ``v``, or ``-1`` (which no search settles) if it is absent."""
    return graph.position(v) if graph.has_vertex(v) else -1


def _by_id(graph: Graph, by_position: Dict[int, float]) -> Dict[int, float]:
    """A position-keyed result keyed by vertex id."""
    ids = graph.id_list
    return {ids[p]: d for p, d in by_position.items()}


def dijkstra(graph: Graph, source: int, targets: Optional[Iterable[int]] = None) -> Dict[int, float]:
    """Single-source shortest distances from ``source``.

    Parameters
    ----------
    graph:
        The graph to search.
    source:
        Source vertex.
    targets:
        Optional set of target vertices; the search stops early once all of
        them are settled.  When ``None`` the full distance map is returned.

    Returns
    -------
    dict
        Mapping of reached vertex to shortest distance.  Unreachable vertices
        are absent from the mapping.
    """
    start = graph.position(source)
    # A target the graph lacks is position -1, which no search settles.
    remaining = None if targets is None else {_row(graph, t) for t in targets}
    return _by_id(graph, _dijkstra_settle(graph, start, remaining))


def dijkstra_one_to_many(
    graph: Graph, source: int, targets: Sequence[int], validate: bool = True
) -> List[float]:
    """Distances from ``source`` to each target, in target order (``inf`` when
    unreachable).

    The batch-plane primitive: one truncated search for the whole target
    group, with source/target validation hoisted out of the search (pass
    ``validate=False`` when the caller has already checked membership, e.g.
    a source-grouped ``query_many`` that validated the batch up front).
    """
    if validate:
        for vertex in (source, *targets):
            if not graph.has_vertex(vertex):
                raise VertexNotFoundError(vertex)
    rows = [graph.position(t) for t in targets]
    settled = _dijkstra_settle(graph, graph.position(source), set(rows))
    return [settled.get(row, INF) for row in rows]


def dijkstra_distance(graph: Graph, source: int, target: int) -> float:
    """Shortest distance between ``source`` and ``target`` (``inf`` if unreachable)."""
    start = graph.position(source)
    if source == target:
        return 0.0
    goal = _row(graph, target)
    return _dijkstra_settle(graph, start, {goal}).get(goal, INF)


def dijkstra_path(graph: Graph, source: int, target: int) -> Tuple[float, List[int]]:
    """Shortest distance and one shortest path between ``source`` and ``target``.

    Returns ``(inf, [])`` when the target is unreachable.
    """
    start, goal = graph.position(source), graph.position(target)
    if source == target:
        return 0.0, [source]
    rows, ids = graph.adjacency(), graph.id_list
    dist: Dict[int, float] = {start: 0.0}
    parent: Dict[int, int] = {}
    settled: set = set()
    heap: List[Tuple[float, int]] = [(0.0, start)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        if v == goal:
            path = [goal]
            while path[-1] != start:
                path.append(parent[path[-1]])
            return d, [ids[p] for p in reversed(path)]
        for u, w in rows[v]:
            nd = d + w
            if nd < dist.get(u, INF):
                dist[u] = nd
                parent[u] = v
                heapq.heappush(heap, (nd, u))
    return INF, []


def bidijkstra(graph: Graph, source: int, target: int) -> float:
    """Bidirectional Dijkstra shortest distance (the paper's BiDijkstra baseline)."""
    start, goal = graph.position(source), graph.position(target)
    if source == target:
        return 0.0
    rows = graph.adjacency()

    dist_f: Dict[int, float] = {start: 0.0}
    dist_b: Dict[int, float] = {goal: 0.0}
    settled_f: set = set()
    settled_b: set = set()
    heap_f: List[Tuple[float, int]] = [(0.0, start)]
    heap_b: List[Tuple[float, int]] = [(0.0, goal)]
    best = INF

    while heap_f or heap_b:
        top_f = heap_f[0][0] if heap_f else INF
        top_b = heap_b[0][0] if heap_b else INF
        if best <= top_f + top_b:
            break
        if top_f <= top_b and heap_f:
            d, v = heapq.heappop(heap_f)
            if v in settled_f:
                continue
            settled_f.add(v)
            if v in dist_b:
                best = min(best, d + dist_b[v])
            for u, w in rows[v]:
                nd = d + w
                if nd < dist_f.get(u, INF):
                    dist_f[u] = nd
                    heapq.heappush(heap_f, (nd, u))
                    if u in dist_b:
                        best = min(best, nd + dist_b[u])
        elif heap_b:
            d, v = heapq.heappop(heap_b)
            if v in settled_b:
                continue
            settled_b.add(v)
            if v in dist_f:
                best = min(best, d + dist_f[v])
            for u, w in rows[v]:
                nd = d + w
                if nd < dist_b.get(u, INF):
                    dist_b[u] = nd
                    heapq.heappush(heap_b, (nd, u))
                    if u in dist_f:
                        best = min(best, nd + dist_f[u])
        else:
            break
    return best
