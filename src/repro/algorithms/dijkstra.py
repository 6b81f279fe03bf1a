"""Index-free shortest-path algorithms: Dijkstra and bidirectional Dijkstra.

These serve two roles in the reproduction:

1. *Baselines* — ``BiDijkstra`` is one of the paper's compared methods and the
   Q-Stage-1 fallback of both PMHL and PostMHL (queries are answered by an
   index-free search while the index is stale).
2. *Ground truth* — every index in the test-suite is validated against plain
   Dijkstra.
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
    """Core Dijkstra loop (no validation; ``remaining`` is consumed in place).

    Shared by every one-to-many entry point so batch callers pay validation
    and target-set construction once per source group, not once per call.
    """
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
        for u, w in graph.neighbors(v).items():
            nd = d + w
            if nd < dist.get(u, INF):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return settled


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
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    remaining = set(targets) if targets is not None else None
    return _dijkstra_settle(graph, source, remaining)


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
        if not graph.has_vertex(source):
            raise VertexNotFoundError(source)
        for target in targets:
            if not graph.has_vertex(target):
                raise VertexNotFoundError(target)
    settled = _dijkstra_settle(graph, source, set(targets))
    return [settled.get(target, INF) for target in targets]


def dijkstra_distance(graph: Graph, source: int, target: int) -> float:
    """Shortest distance between ``source`` and ``target`` (``inf`` if unreachable)."""
    if source == target:
        if not graph.has_vertex(source):
            raise VertexNotFoundError(source)
        return 0.0
    settled = dijkstra(graph, source, targets=[target])
    return settled.get(target, INF)


def dijkstra_path(graph: Graph, source: int, target: int) -> Tuple[float, List[int]]:
    """Shortest distance and one shortest path between ``source`` and ``target``.

    Returns ``(inf, [])`` when the target is unreachable.
    """
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    if not graph.has_vertex(target):
        raise VertexNotFoundError(target)
    if source == target:
        return 0.0, [source]
    dist: Dict[int, float] = {source: 0.0}
    parent: Dict[int, int] = {}
    settled: set = set()
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        if v == target:
            path = [target]
            while path[-1] != source:
                path.append(parent[path[-1]])
            path.reverse()
            return d, path
        for u, w in graph.neighbors(v).items():
            nd = d + w
            if nd < dist.get(u, INF):
                dist[u] = nd
                parent[u] = v
                heapq.heappush(heap, (nd, u))
    return INF, []


def bidijkstra(graph: Graph, source: int, target: int) -> float:
    """Bidirectional Dijkstra shortest distance (the paper's BiDijkstra baseline)."""
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    if not graph.has_vertex(target):
        raise VertexNotFoundError(target)
    if source == target:
        return 0.0

    dist_f: Dict[int, float] = {source: 0.0}
    dist_b: Dict[int, float] = {target: 0.0}
    settled_f: set = set()
    settled_b: set = set()
    heap_f: List[Tuple[float, int]] = [(0.0, source)]
    heap_b: List[Tuple[float, int]] = [(0.0, target)]
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
            for u, w in graph.neighbors(v).items():
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
            for u, w in graph.neighbors(v).items():
                nd = d + w
                if nd < dist_b.get(u, INF):
                    dist_b[u] = nd
                    heapq.heappush(heap_b, (nd, u))
                    if u in dist_f:
                        best = min(best, nd + dist_f[u])
        else:
            break
    return best

