"""Minimum Degree Elimination (MDE): the symbolic half of a contraction.

MDE is the shared substrate of the hierarchy-based (CH/DCH) and hop-based
(H2H/DH2H/MHL) indexes: it eliminates vertices one by one, joining the
eliminated vertex's current neighbours pairwise (fill-in), and thereby
produces

* a vertex order ``r`` (ascending elimination order = ascending importance),
* the neighbour set ``X(v).N`` of every tree node: the neighbours ``v`` has
  when it is eliminated, all of them eliminated later.

The paper's updates change edge weights only, so this topology is fixed per
graph, and :func:`eliminate` reads no weight: a vertex's fill-in is a set
union.  The weights — each shortcut ``sc(v, u)`` and the *supporters* that
make bottom-up maintenance possible (every pair of ``X(x).N`` is supported
by ``x``) — are derived from the rows by
:meth:`~repro.treedec.slots.SlotContraction.build`, with the same pass
every update batch runs (the topology/weights split of Customizable CH,
Dibbelt, Strasser, Wagner, JEA 2016).

This module is the pure rung of that topology.  A build reads it through
:func:`~repro.treedec.slots.eliminate_slots`, which runs the C kernel's
``eliminate`` entry instead when it is loaded: the same order and rows,
from sorted-array merges over the graph's CSR, with the slot layout and the
supporter records computed there too.  :func:`eliminate` stays as the rung
without a compiler and as the C entry's differential oracle.

The elimination can be driven by the classic minimum-degree heuristic, by a
caller-specified fixed order, or by a *tiered* minimum-degree rule (eliminate
all tier-0 vertices before any tier-1 vertex, and so on), which is how the
boundary-first property of PSP indexes is realised.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graph.graph import Graph
from repro.uniques import first_occurrences


def eliminate(
    graph: Graph,
    order: Optional[Sequence[int]] = None,
    tiers: Optional[Dict[int, int]] = None,
) -> Tuple[List[int], List[List[int]]]:
    """Eliminate every vertex of ``graph``: ``(order, rows)``.

    ``order[i]`` is the vertex eliminated in round ``i``; ``rows[i]`` is its
    ``X(v).N``, ascending.  ``graph`` is not modified.

    Parameters
    ----------
    graph:
        Graph to eliminate.
    order:
        Optional explicit elimination order covering every vertex.  When
        omitted the (tiered) minimum-degree heuristic decides the order.
    tiers:
        Optional tier map (default 0) used only when ``order`` is omitted;
        every vertex of a lower tier is eliminated before any vertex of a
        higher tier (this realises the boundary-first property when boundary
        vertices are given a higher tier).  Within a tier the vertex of
        minimum current degree goes first, ties broken by id.
    """
    check_order(graph, order)

    # Working adjacency (the eliminated graph G_i) over row positions, which
    # ascend with the ids: ties by position are ties by id.
    ids = graph.id_list
    work: Dict[int, Set[int]] = dict(enumerate(map(set, graph.neighbor_rows())))
    tier_of = [tiers.get(v, 0) for v in ids] if tiers else [0] * len(ids)
    if order is not None:
        order = [graph.position(v) for v in order]
    else:
        # Lazy-deletion heap keyed by (tier, degree, position).
        heap: List[Tuple[int, int, int]] = [(tier_of[v], len(work[v]), v) for v in work]
        heapq.heapify(heap)

    eliminated: List[int] = []
    rows: List[List[int]] = []
    while len(eliminated) < graph.num_vertices:
        if order is not None:
            v = order[len(eliminated)]
        else:
            while True:
                if not heap:
                    raise GraphError(
                        "contraction heap exhausted before all vertices were contracted"
                    )
                tier, degree, v = heapq.heappop(heap)
                if v in work and degree == len(work[v]):
                    break  # else a stale entry

        nbrs = work.pop(v)
        row = sorted(nbrs)
        # Fill-in: the neighbours become pairwise adjacent, and v leaves.
        for u in row:
            adjacent = work[u]
            adjacent |= nbrs
            adjacent.discard(u)
            adjacent.discard(v)
            if order is None:
                heapq.heappush(heap, (tier_of[u], len(adjacent), u))
        eliminated.append(ids[v])
        rows.append([ids[u] for u in row])
    return eliminated, rows


def check_order(graph: Graph, order: Optional[Sequence[int]]) -> None:
    """A :class:`~repro.exceptions.GraphError` for an empty ``graph``, or for
    an explicit ``order`` that is not a permutation of its vertices: the
    first entry outside the graph or named twice is the one reported."""
    if graph.num_vertices == 0:
        raise GraphError("cannot contract an empty graph")
    if order is None:
        return
    wanted = np.asarray(order, dtype=np.int64)
    if len(wanted) == graph.num_vertices and np.array_equal(np.sort(wanted), graph.ids):
        return  # a permutation of the (sorted, distinct) ids
    known = np.isin(wanted, graph.ids)
    first = np.zeros(len(wanted), dtype=bool)
    first[first_occurrences(wanted)] = True
    if not (known & first).all():
        at = int(np.argmin(known & first))
        problem = "appears twice in the contraction order" if known[at] else "is not in the graph"
        raise GraphError(f"vertex {order[at]} {problem}")
    if len(wanted) != graph.num_vertices:
        raise GraphError(
            f"explicit order must cover all {graph.num_vertices} vertices exactly once"
        )
