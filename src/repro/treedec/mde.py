"""Minimum Degree Elimination (MDE) vertex contraction.

MDE is the shared substrate of the hierarchy-based (CH/DCH) and hop-based
(H2H/DH2H/MHL) indexes: it contracts vertices one by one, inserting all-pair
shortcuts among the contracted vertex's current neighbours, and thereby
produces

* a vertex order ``r`` (ascending contraction order = ascending importance),
* the neighbour set ``X(v).N`` and shortcut array ``X(v).sc`` of every tree
  node, and
* *supporter* records: for every shortcut pair ``(u, w)`` the list of lower
  vertices whose contraction contributed the value ``sc(x, u) + sc(x, w)``.
  Supporters are what make bottom-up dynamic maintenance (DCH / the shortcut
  phase of DH2H) possible for both weight increases and decreases.  DCH
  keeps them as flat slot pairs instead (:mod:`repro.treedec.slots`); the
  dicts here serve the H2H family.

The contraction can be driven by the classic minimum-degree heuristic, by a
caller-specified fixed order, or by a *tiered* minimum-degree rule (contract
all tier-0 vertices before any tier-1 vertex, and so on), which is how the
boundary-first property of PSP indexes is realised.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import GraphError
from repro.graph.graph import Graph
from repro.kernels.native import native_kernel

INF = math.inf


def _pair_key(u: int, w: int) -> Tuple[int, int]:
    """Canonical unordered pair key."""
    return (u, w) if u < w else (w, u)


@dataclass
class ContractionResult:
    """Everything produced by one MDE contraction pass.

    Attributes
    ----------
    order:
        ``order[i]`` is the vertex contracted in round ``i`` (ascending rank).
    rank:
        ``rank[v]`` is the contraction round of ``v``; higher rank = more
        important (contracted later).
    neighbors:
        ``neighbors[v]`` is ``X(v).N``: the neighbours of ``v`` in the
        contracted graph at the moment ``v`` was contracted.  All of them have
        higher rank than ``v``.
    shortcuts:
        ``shortcuts[v][u]`` is ``sc(v, u)`` for ``u in neighbors[v]``.
    supporters:
        ``supporters[(u, w)]`` (canonical pair) lists the vertices whose
        contraction created/supported the shortcut between ``u`` and ``w``.
    base_edges:
        ``base_edges[(u, w)]`` is the original graph weight of ``(u, w)`` at
        build time (used to detect which pairs are real edges).
    """

    order: List[int] = field(default_factory=list)
    rank: Dict[int, int] = field(default_factory=dict)
    neighbors: Dict[int, List[int]] = field(default_factory=dict)
    shortcuts: Dict[int, Dict[int, float]] = field(default_factory=dict)
    supporters: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)
    base_edges: Dict[Tuple[int, int], float] = field(default_factory=dict)

    @property
    def num_vertices(self) -> int:
        return len(self.order)

    @property
    def treewidth_upper_bound(self) -> int:
        """Width of the elimination ordering (max neighbour-set size)."""
        if not self.neighbors:
            return 0
        return max(len(n) for n in self.neighbors.values())

    def shortcut_count(self) -> int:
        """Total number of (vertex, higher neighbour) shortcut entries."""
        return sum(len(n) for n in self.neighbors.values())

    def owner(self, u: int, w: int) -> int:
        """Return the lower-rank endpoint, which owns the shortcut ``(u, w)``."""
        return u if self.rank[u] < self.rank[w] else w

    def shortcut_value(self, u: int, w: int) -> float:
        """Current value of shortcut ``(u, w)`` regardless of endpoint order."""
        low = self.owner(u, w)
        high = w if low == u else u
        return self.shortcuts[low].get(high, INF)


def mde_order(graph: Graph, tiers: Optional[Dict[int, int]] = None) -> List[int]:
    """Compute a (tiered) minimum-degree elimination order without shortcuts.

    ``tiers[v]`` (default 0) groups vertices; all vertices of a lower tier are
    eliminated before any vertex of a higher tier.  Within a tier the vertex
    with the minimum current degree is eliminated first (ties broken by id for
    determinism).
    """
    return contract_graph(graph, tiers=tiers).order


def contract_graph(
    graph: Graph,
    order: Optional[Sequence[int]] = None,
    tiers: Optional[Dict[int, int]] = None,
    record_supporters: bool = True,
) -> ContractionResult:
    """Contract every vertex of ``graph`` and record shortcuts and supporters.

    Parameters
    ----------
    graph:
        Graph to contract.  It is not modified.
    order:
        Optional explicit contraction order covering every vertex.  When
        omitted the (tiered) minimum-degree heuristic decides the order.
    tiers:
        Optional tier map used only when ``order`` is omitted; lower tiers are
        contracted first (this realises the boundary-first property when
        boundary vertices are given a higher tier).
    record_supporters:
        ``False`` leaves ``supporters`` and ``base_edges`` empty, for a caller
        that derives them from the rows (every pair of ``X(v).N`` is
        supported by ``v``; see :mod:`repro.treedec.slots`).
    """
    if graph.num_vertices == 0:
        raise GraphError("cannot contract an empty graph")
    if order is not None and len(set(order)) != graph.num_vertices:
        raise GraphError(
            f"explicit order must cover all {graph.num_vertices} vertices exactly once"
        )

    # Working adjacency (contracted graph G_i).
    work: Dict[int, Dict[int, float]] = {
        v: dict(graph.neighbors(v)) for v in graph.vertices()
    }
    result = ContractionResult()
    supporters = result.supporters if record_supporters else None
    if record_supporters:
        for u, v, w in graph.edges():
            result.base_edges[_pair_key(u, v)] = w

    if order is not None:
        sequence = list(order)
        selector = None
    else:
        sequence = None
        tier_of = tiers or {}
        # Lazy-deletion heap keyed by (tier, degree, vertex-id).
        heap: List[Tuple[int, int, int]] = [
            (tier_of.get(v, 0), len(work[v]), v) for v in work
        ]
        heapq.heapify(heap)

        def selector() -> int:
            while heap:
                tier, degree, v = heapq.heappop(heap)
                if v not in work:
                    continue
                if degree != len(work[v]) or tier != tier_of.get(v, 0):
                    continue  # stale entry
                return v
            raise GraphError("contraction heap exhausted before all vertices were contracted")

    contracted_count = 0
    total = graph.num_vertices
    while contracted_count < total:
        if sequence is not None:
            v = sequence[contracted_count]
            if v not in work:
                raise GraphError(f"vertex {v} appears twice in the contraction order")
        else:
            v = selector()

        nbrs = work[v]
        nbr_list = sorted(nbrs)
        result.order.append(v)
        result.rank[v] = contracted_count
        result.neighbors[v] = nbr_list
        result.shortcuts[v] = {u: nbrs[u] for u in nbr_list}

        # Insert all-pair shortcuts among the neighbours and record support.
        for i, u in enumerate(nbr_list):
            du = nbrs[u]
            for w_vertex in nbr_list[i + 1 :]:
                dw = nbrs[w_vertex]
                through = du + dw
                if supporters is not None:
                    supporters.setdefault(_pair_key(u, w_vertex), []).append(v)
                current = work[u].get(w_vertex, INF)
                if through < current:
                    work[u][w_vertex] = through
                    work[w_vertex][u] = through
                elif w_vertex not in work[u]:
                    work[u][w_vertex] = through
                    work[w_vertex][u] = through

        # Remove v from the working graph.
        for u in nbr_list:
            del work[u][v]
            if sequence is None:
                heapq.heappush(heap, (tier_of.get(u, 0) if tiers else 0, len(work[u]), u))
        del work[v]
        contracted_count += 1

    return result


def recompute_shortcut(
    result: ContractionResult,
    graph: Graph,
    v: int,
    u: int,
) -> float:
    """Recompute ``sc(v, u)`` from the current graph weight and supporter values.

    ``v`` must be the owner (lower-rank endpoint).  Supporters all have lower
    rank than ``v``, so when vertices are processed in ascending rank order
    their shortcut values are already up to date.
    """
    key = _pair_key(v, u)
    value = graph.edge_weight_or(v, u, INF)
    shortcuts = result.shortcuts
    for x in result.supporters.get(key, ()):  # x has lower rank than both v and u
        row = shortcuts[x]
        candidate = row.get(v, INF) + row.get(u, INF)
        if candidate < value:
            value = candidate
    return value


def update_shortcuts_bottom_up(
    result: ContractionResult,
    graph: Graph,
    changed_edges: Sequence[Tuple[int, int]],
    restrict_to: Optional[set] = None,
    escaped_out: Optional[set] = None,
    seed_vertices: Optional[Sequence[int]] = None,
) -> Dict[int, List[int]]:
    """Bottom-up shortcut maintenance after edge-weight updates (DCH core).

    The graph must already carry the *new* weights.  Processes vertices in
    ascending rank order starting from the owners of the changed edges; for
    every dirty vertex all of its shortcuts are recomputed from base weight and
    supporter contributions, and any change is propagated to the owners of the
    shortcut pairs the vertex supports.

    Parameters
    ----------
    restrict_to:
        Optional vertex set; propagation never leaves this set.  Used by the
        PSP indexes to confine partition-level maintenance to one partition.
    escaped_out:
        Optional set collecting vertices *outside* ``restrict_to`` that would
        have been marked dirty (either directly by a changed edge they own or
        by propagation).  The caller uses them as seeds for a later pass over
        the remaining vertices (e.g. the overlay pass of PostMHL's U-Stage 2).
    seed_vertices:
        Optional extra vertices marked dirty from the start (typically the
        ``escaped_out`` set collected by earlier restricted passes).

    Returns
    -------
    dict
        Mapping of vertex to the list of its neighbours whose shortcut value
        changed (the "affected shortcut" report consumed by the label-update
        phase and by the overlay update).
    """
    dirty: set = set()
    for a, b in changed_edges:
        if a not in result.rank or b not in result.rank:
            continue
        owner = result.owner(a, b)
        if restrict_to is not None and owner not in restrict_to:
            if escaped_out is not None:
                escaped_out.add(owner)
            continue
        dirty.add(owner)
    if seed_vertices is not None:
        for v in seed_vertices:
            if v not in result.rank:
                continue
            if restrict_to is not None and v not in restrict_to:
                if escaped_out is not None:
                    escaped_out.add(v)
                continue
            dirty.add(v)

    changed_report: Dict[int, List[int]] = {}
    if not dirty:
        return changed_report

    rank = result.rank
    shortcuts = result.shortcuts
    heap: List[Tuple[int, int]] = [(rank[v], v) for v in dirty]
    heapq.heapify(heap)
    queued = set(dirty)
    kernel = native_kernel()

    while heap:
        _, v = heapq.heappop(heap)
        queued.discard(v)
        nbr_list = result.neighbors[v]
        if kernel is not None:
            # ``recompute_shortcut`` for the whole row in one C call over the
            # same containers (bit-identical); the graph weights go in as a list.
            new_row = kernel.shortcut_row(
                shortcuts, result.supporters, v, nbr_list,
                [graph.edge_weight_or(v, u, INF) for u in nbr_list],
            )
        else:
            new_row = [recompute_shortcut(result, graph, v, u) for u in nbr_list]
        row = shortcuts[v]
        changed_neighbors: List[int] = []
        for u, new_value in zip(nbr_list, new_row):
            if new_value != row[u]:
                row[u] = new_value
                changed_neighbors.append(u)
        if not changed_neighbors:
            continue
        changed_report[v] = changed_neighbors
        # Shortcut changes of v alter v's supporting contribution to pairs
        # (u, w) with u, w in X(v).N; mark the owners of the pairs involving a
        # changed neighbour as dirty.
        for u in changed_neighbors:
            rank_u = rank[u]
            for w_vertex in nbr_list:
                if w_vertex == u:
                    continue
                owner = u if rank_u < rank[w_vertex] else w_vertex
                if restrict_to is not None and owner not in restrict_to:
                    if escaped_out is not None:
                        escaped_out.add(owner)
                    continue
                if owner not in queued:
                    queued.add(owner)
                    heapq.heappush(heap, (rank[owner], owner))
    return changed_report
