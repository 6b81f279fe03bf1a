"""Contraction Hierarchies (CH) and Dynamic CH (DCH).

CH builds a hierarchical shortcut index by contracting vertices in ascending
importance order; a query is a bidirectional Dijkstra that only relaxes edges
from lower-rank to higher-rank vertices (Section III-A of the paper).  DCH
[Ouyang et al., VLDB 2020] maintains the shortcut values under edge-weight
changes with the supporter-based bottom-up recomputation, which handles both
weight increases and decreases.

Both hold their contraction flat, as a
:class:`~repro.treedec.slots.SlotContraction`: topology once, one weight
array per epoch.  A DCH batch patches the slots' graph weights and runs one
pass over the arrays (C, or a pure loop without a compiler) into the next
epoch's copy, and that copy is the epoch's shortcut store as it stands.

The query routine is written against an abstract "upward neighbour" callback so
the partitioned CH query of PMHL (a search over the union of the partition and
overlay shortcut arrays) can reuse it unchanged.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.base import DistanceIndex, StageTiming, Timer, UpdateReport
from repro.exceptions import IndexNotBuiltError
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
from repro.registry import IndexSpec, register_spec
from repro.treedec.slots import SlotContraction

INF = math.inf

UpwardNeighbors = Callable[[int], Mapping[int, float]]


def ch_bidirectional_query(
    source: int,
    target: int,
    upward_neighbors: UpwardNeighbors,
) -> float:
    """Bidirectional upward search used by CH-style indexes.

    ``upward_neighbors(v)`` must return a mapping of higher-rank neighbours to
    shortcut weights.  The search is correct for any shortcut set produced by
    a full vertex contraction because every shortest path has a unique
    highest-rank vertex reachable from both endpoints via upward edges.
    """
    if source == target:
        return 0.0

    dist_f: Dict[int, float] = {source: 0.0}
    dist_b: Dict[int, float] = {target: 0.0}
    heap_f: List[Tuple[float, int]] = [(0.0, source)]
    heap_b: List[Tuple[float, int]] = [(0.0, target)]
    settled_f: Dict[int, float] = {}
    settled_b: Dict[int, float] = {}
    best = INF

    while heap_f or heap_b:
        top_f = heap_f[0][0] if heap_f else INF
        top_b = heap_b[0][0] if heap_b else INF
        if min(top_f, top_b) >= best:
            break
        if top_f <= top_b and heap_f:
            d, v = heapq.heappop(heap_f)
            if v in settled_f:
                continue
            settled_f[v] = d
            if v in dist_b:
                best = min(best, d + dist_b[v])
            for u, w in upward_neighbors(v).items():
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
            settled_b[v] = d
            if v in dist_f:
                best = min(best, d + dist_f[v])
            for u, w in upward_neighbors(v).items():
                nd = d + w
                if nd < dist_b.get(u, INF):
                    dist_b[u] = nd
                    heapq.heappush(heap_b, (nd, u))
                    if u in dist_f:
                        best = min(best, nd + dist_f[u])
        else:
            break
    return best


class CHIndex(DistanceIndex):
    """Static Contraction Hierarchies index.

    Parameters
    ----------
    graph:
        Road network (kept by reference; updates mutate it in place).
    order:
        Optional explicit contraction order (ascending importance).
    tiers:
        Optional tier map for tiered minimum-degree ordering (used to impose
        the boundary-first property).
    """

    name = "CH"

    def __init__(
        self,
        graph: Graph,
        order: Optional[Sequence[int]] = None,
        tiers: Optional[Dict[int, int]] = None,
    ):
        super().__init__(graph)
        self._order = list(order) if order is not None else None
        self._tiers = dict(tiers) if tiers is not None else None
        self.contraction: Optional[SlotContraction] = None

    # ------------------------------------------------------------------
    def _build(self) -> None:
        with obs.span(self.name.lower() + ".build.contraction"):
            self.contraction = SlotContraction.build(
                self.graph, order=self._order, tiers=self._tiers
            )

    def _require_built(self) -> SlotContraction:
        if self.contraction is None:
            raise IndexNotBuiltError(f"{self.name} index has not been built")
        return self.contraction

    def upward_neighbors(self, v: int) -> Mapping[int, float]:
        """Upward (higher-rank) shortcut neighbours of ``v``."""
        return self._require_built().upward(v)

    def _shortcut_store(self):
        """This epoch's shortcut store (``None`` = pure path): the
        contraction's arena, as the last pass left it."""
        contraction = self._require_built()
        return self._kernel("ch", lambda _template: contraction.store())

    # The final stage: the shortcut store, or the search over the slot
    # arrays (the native batch is the same search looped in C, so results
    # match the scalar path bit for bit).
    def _final_store(self):
        return self._shortcut_store()

    def _reference_query(self, source: int, target: int) -> float:
        return ch_bidirectional_query(source, target, self.upward_neighbors)

    def _apply_batch(self, batch: UpdateBatch) -> UpdateReport:
        raise NotImplementedError(
            "CHIndex is static; use DCHIndex for dynamic maintenance"
        )

    def index_size(self) -> int:
        return self._require_built().shortcut_count()

    # ------------------------------------------------------------------
    # Snapshot persistence (see repro.store)
    # ------------------------------------------------------------------
    def to_state(self, io) -> Dict[str, object]:
        return {"slots": self._require_built().to_state(io)}

    def from_state(self, state: Dict[str, object], io) -> None:
        self.contraction = SlotContraction.from_state(state["slots"], io)

    def _kernel_exports(self):
        return {"ch": self._shortcut_store}

    def _attach_kernel(self, key: str, store: object) -> None:
        super()._attach_kernel(key, store)
        if key == "ch":
            self._require_built().share_rows(store)

    @property
    def rank(self) -> Dict[int, int]:
        """Vertex rank (ascending importance) used by the hierarchy."""
        return self._require_built().rank


class DCHIndex(CHIndex):
    """Dynamic Contraction Hierarchies (the paper's DCH baseline).

    Index maintenance traces affected shortcuts bottom-up over the
    supporter slots derived at construction time
    (:meth:`~repro.treedec.slots.SlotContraction.update`).  The update report
    contains a single ``shortcut_update`` stage; the native query is
    available again once that stage finishes, BiDijkstra on the live graph
    from the on-spot edge refresh on.
    """

    name = "DCH"

    def _apply_batch(self, batch: UpdateBatch) -> UpdateReport:
        contraction = self._require_built()
        report = UpdateReport()
        self.invalidate_kernels()

        with Timer() as timer:
            batch.apply(self.graph)
        self._emit_stage(report, StageTiming("edge_update", timer.seconds))

        with Timer() as timer:
            contraction.update(batch)
        self._emit_stage(report, StageTiming("shortcut_update", timer.seconds))
        return report


@register_spec
@dataclass(frozen=True)
class DCHSpec(IndexSpec):
    """Construction spec for the dynamic CH baseline (no knobs).

    DCH's batch plane is one ``query_pairs`` call of the shortcut store, the
    scalar query looped in C, so batch answers equal scalar ones bit for
    bit.  The native kernel answers each pair with the elimination-tree
    query: the contraction's upward graph is chordal, so it walks the
    source's and the target's ancestor chains with no heap, evaluating the
    same float sums the pure upward search settles (see DESIGN.md, "The
    native kernels").
    """

    method = "DCH"

    def create(self, graph: Graph) -> DCHIndex:
        return DCHIndex(graph)
