"""Index-free BiDijkstra baseline wrapped in the common DistanceIndex interface.

The paper's BiDijkstra baseline has no index to maintain: updates are applied
to the graph directly (its "index" is always up to date) and every query pays
the full bidirectional search cost.  Wrapping it in
:class:`~repro.base.DistanceIndex` lets the experiment harness treat it like
any other method.

The batch query plane is where an index-free method benefits most: a
one-to-many call runs a *single* Dijkstra from the source, truncated the
moment the farthest pending target settles, instead of one bidirectional
search per pair, and ``query_many`` groups arbitrary pairs by source to get
the same effect.  Both searches compute exact shortest distances, but because
floating-point addition is not associative the unidirectional sum can differ
from the bidirectional split-sum in the final ulp; the batch plane is
bit-identical to the canonical single-source Dijkstra
(:func:`repro.algorithms.dijkstra.dijkstra_distance`) and agrees with the
scalar :meth:`query` to within that rounding (see DESIGN.md §6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.base import DistanceIndex
from repro.graph.graph import Graph
from repro.registry import IndexSpec, register_spec

INF = math.inf


class BiDijkstraIndex(DistanceIndex):
    """Index-free bidirectional Dijkstra baseline."""

    name = "BiDijkstra"

    def _build(self) -> None:
        """Nothing to build — the search runs directly on the live graph."""

    def query(self, source: int, target: int) -> float:
        return self.query_bidijkstra(source, target)

    def query_one_to_many(self, source: int, targets: Sequence[int]) -> List[float]:
        """One truncated Dijkstra instead of ``len(targets)`` bidirectional searches.

        The search stops as soon as the farthest pending target settles, so
        the cost of the whole batch is a single (partial) graph sweep over
        the frozen CSR snapshot (a literal port of
        :func:`~repro.algorithms.dijkstra.dijkstra_one_to_many`).
        """
        return self._graph_snapshot().one_to_many(source, list(targets))

    def index_size(self) -> int:
        return 0

    # ------------------------------------------------------------------
    # Snapshot persistence (see repro.store)
    # ------------------------------------------------------------------
    def to_state(self, io) -> dict:
        """Nothing beyond the graph (which every snapshot already carries)."""
        return {}

    def from_state(self, state: dict, io) -> None:
        """Nothing to restore — the search runs directly on the live graph."""

    def _kernel_exports(self):
        # The CSR graph snapshot duplicates the graph payload (~2x for this
        # index, whose only state *is* the graph) — accepted so the first
        # post-load query skips the O(n+m) freeze like every other method.
        return {"__graph__": self._graph_snapshot}


@register_spec
@dataclass(frozen=True)
class BiDijkstraSpec(IndexSpec):
    """Construction spec for the index-free BiDijkstra baseline (no knobs)."""

    method = "BiDijkstra"

    def create(self, graph: Graph) -> BiDijkstraIndex:
        return BiDijkstraIndex(graph)
