"""Per-partition index structures sharing a global boundary-first order.

A *partition index family* holds, for every partition ``G_i`` (or extended
partition ``G'_i``), its own copy of the (sub)graph, its MDE contraction under
the restriction of a shared global vertex order, the resulting tree
decomposition and (optionally) H2H distance labels.  PMHL's no-boundary and
post-boundary indexes and the N-CH-P / P-TD-P baselines are all built from
such families, so the class also exposes the per-partition maintenance
primitives (shortcut update, label update) together with their individual
wall-clock times, which the throughput machinery converts into simulated
parallel stage times.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import IndexNotBuiltError
from repro.graph.graph import Graph
from repro.hierarchy.ch import ch_bidirectional_query
from repro.labeling.h2h import H2HLabels
from repro.partitioning.base import Partitioning
from repro.partitioning.ordering import restrict_order
from repro.treedec.mde import ContractionResult, contract_graph, update_shortcuts_bottom_up
from repro.treedec.tree import TreeDecomposition

INF = math.inf


class PartitionIndexFamily:
    """Contractions (and optional H2H labels) for every partition of a road network.

    Parameters
    ----------
    partitioning:
        The planar partitioning (provides vertex sets and boundaries).
    order:
        Global boundary-first vertex order; each partition uses its restriction.
    with_labels:
        Build H2H labels per partition (hop-based underlying index).  When
        ``False`` only the shortcut arrays are kept (CH underlying index).
    graphs:
        Optional per-partition graphs; defaults to the intra-edge subgraphs
        ``G_i``.  The post-boundary strategy passes extended partitions
        ``G'_i`` here.
    """

    def __init__(
        self,
        partitioning: Partitioning,
        order: Sequence[int],
        with_labels: bool = True,
        graphs: Optional[List[Graph]] = None,
    ):
        self.partitioning = partitioning
        self.order = list(order)
        self.with_labels = with_labels
        if graphs is not None:
            self.graphs = graphs
        else:
            self.graphs = [
                partitioning.subgraph(pid) for pid in range(partitioning.num_partitions)
            ]
        self.contractions: List[Optional[ContractionResult]] = [None] * len(self.graphs)
        self.trees: List[Optional[TreeDecomposition]] = [None] * len(self.graphs)
        self.labels: List[Optional[H2HLabels]] = [None] * len(self.graphs)
        self.build_times: List[float] = [0.0] * len(self.graphs)
        self._built = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return len(self.graphs)

    def build(self) -> List[float]:
        """Build every partition structure; returns per-partition build times."""
        for pid in range(self.num_partitions):
            start = time.perf_counter()
            subgraph = self.graphs[pid]
            partition_order = restrict_order(self.order, subgraph.vertices())
            contraction = contract_graph(subgraph, order=partition_order)
            tree = TreeDecomposition.from_contraction(contraction, allow_forest=True)
            self.contractions[pid] = contraction
            self.trees[pid] = tree
            if self.with_labels:
                labels = H2HLabels(tree)
                labels.build()
                self.labels[pid] = labels
            self.build_times[pid] = time.perf_counter() - start
        self._built = True
        return list(self.build_times)

    def _require_built(self) -> None:
        if not self._built:
            raise IndexNotBuiltError("partition index family has not been built")

    # ------------------------------------------------------------------
    # Queries inside one partition
    # ------------------------------------------------------------------
    def query(self, pid: int, source: int, target: int) -> float:
        """Distance between two vertices of partition ``pid`` *within its graph*."""
        self._require_built()
        if self.with_labels:
            return self.labels[pid].query(source, target)
        contraction = self.contractions[pid]
        return ch_bidirectional_query(source, target, lambda v: contraction.shortcuts[v])

    # ------------------------------------------------------------------
    # Boundary shortcuts (overlay-graph construction, Theorem 2)
    # ------------------------------------------------------------------
    def boundary_shortcuts(self, pid: int) -> Dict[Tuple[int, int], float]:
        """Shortcuts among boundary vertices produced by the partition contraction.

        Under the boundary-first order all non-boundary vertices of the
        partition are contracted first, so the shortcut arrays of the boundary
        vertices describe the boundary-to-boundary contracted graph, which
        preserves global distances (Theorem 2 of the paper).
        """
        self._require_built()
        contraction = self.contractions[pid]
        boundary = self.partitioning.boundary(pid)
        shortcuts: Dict[Tuple[int, int], float] = {}
        for b in boundary:
            if b not in contraction.shortcuts:
                continue
            for u, weight in contraction.shortcuts[b].items():
                if u in boundary:
                    shortcuts[(b, u)] = weight
        return shortcuts

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def apply_edge_updates(self, pid: int, updates: Iterable) -> List[Tuple[int, int]]:
        """Apply edge-weight updates to the partition's graph copy.

        Returns the list of changed edge keys (for the shortcut update seed).
        Updates whose edge does not exist in the partition graph are skipped
        (e.g. boundary-pair virtual edges handled separately by the caller).
        """
        graph = self.graphs[pid]
        changed: List[Tuple[int, int]] = []
        for update in updates:
            if graph.has_edge(update.u, update.v):
                graph.set_edge_weight(update.u, update.v, update.new_weight)
                changed.append(update.key())
        return changed

    def set_edge_weights(
        self, pid: int, new_weights: Dict[Tuple[int, int], float]
    ) -> List[Tuple[int, int]]:
        """Set explicit edge weights on the partition graph (adding missing edges).

        Used for the extended partitions, whose boundary-pair edges carry the
        global boundary distances.
        """
        graph = self.graphs[pid]
        changed: List[Tuple[int, int]] = []
        for (u, v), weight in new_weights.items():
            if graph.has_edge(u, v):
                if graph.edge_weight(u, v) != weight:
                    graph.set_edge_weight(u, v, weight)
                    changed.append((u, v) if u < v else (v, u))
            else:
                graph.add_edge(u, v, weight)
                changed.append((u, v) if u < v else (v, u))
        return changed

    def update_shortcuts(
        self, pid: int, changed_edges: Sequence[Tuple[int, int]]
    ) -> Dict[int, List[int]]:
        """Bottom-up shortcut maintenance of one partition; returns the change report."""
        self._require_built()
        return update_shortcuts_bottom_up(
            self.contractions[pid], self.graphs[pid], changed_edges
        )

    def update_labels(self, pid: int, affected: Iterable[int]) -> Set[int]:
        """Top-down label maintenance of one partition; returns changed vertices."""
        self._require_built()
        if not self.with_labels:
            return set()
        return self.labels[pid].update_top_down(affected)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def index_size(self) -> int:
        """Total number of stored shortcut and label entries."""
        self._require_built()
        total = 0
        for pid in range(self.num_partitions):
            total += self.contractions[pid].shortcut_count()
            if self.with_labels and self.labels[pid] is not None:
                total += self.labels[pid].label_entry_count()
        return total
