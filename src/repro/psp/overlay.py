"""Overlay graph and overlay index construction for planar PSP indexes.

The overlay graph ``G̃`` has the boundary vertices of all partitions as its
vertex set; its edges are the inter-partition edges of the road network plus
the boundary-to-boundary shortcuts produced inside each partition.  Built this
way (the paper's Theorem 2 / the "optimized no-boundary" construction), the
overlay preserves the *global* shortest distances between any two boundary
vertices, so an index over the overlay answers boundary-to-boundary queries
exactly.
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
from repro.psp.partition_family import PartitionIndexFamily
from repro.treedec.mde import ContractionResult, contract_graph, update_shortcuts_bottom_up
from repro.treedec.tree import TreeDecomposition

INF = math.inf


def build_overlay_graph(
    partitioning: Partitioning, family: PartitionIndexFamily
) -> Graph:
    """Construct the overlay graph ``G̃`` from partition boundary shortcuts.

    Every boundary vertex becomes an overlay vertex; inter-partition edges keep
    their current weights; boundary shortcuts contributed by each partition
    contraction are added with their shortcut values.
    """
    overlay = Graph()
    for b in sorted(partitioning.all_boundary()):
        overlay.add_vertex(b)
        coordinate = partitioning.graph.coordinate(b)
        if coordinate is not None:
            overlay.set_coordinate(b, *coordinate)
    for u, v, w in partitioning.inter_edges():
        overlay.add_edge(u, v, w)
    for pid in range(partitioning.num_partitions):
        for (b1, b2), weight in family.boundary_shortcuts(pid).items():
            overlay.add_edge(b1, b2, weight)
    return overlay


class OverlayIndex:
    """Contraction (and optional H2H labels) over the overlay graph ``G̃``."""

    def __init__(
        self,
        partitioning: Partitioning,
        family: PartitionIndexFamily,
        order: Sequence[int],
        with_labels: bool = True,
    ):
        self.partitioning = partitioning
        self.family = family
        self.order = list(order)
        self.with_labels = with_labels
        self.graph: Optional[Graph] = None
        self.contraction: Optional[ContractionResult] = None
        self.tree: Optional[TreeDecomposition] = None
        self.labels: Optional[H2HLabels] = None
        self.build_seconds = 0.0
        self._built = False

    # ------------------------------------------------------------------
    def build(self) -> float:
        """Build the overlay graph and its index; returns the build time."""
        start = time.perf_counter()
        self.graph = build_overlay_graph(self.partitioning, self.family)
        overlay_order = restrict_order(self.order, self.graph.vertices())
        self.contraction = contract_graph(self.graph, order=overlay_order)
        self.tree = TreeDecomposition.from_contraction(self.contraction, allow_forest=True)
        if self.with_labels:
            self.labels = H2HLabels(self.tree)
            self.labels.build()
        self.build_seconds = time.perf_counter() - start
        self._built = True
        return self.build_seconds

    def _require_built(self) -> None:
        if not self._built:
            raise IndexNotBuiltError("overlay index has not been built")

    # ------------------------------------------------------------------
    def query(self, b1: int, b2: int) -> float:
        """Global shortest distance between two boundary vertices."""
        self._require_built()
        if b1 == b2:
            return 0.0
        if self.with_labels:
            return self.labels.query(b1, b2)
        return ch_bidirectional_query(b1, b2, lambda v: self.contraction.shortcuts[v])

    def boundary_pair_distances(self, pid: int) -> Dict[Tuple[int, int], float]:
        """All-pair global distances among the boundary vertices of partition
        ``pid``: one ``query_pairs`` call over the overlay labels as they
        stand, or a CH query per pair without labels."""
        boundary = self.partitioning.sorted_boundary(pid)
        if self.with_labels:
            self._require_built()
            return self.labels.pair_distances(boundary)
        distances: Dict[Tuple[int, int], float] = {}
        for i, b1 in enumerate(boundary):
            for b2 in boundary[i + 1 :]:
                d = self.query(b1, b2)
                distances[(b1, b2)] = d
                distances[(b2, b1)] = d
        return distances

    # ------------------------------------------------------------------
    def update_shortcuts(
        self,
        inter_updates: Iterable,
        changed_boundary_shortcuts: Dict[Tuple[int, int], float],
    ) -> Dict[int, List[int]]:
        """Shortcut half of overlay maintenance: install edge changes, then
        update the overlay shortcut arrays bottom-up.

        Parameters
        ----------
        inter_updates:
            Edge updates whose endpoints lie in different partitions (their
            weights are copied verbatim onto the overlay edges).
        changed_boundary_shortcuts:
            New values of partition boundary shortcuts that changed during the
            partition shortcut-update phase.

        Returns the changed-shortcut report that seeds :meth:`update_labels`.
        """
        self._require_built()
        changed_edges: List[Tuple[int, int]] = []
        for update in inter_updates:
            if self.graph.has_edge(update.u, update.v):
                self.graph.set_edge_weight(update.u, update.v, update.new_weight)
                changed_edges.append(update.key())
        for (b1, b2), weight in changed_boundary_shortcuts.items():
            if self.graph.has_edge(b1, b2):
                if self.graph.edge_weight(b1, b2) != weight:
                    self.graph.set_edge_weight(b1, b2, weight)
                    changed_edges.append((b1, b2) if b1 < b2 else (b2, b1))
            else:
                self.graph.add_edge(b1, b2, weight)
                changed_edges.append((b1, b2) if b1 < b2 else (b2, b1))
        return update_shortcuts_bottom_up(self.contraction, self.graph, changed_edges)

    def update_labels(self, changed_report: Dict[int, List[int]]) -> Set[int]:
        """Label half of overlay maintenance: top-down from the vertices whose
        shortcuts changed; returns the vertices whose labels changed."""
        if self.with_labels and changed_report:
            return self.labels.update_top_down(changed_report.keys())
        return set()

    def apply_updates(
        self,
        inter_updates: Iterable,
        changed_boundary_shortcuts: Dict[Tuple[int, int], float],
    ) -> Tuple[Dict[int, List[int]], Set[int]]:
        """Shortcut half, then label half (arguments as :meth:`update_shortcuts`);
        returns ``(changed_shortcut_report, changed_label_vertices)``."""
        changed_report = self.update_shortcuts(inter_updates, changed_boundary_shortcuts)
        return changed_report, self.update_labels(changed_report)

    # ------------------------------------------------------------------
    def index_size(self) -> int:
        """Number of stored overlay shortcut and label entries."""
        self._require_built()
        total = self.contraction.shortcut_count()
        if self.with_labels and self.labels is not None:
            total += self.labels.label_entry_count()
        return total
