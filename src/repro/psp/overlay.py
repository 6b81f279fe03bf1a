"""Overlay graph and overlay index construction for planar PSP indexes.

The overlay graph ``G̃`` has the boundary vertices of all partitions as its
vertex set; its edges are the inter-partition edges of the road network plus
the boundary-to-boundary shortcuts produced inside each partition.  Built this
way (the paper's Theorem 2 / the "optimized no-boundary" construction), the
overlay preserves the *global* shortest distances between any two boundary
vertices, so an index over the overlay answers boundary-to-boundary queries
exactly.

The overlay graph is a build input only: its flat contraction
(:class:`~repro.treedec.slots.SlotContraction`) holds every edge weight in
``base`` from then on, and each batch patches the inter-partition edges and
the partitions' changed boundary shortcuts straight into it.  Which boundary
pairs a partition joins never changes after a build (weights stay finite and
positive), so a batch never adds an overlay edge.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import IndexNotBuiltError
from repro.graph.graph import Graph
from repro.hierarchy.ch import ch_bidirectional_query
from repro.labeling.h2h import H2HLabels
from repro.partitioning.base import Partitioning
from repro.partitioning.ordering import restrict_order
from repro.psp.partition_family import PartitionIndexFamily
from repro.treedec.slots import SlotContraction
from repro.treedec.tree import TreeDecomposition

#: ``(us, vs, weights)`` of a set of shortcut or edge changes.
Changes = Tuple[Sequence[int], Sequence[int], Sequence[float]]


def build_overlay_graph(
    partitioning: Partitioning, family: PartitionIndexFamily
) -> Graph:
    """Construct the overlay graph ``G̃`` from partition boundary shortcuts.

    Every boundary vertex becomes an overlay vertex; inter-partition edges keep
    their current weights; boundary shortcuts contributed by each partition
    contraction follow with their shortcut values: one builder call over the
    concatenated edge arrays.
    """
    graph = partitioning.graph
    parts = [partitioning.inter_edge_arrays()] + [
        family.boundary_shortcuts(pid) for pid in range(partitioning.num_partitions)
    ]
    us, vs, weights = (np.concatenate([np.asarray(p[i]) for p in parts]) for i in range(3))
    mask = partitioning.boundary_mask
    return Graph.from_edges(
        us, vs, weights, vertices=graph.ids[mask],
        coords=None if graph.coords is None else graph.coords[mask],
    )


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
        self.contraction: Optional[SlotContraction] = None
        self.tree: Optional[TreeDecomposition] = None
        self.labels: Optional[H2HLabels] = None
        self.build_seconds = 0.0
        self._built = False

    # ------------------------------------------------------------------
    def build(self) -> float:
        """Build the overlay graph and its index; returns the build time."""
        start = time.perf_counter()
        graph = build_overlay_graph(self.partitioning, self.family)
        overlay_order = restrict_order(self.order, graph.vertices())
        self.attach(SlotContraction.build(graph, order=overlay_order))
        if self.with_labels:
            self.labels.build()
        self.build_seconds = time.perf_counter() - start
        self._built = True
        return self.build_seconds

    def attach(self, contraction: SlotContraction, labels=None) -> None:
        """Install the contraction, its tree and its labels (``labels``
        reattaches saved ones: an ``Arena``, which the tree is read from)."""
        self.contraction = contraction
        if self.with_labels:
            self.labels = H2HLabels.over(contraction, labels, allow_forest=True)
            self.tree = self.labels.tree
        else:
            self.tree = TreeDecomposition.from_contraction(contraction, allow_forest=True)

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
        return ch_bidirectional_query(b1, b2, self.contraction.upward)

    # ------------------------------------------------------------------
    def update_shortcuts(self, inter_updates: Iterable, boundary_changes: Changes) -> np.ndarray:
        """Shortcut half of overlay maintenance: install the new edge weights
        and run the overlay's shortcut pass.

        Parameters
        ----------
        inter_updates:
            Edge updates whose endpoints lie in different partitions (their
            weights are copied verbatim onto the overlay edges).
        boundary_changes:
            ``(us, vs, weights)`` of the partition boundary shortcuts that
            changed during the partition shortcut-update phase.

        Returns the changed slots, which seed :meth:`update_labels`.
        """
        self._require_built()
        inter = list(inter_updates)
        us, vs, weights = boundary_changes
        contraction = self.contraction
        seeds = contraction.patch(
            [u.u for u in inter] + list(us), [u.v for u in inter] + list(vs),
            [u.new_weight for u in inter] + list(weights),
        )
        return contraction.run(seeds)

    def update_labels(self, slots: np.ndarray) -> Set[int]:
        """Label half of overlay maintenance: top-down from the owners of the
        changed ``slots``; returns the vertices whose labels changed."""
        if self.with_labels and len(slots):
            return self.labels.update_top_down(self.contraction.vertices(slots))
        return set()

    def apply_updates(
        self, inter_updates: Iterable, boundary_changes: Changes
    ) -> Tuple[np.ndarray, Set[int]]:
        """Shortcut half, then label half (arguments as :meth:`update_shortcuts`);
        returns ``(changed slots, changed label vertices)``."""
        slots = self.update_shortcuts(inter_updates, boundary_changes)
        return slots, self.update_labels(slots)

    # ------------------------------------------------------------------
    def index_size(self) -> int:
        """Number of stored overlay shortcut and label entries."""
        self._require_built()
        total = self.contraction.shortcut_count()
        if self.with_labels and self.labels is not None:
            total += self.labels.label_entry_count()
        return total
