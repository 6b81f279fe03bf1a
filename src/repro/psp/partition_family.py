"""Per-partition index structures sharing a global boundary-first order.

A *partition index family* holds, for every partition ``G_i`` (or extended
partition ``G'_i``), the flat contraction of its (sub)graph under the
restriction of a shared global vertex order
(:class:`~repro.treedec.slots.SlotContraction`), the resulting tree
decomposition and (optionally) H2H distance labels.  PMHL's no-boundary and
post-boundary indexes and the N-CH-P / P-TD-P baselines are all built from
such families, so the class also exposes the per-partition maintenance
primitives (shortcut update, label update), which the PSP indexes time one
partition at a time so the throughput machinery can convert them into
simulated parallel stage times.

The (sub)graphs are build inputs only: a contraction's ``base`` array holds
each shortcut's graph weight from then on, and a partition's edge updates
go straight into it.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.exceptions import IndexNotBuiltError
from repro.graph.graph import Graph
from repro.hierarchy.ch import ch_bidirectional_query
from repro.labeling.h2h import H2HLabels
from repro.partitioning.base import Partitioning
from repro.partitioning.ordering import restrict_order
from repro.treedec.slots import SlotContraction

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
        Optional per-partition graphs to build from; defaults to the
        intra-edge subgraphs ``G_i``.  The post-boundary strategy passes
        extended partitions ``G'_i`` here.
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
        count = partitioning.num_partitions if graphs is None else len(graphs)
        #: The build inputs, dropped once the contractions hold the weights.
        self._graphs = graphs
        self.contractions: List[Optional[SlotContraction]] = [None] * count
        self.labels: List[Optional[H2HLabels]] = [None] * count
        self.build_times: List[float] = [0.0] * count
        #: Per partition, ``True`` for each slot joining two boundary
        #: vertices (the overlay's edges), derived on first use.
        self._boundary_slots: Dict[int, np.ndarray] = {}
        self._built = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return len(self.contractions)

    def build(self) -> List[float]:
        """Build every partition structure; returns per-partition build times."""
        for pid in range(self.num_partitions):
            start = time.perf_counter()
            subgraph = (
                self.partitioning.subgraph(pid) if self._graphs is None else self._graphs[pid]
            )
            partition_order = restrict_order(self.order, subgraph.vertices())
            self.attach(pid, SlotContraction.build(subgraph, order=partition_order))
            if self.with_labels:
                self.labels[pid].build()
            self.build_times[pid] = time.perf_counter() - start
        self._graphs = None
        self._built = True
        return list(self.build_times)

    def attach(self, pid: int, contraction: SlotContraction, labels=None) -> None:
        """Install partition ``pid``'s contraction and its labels over their
        tree (``labels`` reattaches saved ones: an ``Arena``)."""
        self.contractions[pid] = contraction
        if self.with_labels:
            self.labels[pid] = H2HLabels.over(contraction, labels, allow_forest=True)

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
        return ch_bidirectional_query(source, target, self.contractions[pid].upward)

    # ------------------------------------------------------------------
    # Boundary shortcuts (overlay-graph construction, Theorem 2)
    # ------------------------------------------------------------------
    def boundary_slots(self, pid: int) -> np.ndarray:
        """``True`` for each slot of partition ``pid`` whose two endpoints are
        boundary vertices.

        Under the boundary-first order all non-boundary vertices of the
        partition are contracted first, so these shortcuts describe the
        boundary-to-boundary contracted graph, which preserves global
        distances (Theorem 2 of the paper): they are the overlay's edges.
        """
        flags = self._boundary_slots.get(pid)
        if flags is None:
            arena = self.contractions[pid].arena
            partitioning = self.partitioning
            is_boundary = partitioning.boundary_mask[partitioning.graph.positions(arena["ids"])]
            owners = np.repeat(is_boundary, np.diff(arena["indptr"]))
            flags = self._boundary_slots[pid] = owners & is_boundary[arena["indices"]]
        return flags

    def boundary_shortcuts(self, pid: int, slots: Optional[np.ndarray] = None):
        """``(us, vs, weights)`` of partition ``pid``'s boundary shortcuts:
        all of them, or those among ``slots`` (a pass's changed slots)."""
        self._require_built()
        flags = self.boundary_slots(pid)
        picked = np.flatnonzero(flags) if slots is None else slots[flags[slots]]
        contraction = self.contractions[pid]
        arena = contraction.arena
        return (
            arena["ids"][contraction.slot_rows(picked)],
            arena["ids"][arena["indices"][picked]],
            arena["weights"][picked],
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def update_shortcuts(
        self, pid: int, us: Sequence[int], vs: Sequence[int], weights: Sequence[float]
    ) -> np.ndarray:
        """Install new weights of partition ``pid``'s edges ``(us[i], vs[i])``
        and run its shortcut pass; returns the changed slots.  An edge the
        partition's contraction has no slot for is a ``GraphError``."""
        self._require_built()
        contraction = self.contractions[pid]
        return contraction.run(contraction.patch(us, vs, weights))

    def update_labels(self, pid: int, slots: np.ndarray) -> Set[int]:
        """Top-down label maintenance of one partition from the owners of
        its changed ``slots``; returns changed vertices."""
        self._require_built()
        if not self.with_labels or not len(slots):
            return set()
        return self.labels[pid].update_top_down(self.contractions[pid].vertices(slots))

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
