"""Post-boundary PSP index (and the P-TD-P baseline).

The *post-boundary strategy* (Section III-C, Steps 4-5) fixes the slow
same-partition queries of the no-boundary strategy: after the overlay index is
available, the all-pair global boundary distances of every partition are
computed from it and inserted into the partition graphs, producing *extended
partitions* ``{G'_i}`` whose indexes ``{L'_i}`` answer same-partition queries
exactly and locally.  Cross-partition queries still concatenate through the
overlay.

Every index of this strategy is hop-based (H2H labels over the partitions,
the overlay and the extended partitions): ``PTDPIndex`` is the paper's
**P-TD-P** baseline (query-oriented PSP with DH2H underlying).  A partition's
boundary distance table is one ``float64`` matrix over its sorted boundary,
one :meth:`~repro.labeling.h2h.H2HLabels.distance_matrix` call over the
overlay labels.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.base import StageTiming, UpdateReport
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
from repro.partitioning.base import Partitioning
from repro.psp.no_boundary import NoBoundaryPSPIndex
from repro.psp.partition_family import PartitionIndexFamily
from repro.registry import IndexSpec, register_spec

INF = math.inf


class PostBoundaryPSPIndex(NoBoundaryPSPIndex):
    """Planar PSP index following the post-boundary strategy."""

    name = "P-PSP"

    def __init__(
        self,
        graph: Graph,
        num_partitions: int = 4,
        partitioning: Optional[Partitioning] = None,
        seed: int = 0,
    ):
        super().__init__(
            graph,
            num_partitions=num_partitions,
            partitioning=partitioning,
            seed=seed,
        )
        self.extended_family: Optional[PartitionIndexFamily] = None
        #: Per-partition all-pair global boundary distances, rows and columns
        #: in sorted-boundary order (for change detection).
        self.boundary_distances: List[np.ndarray] = []

    # ------------------------------------------------------------------
    # Construction (Section III-C, Steps 4-5)
    # ------------------------------------------------------------------
    def _build(self) -> None:
        super()._build()
        with obs.span(self.name.lower() + ".build.extended_partitions"):
            self._build_extended_partitions()

    def _build_extended_partitions(self) -> None:
        """Insert every partition's all-pair global boundary distances (from
        the overlay index) into its subgraph and index the results."""
        extended_graphs: List[Graph] = []
        self.boundary_distances = self._boundary_tables()
        for pid, distances in enumerate(self.boundary_distances):
            boundary = np.asarray(self.partitioning.sorted_boundary(pid), dtype=np.int64)
            # The clique is the upper triangle, row by row (ascending pairs),
            # appended to the subgraph's edges; a pair that is already an
            # edge keeps the smaller weight.
            rows, cols = np.nonzero(np.triu(distances < INF, 1))
            extended_graphs.append(self.partitioning.subgraph(pid).with_edges(
                boundary[rows], boundary[cols], distances[rows, cols]
            ))
        self.extended_family = PartitionIndexFamily(
            self.partitioning, self.order, with_labels=True, graphs=extended_graphs
        )
        self.extended_family.build()

    # ------------------------------------------------------------------
    # Query processing: in-partition lookups go through the extended family,
    # whose same-partition answers are already global.  The lift-then-join
    # is inherited; its frozen per-partition stores then hold the *extended*
    # structures, its lift matrices are the overlay's own.
    # ------------------------------------------------------------------
    def _query_strategy(self) -> Tuple[PartitionIndexFamily, bool]:
        return self.extended_family, True

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _apply_batch(self, batch: UpdateBatch, report: UpdateReport) -> None:
        super()._apply_batch(batch, report)
        post_times = self._update_extended_partitions(self._split_batch(batch)[0])
        self._emit_stage(report,
            StageTiming("post_boundary_update", sum(post_times), parallel_times=post_times)
        )

    def _update_extended_partitions(self, per_partition: Dict[int, List]) -> List[float]:
        """Refresh the extended partitions whose boundary distances or edges
        changed, once the overlay index is up to date; returns per-partition
        seconds (parallel in the paper)."""
        partitioning, labels = self.partitioning, self.overlay.labels
        times: List[float] = []
        for pid in range(partitioning.num_partitions):
            start = time.perf_counter()
            boundary = partitioning.boundary(pid)
            ordered = partitioning.sorted_boundary(pid)
            new = labels.distance_matrix(ordered)
            # The finite upper-triangle entries that differ, row by row
            # (ascending pairs).
            rows, cols = np.nonzero(np.triu(new != self.boundary_distances[pid], 1) & (new < INF))
            self.boundary_distances[pid] = new
            intra_updates = [
                u
                for u in per_partition.get(pid, [])
                if not (u.u in boundary and u.v in boundary)
            ]
            if len(rows) or intra_updates:
                ids = np.asarray(ordered, dtype=np.int64)
                changed = self.extended_family.update_shortcuts(
                    pid,
                    [u.u for u in intra_updates] + ids[rows].tolist(),
                    [u.v for u in intra_updates] + ids[cols].tolist(),
                    [u.new_weight for u in intra_updates] + new[rows, cols].tolist(),
                )
                self.extended_family.update_labels(pid, changed)
            times.append(time.perf_counter() - start)
        return times

    def _boundary_tables(self) -> List[np.ndarray]:
        """Every partition's boundary distance matrix from the overlay labels
        as they stand."""
        labels = self.overlay.labels
        return [
            labels.distance_matrix(self.partitioning.sorted_boundary(pid))
            for pid in range(self.partitioning.num_partitions)
        ]

    # ------------------------------------------------------------------
    def index_size(self) -> int:
        return super().index_size() + self.extended_family.index_size()

    def _label_sets(self):
        extended = self.extended_family.labels if self.extended_family is not None else ()
        return (*super()._label_sets(), *(labels for labels in extended if labels is not None))

    def _contractions(self):
        extended = self.extended_family.contractions if self.extended_family is not None else ()
        return (*super()._contractions(), *extended)

    # ------------------------------------------------------------------
    # Snapshot persistence: the no-boundary state plus the extended
    # partitions (whose boundary-pair weights exist nowhere else).  The
    # boundary distance tables are rebuilt from the loaded overlay labels.
    # ------------------------------------------------------------------
    def to_state(self, io) -> Dict[str, object]:
        from repro.store import codec

        state = super().to_state(io)
        state["extended_family"] = codec.pack_family(self.extended_family, io)
        return state

    def from_state(self, state: Dict[str, object], io) -> None:
        from repro.store import codec

        super().from_state(state, io)
        self.extended_family = codec.unpack_family(
            state["extended_family"], io, self.partitioning, self.order
        )
        self.boundary_distances = self._boundary_tables()


class PTDPIndex(PostBoundaryPSPIndex):
    """The paper's **P-TD-P** baseline: post-boundary PSP with DH2H underlying."""

    name = "P-TD-P"


@register_spec
@dataclass(frozen=True)
class PTDPSpec(IndexSpec):
    """Construction spec for the P-TD-P baseline (post-boundary PSP, DH2H underlying)."""

    method = "P-TD-P"
    aliases = ("PTDP",)
    config_fields = {"num_partitions": "partition_number", "seed": "seed"}

    #: Number of partitions ``k``.
    num_partitions: int = 4
    #: Partitioner seed.
    seed: int = 0

    def create(self, graph: Graph) -> PTDPIndex:
        return PTDPIndex(graph, num_partitions=self.num_partitions, seed=self.seed)
