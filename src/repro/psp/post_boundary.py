"""Post-boundary PSP index (and the P-TD-P baseline).

The *post-boundary strategy* (Section III-C, Steps 4-5) fixes the slow
same-partition queries of the no-boundary strategy: after the overlay index is
available, the all-pair global boundary distances of every partition are
computed from it and inserted into the partition graphs, producing *extended
partitions* ``{G'_i}`` whose indexes ``{L'_i}`` answer same-partition queries
exactly and locally.  Cross-partition queries still concatenate through the
overlay.

``PostBoundaryPSPIndex(underlying="h2h")`` is the paper's **P-TD-P** baseline
(query-oriented PSP with DH2H underlying).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
        underlying: str = "h2h",
        partitioning: Optional[Partitioning] = None,
        seed: int = 0,
    ):
        super().__init__(
            graph,
            num_partitions=num_partitions,
            underlying=underlying,
            partitioning=partitioning,
            seed=seed,
        )
        self.extended_family: Optional[PartitionIndexFamily] = None
        #: Per-partition all-pair global boundary distances (for change detection).
        self.boundary_distances: List[Dict[Tuple[int, int], float]] = []

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
        self.boundary_distances = []
        for pid in range(self.partitioning.num_partitions):
            extended = self.partitioning.subgraph(pid)
            distances = self.overlay.boundary_pair_distances(pid)
            for (b1, b2), weight in distances.items():
                if b1 < b2 and weight < INF:
                    if extended.has_edge(b1, b2):
                        extended.set_edge_weight(
                            b1, b2, min(weight, extended.edge_weight(b1, b2))
                        )
                    else:
                        extended.add_edge(b1, b2, weight)
            extended_graphs.append(extended)
            self.boundary_distances.append(distances)
        self.extended_family = PartitionIndexFamily(
            self.partitioning,
            self.order,
            with_labels=(self.underlying == "h2h"),
            graphs=extended_graphs,
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
    def _apply_batch(self, batch: UpdateBatch) -> UpdateReport:
        report = super()._apply_batch(batch)
        post_times = self._update_extended_partitions(self._split_batch(batch)[0])
        self._emit_stage(report,
            StageTiming("post_boundary_update", sum(post_times), parallel_times=post_times)
        )
        return report

    def _update_extended_partitions(self, per_partition: Dict[int, List]) -> List[float]:
        """Refresh the extended partitions whose boundary distances or edges
        changed, once the overlay index is up to date; returns per-partition
        seconds (parallel in the paper)."""
        partitioning = self.partitioning
        times: List[float] = []
        for pid in range(partitioning.num_partitions):
            start = time.perf_counter()
            boundary = partitioning.boundary(pid)
            new_distances = self.overlay.boundary_pair_distances(pid)
            # The entries that differ, one C-level set difference (sorted:
            # the order the table lists its pairs in).
            changed_pairs = {
                pair: weight
                for pair, weight in sorted(
                    new_distances.items() - self.boundary_distances[pid].items()
                )
                if pair[0] < pair[1] and weight < INF
            }
            intra_updates = [
                u
                for u in per_partition.get(pid, [])
                if not (u.u in boundary and u.v in boundary)
            ]
            if not changed_pairs and not intra_updates:
                times.append(time.perf_counter() - start)
                continue
            self.boundary_distances[pid] = new_distances
            changed_edges = self.extended_family.apply_edge_updates(pid, intra_updates)
            changed_edges += self.extended_family.set_edge_weights(pid, changed_pairs)
            changed_report = self.extended_family.update_shortcuts(pid, changed_edges)
            self.extended_family.update_labels(pid, changed_report.keys())
            times.append(time.perf_counter() - start)
        return times

    # ------------------------------------------------------------------
    def index_size(self) -> int:
        return super().index_size() + self.extended_family.index_size()

    def _label_sets(self):
        extended = self.extended_family.labels if self.extended_family is not None else ()
        return (*super()._label_sets(), *(labels for labels in extended if labels is not None))

    # ------------------------------------------------------------------
    # Snapshot persistence: the no-boundary state plus the extended
    # partitions (whose boundary-pair edges exist nowhere else) and the
    # boundary distance tables used for update change detection.
    # ------------------------------------------------------------------
    def to_state(self, io) -> Dict[str, object]:
        from repro.store import codec

        state = super().to_state(io)
        state["extended_family"] = codec.pack_family(self.extended_family, io)
        state["boundary_distances"] = [
            codec.pack_pair_table(table, io) for table in self.boundary_distances
        ]
        return state

    def from_state(self, state: Dict[str, object], io) -> None:
        from repro.store import codec

        super().from_state(state, io)
        self.extended_family = codec.unpack_family(
            state["extended_family"], io, self.partitioning, self.order
        )
        self.boundary_distances = [
            codec.unpack_pair_table(table, io) for table in state["boundary_distances"]
        ]


class PTDPIndex(PostBoundaryPSPIndex):
    """The paper's **P-TD-P** baseline: post-boundary PSP with DH2H underlying."""

    name = "P-TD-P"

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
            underlying="h2h",
            partitioning=partitioning,
            seed=seed,
        )


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
