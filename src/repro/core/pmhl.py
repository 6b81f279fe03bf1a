"""Partitioned Multi-stage Hub Labeling (PMHL, Section V of the paper).

PMHL partitions the road network, builds MHL-style indexes for the partitions
and the overlay, and layers three PSP strategies on top of each other so that
query efficiency keeps improving *while* the index is being maintained:

==============  =====================================  ==========================
update stage    work                                   query stage released
==============  =====================================  ==========================
U1              on-spot edge refresh                   Q1 — BiDijkstra
U2              no-boundary shortcut update            Q2 — partitioned CH (PCH)
U3              no-boundary label update               Q3 — no-boundary query
U4              post-boundary index update             Q4 — post-boundary query
U5              cross-boundary index update            Q5 — cross-boundary query
==============  =====================================  ==========================

Partition-level work inside U2-U4 is reported with per-partition timings and
U5 with per-branch-root timings so the throughput evaluator can model the
paper's multi-threaded execution (see ``repro.throughput.parallel``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.base import DistanceIndex, QueryStage, StageTiming, Timer, UpdateReport
from repro.core.cross_boundary import (
    build_cross_boundary_index,
    compose_cross_boundary_contraction,
)
from repro.core.stages import timed_label_update_by_root
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
from repro.hierarchy.ch import ch_bidirectional_query
from repro.kernels.arena import Arena
from repro.kernels.label_store import LabelStore
from repro.labeling.h2h import H2HLabels
from repro.partitioning.base import Partitioning
from repro.psp.post_boundary import PostBoundaryPSPIndex
from repro.registry import IndexSpec, register_spec
from repro.treedec.tree import TreeDecomposition


class PMHLIndex(PostBoundaryPSPIndex):
    """Partitioned Multi-stage Hub Labeling index.

    The no-boundary and post-boundary strategies — their build steps, the
    PSP concatenation query and the maintenance phases — are the ``repro.psp``
    classes' own (hop-based underlying); this class adds what is PMHL's: the
    cross-boundary labels ``L*``, the PCH union store, and an update that
    sequences the shared phases so each one releases a query stage.

    Parameters
    ----------
    graph:
        The road network (mutated in place by updates).
    num_partitions:
        Partition number ``k`` (the paper's default is 8-32 depending on size).
    partitioning:
        Optional pre-computed partitioning; defaults to the natural-cut
        (PUNCH-substitute) partitioner.
    seed:
        Partitioner seed.
    """

    name = "PMHL"
    final_stage_is_label_lookup = True

    def __init__(
        self,
        graph: Graph,
        num_partitions: int = 8,
        partitioning: Optional[Partitioning] = None,
        seed: int = 0,
    ):
        super().__init__(
            graph,
            num_partitions=num_partitions,
            partitioning=partitioning,
            seed=seed,
        )
        self.cross_tree: Optional[TreeDecomposition] = None
        self.cross_labels: Optional[H2HLabels] = None
        self.build_breakdown: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Construction (Section V-C, Steps 1-6)
    # ------------------------------------------------------------------
    def _build(self) -> None:
        self.build_breakdown = {}
        for key, steps in (
            ("partitioning_and_ordering", (self._build_partitioning,)),
            # Steps 1-3: no-boundary index ({L_i}, overlay graph, overlay index).
            ("no_boundary", (self._build_partition_indexes, self._build_overlay)),
            # Steps 4-5: post-boundary index ({L'_i} on extended partitions).
            ("post_boundary", (self._build_extended_partitions,)),
            # Step 6: cross-boundary index L* via tree aggregation.
            ("cross_boundary", (self._build_cross_boundary,)),
        ):
            with Timer() as timer:
                for step in steps:
                    step()
            self.build_breakdown[key] = timer.seconds
            obs.record_span("pmhl.build." + key, timer.seconds)

    def _build_cross_boundary(self) -> None:
        _, self.cross_tree, self.cross_labels = build_cross_boundary_index(
            self.partitioning, self.order, self.family, self.overlay
        )

    # ------------------------------------------------------------------
    # Frozen stores of PMHL's own query stages (see repro.kernels; Q3/Q4
    # read the PSP classes' overlay / per-partition stores)
    #
    # Each store reads only structures that are *final* by the time the
    # serving engine releases its query stage — shortcut arrays after
    # U-Stage 2, cross labels after U-Stage 5 — so a store a reader freezes
    # while later stages are still being maintained stays valid for the rest
    # of the epoch (DESIGN.md §5 audits every stage).
    # ------------------------------------------------------------------
    def _cross_store(self):
        self._require_built()
        return self._kernel(
            "cross_labels", lambda: LabelStore.freeze(self.cross_labels)
        )

    def _pch_store(self):
        """The union of the overlay's and the partitions' shortcut arrays:
        the cross-boundary contraction's arena, gathered from them at the
        end of U-Stage 2."""
        self._require_built()
        return self._kernel("pch", self.cross_tree.contraction.store)

    # ------------------------------------------------------------------
    # Query processing (Q-Stages 1-5; Q-Stage 1 is the base class's
    # ``query_bidijkstra``)
    # ------------------------------------------------------------------
    def query_pch(self, source: int, target: int) -> float:
        """Q-Stage 2: partitioned CH query over the union of shortcut arrays."""
        return self._stage_query(
            self._pch_store(), source, target,
            ch_bidirectional_query, self.cross_tree.contraction.upward,
        )

    def query_no_boundary(self, source: int, target: int) -> float:
        """Q-Stage 3: no-boundary PSP query (distance concatenation via {L_i}, L̃)."""
        self._require_built()
        self._check_endpoints(source, target)
        return self._psp_query(source, target, self.family, False)

    def query_post_boundary(self, source: int, target: int) -> float:
        """Q-Stage 4: post-boundary PSP query (same-partition queries answered by {L'_i})."""
        self._require_built()
        self._check_endpoints(source, target)
        return self._psp_query(source, target, self.extended_family, True)

    def query_cross_boundary(self, source: int, target: int) -> float:
        """Q-Stage 5: cross-boundary 2-hop query on L* (fastest), the final stage."""
        return self.query(source, target)

    # The final stage is L*: its frozen store, or the labels themselves, in
    # place of the PSP classes' lift-then-join (so the pure batch is the
    # base's source grouping again).  The pure one-to-many fetches the
    # source's label array once; the 2-hop arithmetic is the scalar path's
    # either way, so distances are bit-identical.
    def _final_store(self):
        return self._cross_store()

    def _reference_query(self, source: int, target: int) -> float:
        return self.cross_labels.query(source, target)

    def _reference_one_to_many(self, source: int, targets: List[int]) -> List[float]:
        return self.cross_labels.query_one_to_many(source, targets)

    _reference_many = DistanceIndex._reference_many

    # ------------------------------------------------------------------
    # Maintenance (U-Stages 1-5, Section V-D): the PSP classes' phases in
    # PMHL's order, each emitted as its own stage so the query stage it
    # completes is released before the next phase starts.
    # ------------------------------------------------------------------
    def _apply_batch(self, batch: UpdateBatch) -> UpdateReport:
        self._require_built()
        report = UpdateReport()
        # Before any structure mutates: stage queries released mid-batch
        # refreeze from the new epoch's structures, never a pre-update store.
        self.invalidate_kernels()

        # U-Stage 1: on-spot edge update.
        with Timer() as timer:
            self._refresh_edges(batch)
        self._emit_stage(report, StageTiming("edge_update", timer.seconds))

        per_partition, inter_updates = self._split_batch(batch)

        # U-Stage 2: no-boundary shortcut update (partitions in parallel, then overlay).
        times, changed, boundary_changes = self._update_partition_shortcuts(per_partition)
        self._emit_stage(report,
            StageTiming("partition_shortcut_update", sum(times), parallel_times=times)
        )
        with Timer() as timer:
            overlay_changed = self.overlay.update_shortcuts(inter_updates, boundary_changes)
            # PCH's union, gathered before its stage is released: a reader's
            # freeze then only wraps it.
            self.cross_tree.contraction.gather()
        self._emit_stage(report, StageTiming("overlay_shortcut_update", timer.seconds))

        # U-Stage 3: no-boundary label update (partitions in parallel, then overlay).
        times = self._update_partition_labels(changed)
        self._emit_stage(report,
            StageTiming("partition_label_update", sum(times), parallel_times=times)
        )
        with Timer() as timer:
            self.overlay.update_labels(overlay_changed)
        self._emit_stage(report, StageTiming("overlay_label_update", timer.seconds))

        # U-Stage 4: post-boundary index update (partitions in parallel).
        times = self._update_extended_partitions(per_partition)
        self._emit_stage(report,
            StageTiming("post_boundary_update", sum(times), parallel_times=times)
        )

        # U-Stage 5: cross-boundary index update (branch roots in parallel).
        with Timer() as timer:
            affected = [self.overlay.contraction.vertices(overlay_changed)]
            affected += [self.family.contractions[pid].vertices(s) for pid, s in changed.items()]
            _, per_root_times = timed_label_update_by_root(
                self.cross_labels, np.concatenate(affected).tolist()
            )
        self._emit_stage(report,
            StageTiming("cross_boundary_update", timer.seconds, parallel_times=per_root_times)
        )

        return report

    # ------------------------------------------------------------------
    # Introspection and throughput metadata
    # ------------------------------------------------------------------
    def index_size(self) -> int:
        return super().index_size() + self.cross_labels.label_entry_count()

    # ------------------------------------------------------------------
    # Snapshot persistence (see repro.store): the post-boundary state plus L*
    # ------------------------------------------------------------------
    def to_state(self, io) -> Dict[str, object]:
        """All five stages' structures; the cross-boundary contraction is not
        stored — it is recomposed on load so its gather maps read the loaded
        family / overlay arenas (the property U-Stage 5 maintenance relies
        on)."""
        from repro.store import codec

        state = super().to_state(io)
        state["cross_labels"] = codec.pack_labels(self.cross_labels, io)
        state["build_breakdown"] = dict(self.build_breakdown)
        return state

    def from_state(self, state: Dict[str, object], io) -> None:
        super().from_state(state, io)
        composed = compose_cross_boundary_contraction(
            self.partitioning, self.order, self.family, self.overlay
        )
        self.cross_labels = H2HLabels.over(
            composed, Arena.from_state(state["cross_labels"], io), allow_forest=True
        )
        self.cross_tree = self.cross_labels.tree
        self.build_breakdown = dict(state.get("build_breakdown", {}))

    def _kernel_exports(self):
        return {"cross_labels": self._cross_store}

    def _label_sets(self):
        cross = () if self.cross_labels is None else (self.cross_labels,)
        return (*super()._label_sets(), *cross)

    def stage_catalog(self) -> Tuple[QueryStage, ...]:
        """Q-Stages 1-5 in release order, each released by its U-Stage (Figure 7)."""
        return (
            QueryStage("BIDIJKSTRA", "edge_update", self.query_bidijkstra),
            QueryStage("PCH", "overlay_shortcut_update", self.query_pch),
            QueryStage("NO_BOUNDARY", "overlay_label_update", self.query_no_boundary),
            QueryStage("POST_BOUNDARY", "post_boundary_update", self.query_post_boundary),
            QueryStage("CROSS_BOUNDARY", "cross_boundary_update", self.query_cross_boundary),
        )


@register_spec
@dataclass(frozen=True)
class PMHLSpec(IndexSpec):
    """Construction spec for the Partitioned Multi-stage Hub Labeling index."""

    method = "PMHL"
    config_fields = {"num_partitions": "partition_number", "seed": "seed"}

    #: Partition number ``k``.
    num_partitions: int = 8
    #: Partitioner seed.
    seed: int = 0

    def create(self, graph: Graph) -> PMHLIndex:
        return PMHLIndex(graph, num_partitions=self.num_partitions, seed=self.seed)
