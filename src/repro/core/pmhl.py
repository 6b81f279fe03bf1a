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

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.algorithms.dijkstra import bidijkstra
from repro.base import DistanceIndex, StageTiming, Timer, UpdateReport
from repro.core.cross_boundary import build_cross_boundary_index
from repro.core.stages import PMHLQueryStage, timed_label_update_by_root
from repro.exceptions import IndexNotBuiltError, VertexNotFoundError
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
from repro.hierarchy.ch import ch_bidirectional_query
from repro.kernels.label_store import LabelStore
from repro.kernels.shortcut_store import ShortcutStore
from repro.labeling.h2h import H2HLabels
from repro.partitioning.base import Partitioning
from repro.partitioning.natural_cut import natural_cut_partition
from repro.partitioning.ordering import boundary_first_order
from repro.psp.overlay import OverlayIndex
from repro.psp.partition_family import PartitionIndexFamily
from repro.registry import IndexSpec, register_spec
from repro.treedec.tree import TreeDecomposition

INF = math.inf


class PMHLIndex(DistanceIndex):
    """Partitioned Multi-stage Hub Labeling index.

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
        super().__init__(graph)
        self.num_partitions = num_partitions
        self.seed = seed
        self.partitioning = partitioning
        self.order: List[int] = []
        self.family: Optional[PartitionIndexFamily] = None
        self.overlay: Optional[OverlayIndex] = None
        self.extended_family: Optional[PartitionIndexFamily] = None
        self.boundary_distances: List[Dict[Tuple[int, int], float]] = []
        self.cross_tree: Optional[TreeDecomposition] = None
        self.cross_labels: Optional[H2HLabels] = None
        self.build_breakdown: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Construction (Section V-C, Steps 1-6)
    # ------------------------------------------------------------------
    def _build(self) -> None:
        breakdown: Dict[str, float] = {}
        start = time.perf_counter()
        if self.partitioning is None:
            self.partitioning = natural_cut_partition(
                self.graph, self.num_partitions, seed=self.seed
            )
        self.order = boundary_first_order(self.graph, self.partitioning)
        breakdown["partitioning_and_ordering"] = time.perf_counter() - start
        obs.record_span(
            "pmhl.build.partitioning_and_ordering",
            breakdown["partitioning_and_ordering"],
        )

        # Steps 1-3: no-boundary index ({L_i}, overlay graph, overlay index).
        start = time.perf_counter()
        self.family = PartitionIndexFamily(self.partitioning, self.order, with_labels=True)
        self.family.build()
        self.overlay = OverlayIndex(self.partitioning, self.family, self.order, with_labels=True)
        self.overlay.build()
        breakdown["no_boundary"] = time.perf_counter() - start
        obs.record_span("pmhl.build.no_boundary", breakdown["no_boundary"])

        # Steps 4-5: post-boundary index ({L'_i} on extended partitions).
        start = time.perf_counter()
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
            self.partitioning, self.order, with_labels=True, graphs=extended_graphs
        )
        self.extended_family.build()
        breakdown["post_boundary"] = time.perf_counter() - start
        obs.record_span("pmhl.build.post_boundary", breakdown["post_boundary"])

        # Step 6: cross-boundary index L* via tree aggregation.
        start = time.perf_counter()
        _, self.cross_tree, self.cross_labels = build_cross_boundary_index(
            self.partitioning, self.order, self.family, self.overlay
        )
        breakdown["cross_boundary"] = time.perf_counter() - start
        obs.record_span("pmhl.build.cross_boundary", breakdown["cross_boundary"])
        self.build_breakdown = breakdown

    def _require_built(self) -> None:
        if self.cross_labels is None:
            raise IndexNotBuiltError("PMHL index has not been built")

    # ------------------------------------------------------------------
    # Frozen stores (one per query stage; see repro.kernels)
    #
    # Each store reads only structures that are *final* by the time the
    # serving engine releases its query stage — family/overlay labels after
    # U-Stage 3, extended labels after U-Stage 4, cross labels after U-Stage
    # 5 — so a store frozen in a mid-batch grace window stays valid for the
    # rest of the epoch.
    # ------------------------------------------------------------------
    def _cross_store(self):
        return self._kernel(
            "cross_labels", lambda: LabelStore.freeze(self.cross_labels)
        )

    def _pch_store(self):
        def freeze():
            boundary = self.partitioning.all_boundary()
            partition_of = self.partitioning.partition_of
            overlay_shortcuts = self.overlay.contraction.shortcuts
            contractions = self.family.contractions

            def upward(v: int) -> Dict[int, float]:
                if v in boundary:
                    return overlay_shortcuts[v]
                return contractions[partition_of(v)].shortcuts[v]

            return ShortcutStore.freeze(upward, self.order)

        return self._kernel("pch", freeze)

    def _overlay_store(self):
        return self._kernel(
            "overlay_labels", lambda: LabelStore.freeze(self.overlay.labels)
        )

    def _family_store(self, family: PartitionIndexFamily, tag: str, pid: int):
        return self._kernel(
            f"{tag}_labels_{pid}", lambda: LabelStore.freeze(family.labels[pid])
        )

    def _overlay_distance(self, b1: int, b2: int) -> float:
        store = self._overlay_store()
        if store is not None and store.query_fn is not None:
            return store.query_fn(b1, b2)
        return self.overlay.query(b1, b2)

    def _family_distance(
        self, family: PartitionIndexFamily, tag: str, pid: int, source: int, target: int
    ) -> float:
        store = self._family_store(family, tag, pid)
        if store is not None and store.query_fn is not None:
            return store.query_fn(source, target)
        return family.query(pid, source, target)

    def _family_to_boundary(
        self, family: PartitionIndexFamily, tag: str, pid: int, vertex: int
    ) -> Dict[int, float]:
        store = self._family_store(family, tag, pid)
        if store is not None:
            boundary = sorted(self.partitioning.boundary(pid))
            return dict(zip(boundary, store.one_to_many(vertex, boundary)))
        return family.distances_to_boundary(pid, vertex)

    # ------------------------------------------------------------------
    # Query processing (Q-Stages 1-5)
    # ------------------------------------------------------------------
    def query_bidijkstra(self, source: int, target: int) -> float:
        """Q-Stage 1: index-free bidirectional Dijkstra on the live graph."""
        snapshot = self._graph_snapshot()
        if snapshot is not None:
            return snapshot.bidijkstra(source, target)
        return bidijkstra(self.graph, source, target)

    def query_pch(self, source: int, target: int) -> float:
        """Q-Stage 2: partitioned CH query over the union of shortcut arrays."""
        self._require_built()
        store = self._pch_store()
        if store is not None:
            return store.query(source, target)
        boundary = self.partitioning.all_boundary()

        def upward(v: int) -> Dict[int, float]:
            if v in boundary:
                return self.overlay.contraction.shortcuts[v]
            return self.family.contractions[self.partitioning.partition_of(v)].shortcuts[v]

        return ch_bidirectional_query(source, target, upward)

    def query_no_boundary(self, source: int, target: int) -> float:
        """Q-Stage 3: no-boundary PSP query (distance concatenation via {L_i}, L̃)."""
        self._require_built()
        return self._psp_query(source, target, self.family, same_partition_direct=False)

    def query_post_boundary(self, source: int, target: int) -> float:
        """Q-Stage 4: post-boundary PSP query (same-partition queries answered by {L'_i})."""
        self._require_built()
        return self._psp_query(source, target, self.extended_family, same_partition_direct=True)

    def query_cross_boundary(self, source: int, target: int) -> float:
        """Q-Stage 5: cross-boundary 2-hop query on L* (fastest)."""
        self._require_built()
        store = self._cross_store()
        if store is not None and store.query_fn is not None:
            return store.query_fn(source, target)
        return self.cross_labels.query(source, target)

    def query(self, source: int, target: int) -> float:
        """Default query path: the fastest (cross-boundary) stage."""
        self._require_built()
        if not self.graph.has_vertex(source):
            raise VertexNotFoundError(source)
        if not self.graph.has_vertex(target):
            raise VertexNotFoundError(target)
        return self.query_cross_boundary(source, target)

    def query_one_to_many(self, source: int, targets: Sequence[int]) -> List[float]:
        """Amortised batch query on the cross-boundary labels ``L*``.

        With kernels on, the whole batch is answered by the frozen store's
        one-to-many kernel (native hub scan or one vectorized reduction);
        the pure reference fetches the source's label array once and
        intersects it against every target.  The 2-hop arithmetic is exactly
        the scalar path's either way, so distances are bit-identical.
        """
        self._require_built()
        targets = list(targets)
        store = self._cross_store()
        if store is not None:
            return store.one_to_many(source, targets)
        if not self.graph.has_vertex(source):
            raise VertexNotFoundError(source)
        for target in targets:
            if not self.graph.has_vertex(target):
                raise VertexNotFoundError(target)
        return self.cross_labels.query_one_to_many(source, targets)

    def query_many(self, pairs) -> List[float]:
        """Vectorized pair-batch kernel on ``L*`` (no source grouping needed)."""
        self._require_built()
        store = self._cross_store()
        if store is not None:
            return store.query_pairs(list(pairs))
        return super().query_many(pairs)

    def query_at_stage(self, source: int, target: int, stage: PMHLQueryStage) -> float:
        """Dispatch a query to the requested stage's algorithm."""
        if stage == PMHLQueryStage.BIDIJKSTRA:
            return self.query_bidijkstra(source, target)
        if stage == PMHLQueryStage.PCH:
            return self.query_pch(source, target)
        if stage == PMHLQueryStage.NO_BOUNDARY:
            return self.query_no_boundary(source, target)
        if stage == PMHLQueryStage.POST_BOUNDARY:
            return self.query_post_boundary(source, target)
        return self.query_cross_boundary(source, target)

    def _psp_query(
        self,
        source: int,
        target: int,
        family: PartitionIndexFamily,
        same_partition_direct: bool,
    ) -> float:
        """Shared no-/post-boundary query logic (Section III-C query cases).

        Distance fetches route through the kernel-aware helpers (frozen
        per-partition / overlay label stores) when ``use_kernels`` is on;
        the case analysis itself is identical either way.
        """
        if source == target:
            return 0.0
        tag = "extended" if family is self.extended_family else "family"
        partitioning = self.partitioning
        pid_s = partitioning.partition_of(source)
        pid_t = partitioning.partition_of(target)
        boundary = partitioning.all_boundary()
        source_is_boundary = source in boundary
        target_is_boundary = target in boundary

        if pid_s == pid_t:
            local = self._family_distance(family, tag, pid_s, source, target)
            if same_partition_direct:
                return local
            best = local
            source_to_boundary = self._family_to_boundary(family, tag, pid_s, source)
            target_to_boundary = self._family_to_boundary(family, tag, pid_s, target)
            for bp, d_s in source_to_boundary.items():
                if d_s == INF:
                    continue
                for bq, d_t in target_to_boundary.items():
                    if d_t == INF:
                        continue
                    candidate = d_s + self._overlay_distance(bp, bq) + d_t
                    if candidate < best:
                        best = candidate
            return best

        if source_is_boundary and target_is_boundary:
            return self._overlay_distance(source, target)
        if source_is_boundary:
            return self._psp_boundary_to_inner(source, pid_t, target, family, tag)
        if target_is_boundary:
            return self._psp_boundary_to_inner(target, pid_s, source, family, tag)

        best = INF
        source_to_boundary = self._family_to_boundary(family, tag, pid_s, source)
        target_to_boundary = self._family_to_boundary(family, tag, pid_t, target)
        for bp, d_s in source_to_boundary.items():
            if d_s == INF:
                continue
            for bq, d_t in target_to_boundary.items():
                if d_t == INF:
                    continue
                candidate = d_s + self._overlay_distance(bp, bq) + d_t
                if candidate < best:
                    best = candidate
        return best

    def _psp_boundary_to_inner(
        self,
        boundary_vertex: int,
        pid: int,
        inner: int,
        family: PartitionIndexFamily,
        tag: str,
    ) -> float:
        best = INF
        for bq, d_t in self._family_to_boundary(family, tag, pid, inner).items():
            if d_t == INF:
                continue
            candidate = self._overlay_distance(boundary_vertex, bq) + d_t
            if candidate < best:
                best = candidate
        return best

    # ------------------------------------------------------------------
    # Maintenance (U-Stages 1-5, Section V-D)
    # ------------------------------------------------------------------
    def _apply_batch(self, batch: UpdateBatch) -> UpdateReport:
        self._require_built()
        report = UpdateReport()
        partitioning = self.partitioning
        # Before any structure mutates: stage queries released mid-batch
        # refreeze from the new epoch's structures, never a pre-update store.
        self.invalidate_kernels()

        # U-Stage 1: on-spot edge update.
        with Timer() as timer:
            batch.apply(self.graph)
        self._emit_stage(report, StageTiming("edge_update", timer.seconds))

        # Group updates by partition / inter-partition.
        per_partition: Dict[int, List] = {}
        inter_updates: List = []
        for update in batch:
            pid_u = partitioning.partition_of(update.u)
            pid_v = partitioning.partition_of(update.v)
            if pid_u == pid_v:
                per_partition.setdefault(pid_u, []).append(update)
            else:
                inter_updates.append(update)

        # U-Stage 2: no-boundary shortcut update (partitions in parallel, then overlay).
        partition_shortcut_times: List[float] = []
        partition_changed: Dict[int, Dict[int, List[int]]] = {}
        changed_boundary: Dict[Tuple[int, int], float] = {}
        for pid, updates in sorted(per_partition.items()):
            start = time.perf_counter()
            changed_edges = self.family.apply_edge_updates(pid, updates)
            changed_report = self.family.update_shortcuts(pid, changed_edges)
            partition_changed[pid] = changed_report
            boundary = partitioning.boundary(pid)
            for v, neighbours in changed_report.items():
                if v in boundary:
                    for u in neighbours:
                        if u in boundary:
                            changed_boundary[(v, u)] = self.family.contractions[pid].shortcuts[v][u]
            partition_shortcut_times.append(time.perf_counter() - start)
        self._emit_stage(report,
            StageTiming(
                "partition_shortcut_update",
                sum(partition_shortcut_times),
                parallel_times=partition_shortcut_times,
            )
        )

        with Timer() as timer:
            overlay_changed = self._overlay_shortcut_update(inter_updates, changed_boundary)
        self._emit_stage(report, StageTiming("overlay_shortcut_update", timer.seconds))

        # U-Stage 3: no-boundary label update (partitions in parallel, then overlay).
        partition_label_times: List[float] = []
        for pid, changed_report in sorted(partition_changed.items()):
            start = time.perf_counter()
            self.family.update_labels(pid, changed_report.keys())
            partition_label_times.append(time.perf_counter() - start)
        self._emit_stage(report,
            StageTiming(
                "partition_label_update",
                sum(partition_label_times),
                parallel_times=partition_label_times,
            )
        )

        with Timer() as timer:
            if overlay_changed:
                self.overlay.labels.update_top_down(overlay_changed.keys())
        self._emit_stage(report, StageTiming("overlay_label_update", timer.seconds))

        # U-Stage 4: post-boundary index update (partitions in parallel).
        post_times = self._post_boundary_update(per_partition)
        self._emit_stage(report,
            StageTiming("post_boundary_update", sum(post_times), parallel_times=post_times)
        )

        # U-Stage 5: cross-boundary index update (branch roots in parallel).
        with Timer() as timer:
            affected: Set[int] = set(overlay_changed.keys())
            for changed_report in partition_changed.values():
                affected |= set(changed_report.keys())
            _, per_root_times = timed_label_update_by_root(self.cross_labels, affected)
        self._emit_stage(report,
            StageTiming("cross_boundary_update", timer.seconds, parallel_times=per_root_times)
        )

        self.last_report = report
        return report

    def _overlay_shortcut_update(
        self, inter_updates: List, changed_boundary: Dict[Tuple[int, int], float]
    ) -> Dict[int, List[int]]:
        """Install overlay edge changes and maintain the overlay shortcut arrays."""
        overlay = self.overlay
        changed_edges: List[Tuple[int, int]] = []
        for update in inter_updates:
            if overlay.graph.has_edge(update.u, update.v):
                overlay.graph.set_edge_weight(update.u, update.v, update.new_weight)
                changed_edges.append(update.key())
        for (b1, b2), weight in changed_boundary.items():
            if overlay.graph.has_edge(b1, b2):
                if overlay.graph.edge_weight(b1, b2) != weight:
                    overlay.graph.set_edge_weight(b1, b2, weight)
                    changed_edges.append((b1, b2) if b1 < b2 else (b2, b1))
            else:
                overlay.graph.add_edge(b1, b2, weight)
                changed_edges.append((b1, b2) if b1 < b2 else (b2, b1))
        from repro.treedec.mde import update_shortcuts_bottom_up

        return update_shortcuts_bottom_up(overlay.contraction, overlay.graph, changed_edges)

    def _post_boundary_update(self, per_partition: Dict[int, List]) -> List[float]:
        """U-Stage 4: refresh extended partitions whose boundary distances or edges changed."""
        partitioning = self.partitioning
        times: List[float] = []
        for pid in range(partitioning.num_partitions):
            start = time.perf_counter()
            boundary = partitioning.boundary(pid)
            new_distances = self.overlay.boundary_pair_distances(pid)
            changed_pairs = {
                pair: weight
                for pair, weight in new_distances.items()
                if pair[0] < pair[1]
                and weight < INF
                and self.boundary_distances[pid].get(pair) != weight
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
    # Introspection and throughput metadata
    # ------------------------------------------------------------------
    def vertex_partition(self, v: int) -> Optional[int]:
        if self.partitioning is None:
            return None
        return self.partitioning.partition_of(v)

    def index_size(self) -> int:
        self._require_built()
        return (
            self.family.index_size()
            + self.overlay.index_size()
            + self.extended_family.index_size()
            + self.cross_labels.label_entry_count()
        )

    # ------------------------------------------------------------------
    # Snapshot persistence (see repro.store)
    # ------------------------------------------------------------------
    def to_state(self, io) -> Dict[str, object]:
        """All five stages' structures; the cross-boundary contraction is not
        stored — it is recomposed on load so its shortcut dicts keep sharing
        the family/overlay dictionaries by reference (the property U-Stage 5
        maintenance relies on)."""
        from repro.store import codec

        self._require_built()
        return {
            "partitioning": codec.pack_partitioning(self.partitioning, io),
            "order": io.put_ints(self.order),
            "family": codec.pack_family(self.family, io),
            "overlay": codec.pack_overlay(self.overlay, io),
            "extended_family": codec.pack_family(self.extended_family, io),
            "boundary_distances": [
                codec.pack_pair_table(table, io) for table in self.boundary_distances
            ],
            "cross_labels": codec.pack_labels(self.cross_labels, io),
            "build_breakdown": dict(self.build_breakdown),
        }

    def from_state(self, state: Dict[str, object], io) -> None:
        from repro.core.cross_boundary import compose_cross_boundary_contraction
        from repro.store import codec

        self.partitioning = codec.unpack_partitioning(
            state["partitioning"], io, self.graph
        )
        self.order = io.get_list(state["order"])
        self.family = codec.unpack_family(
            state["family"], io, self.partitioning, self.order
        )
        self.overlay = codec.unpack_overlay(
            state["overlay"], io, self.partitioning, self.family, self.order
        )
        self.extended_family = codec.unpack_family(
            state["extended_family"], io, self.partitioning, self.order
        )
        self.boundary_distances = [
            codec.unpack_pair_table(table, io) for table in state["boundary_distances"]
        ]
        composed = compose_cross_boundary_contraction(
            self.partitioning, self.order, self.family, self.overlay
        )
        self.cross_tree = TreeDecomposition.from_contraction(composed, allow_forest=True)
        self.cross_labels = codec.unpack_labels(state["cross_labels"], io, self.cross_tree)
        self.build_breakdown = dict(state.get("build_breakdown", {}))

    def _kernel_exports(self):
        return {"cross_labels": self._cross_store}

    def stage_catalog(self) -> List[Dict[str, object]]:
        """Query stages in release order, with the update stage that releases each."""
        return [
            {
                "query_stage": PMHLQueryStage.BIDIJKSTRA,
                "released_after": "edge_update",
                "query": self.query_bidijkstra,
            },
            {
                "query_stage": PMHLQueryStage.PCH,
                "released_after": "overlay_shortcut_update",
                "query": self.query_pch,
            },
            {
                "query_stage": PMHLQueryStage.NO_BOUNDARY,
                "released_after": "overlay_label_update",
                "query": self.query_no_boundary,
            },
            {
                "query_stage": PMHLQueryStage.POST_BOUNDARY,
                "released_after": "post_boundary_update",
                "query": self.query_post_boundary,
            },
            {
                "query_stage": PMHLQueryStage.CROSS_BOUNDARY,
                "released_after": "cross_boundary_update",
                "query": self.query_cross_boundary,
            },
        ]


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
