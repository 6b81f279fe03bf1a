"""Post-partitioned Multi-stage Hub Labeling (PostMHL, Section VI of the paper).

PostMHL turns the PSP design around: it first computes an MDE-based tree
decomposition of the whole road network (which yields a high-quality vertex
order), then derives the partitions *from the tree* via TD-partitioning
(Algorithm 2) and amalgamates the overlay, post-boundary and cross-boundary
indexes into that single tree:

* **overlay index** — distance arrays of the overlay vertices (the vertices
  outside every partition subtree),
* **post-boundary index** — for in-partition vertices, the distance-array
  entries to in-partition ancestors plus a boundary array ``X(v).disB`` with
  the global distances to the partition boundary ``B_i = X(root_i).N``,
* **cross-boundary index** — the distance-array entries of in-partition
  vertices to their overlay ancestors.

Because the cross-boundary part equals a plain H2H index over the MDE order,
PostMHL's fastest query stage matches DH2H query efficiency, while maintenance
parallelises over partitions (U-Stages 2, 4, 5) as in the paper's Figure 9.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.base import DistanceIndex, QueryStage, StageTiming, Timer, UpdateReport
from repro.exceptions import IndexNotBuiltError
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
from repro.hierarchy.ch import ch_bidirectional_query
from repro.kernels.label_store import LabelStore
from repro.labeling.h2h import H2HLabels
from repro.partitioning.td_partition import TDPartitioning, td_partition
from repro.registry import IndexSpec, register_spec
from repro.treedec.mde import ContractionResult, contract_graph, update_shortcuts_bottom_up
from repro.treedec.tree import TreeDecomposition

INF = math.inf


class PostMHLIndex(DistanceIndex):
    """Post-partitioned Multi-stage Hub Labeling index.

    Parameters
    ----------
    graph:
        The road network (mutated in place by updates).
    bandwidth:
        ``τ`` — maximum boundary size allowed for a partition root.
    expected_partitions:
        ``k_e`` — desired partition count for TD-partitioning.
    beta_lower, beta_upper:
        Partition-size imbalance bounds (the paper uses 0.1 and 2).
    """

    name = "PostMHL"
    final_stage_is_label_lookup = True

    def __init__(
        self,
        graph: Graph,
        bandwidth: int = 12,
        expected_partitions: int = 8,
        beta_lower: float = 0.1,
        beta_upper: float = 2.0,
    ):
        super().__init__(graph)
        self.bandwidth = bandwidth
        self.expected_partitions = expected_partitions
        self.beta_lower = beta_lower
        self.beta_upper = beta_upper
        self.contraction: Optional[ContractionResult] = None
        self.tree: Optional[TreeDecomposition] = None
        self.td: Optional[TDPartitioning] = None
        self.labels: Optional[H2HLabels] = None
        #: ``disB[v][j]`` — global distance from in-partition vertex ``v`` to
        #: the ``j``-th boundary vertex of its partition.
        self.disB: Dict[int, List[float]] = {}
        #: Per-partition boundary vertex index (vertex -> position in ``B_i``).
        self.boundary_position: List[Dict[int, int]] = []
        #: Per-partition all-pair boundary distance tables ``D``.
        self.boundary_distances: List[Dict[Tuple[int, int], float]] = []
        self.build_breakdown: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Construction (Section VI-B, Algorithm 4)
    # ------------------------------------------------------------------
    def _build(self) -> None:
        breakdown: Dict[str, float] = {}

        start = time.perf_counter()
        self.contraction = contract_graph(self.graph)
        self.tree = TreeDecomposition.from_contraction(self.contraction)
        breakdown["tree_decomposition"] = time.perf_counter() - start
        obs.record_span(
            "postmhl.build.tree_decomposition", breakdown["tree_decomposition"]
        )

        start = time.perf_counter()
        self.td = td_partition(
            self.tree,
            bandwidth=self.bandwidth,
            expected_partitions=self.expected_partitions,
            beta_lower=self.beta_lower,
            beta_upper=self.beta_upper,
        )
        breakdown["td_partitioning"] = time.perf_counter() - start
        obs.record_span("postmhl.build.td_partitioning", breakdown["td_partitioning"])

        start = time.perf_counter()
        self.labels = H2HLabels(self.tree)
        self.labels.build()
        breakdown["labels"] = time.perf_counter() - start
        obs.record_span("postmhl.build.labels", breakdown["labels"])

        start = time.perf_counter()
        self._build_boundary_arrays()
        breakdown["boundary_arrays"] = time.perf_counter() - start
        obs.record_span("postmhl.build.boundary_arrays", breakdown["boundary_arrays"])
        self.build_breakdown = breakdown

    def _build_boundary_arrays(self) -> None:
        """Materialise ``disB`` and the per-partition boundary distance tables."""
        self.disB = {}
        self.boundary_position = []
        self.boundary_distances = []
        depth = self.tree.depth
        for pid, boundary in enumerate(self.td.boundary):
            self.boundary_position.append({b: j for j, b in enumerate(boundary)})
            self.boundary_distances.append(self.labels.pair_distances(boundary))
            columns = [depth[b] for b in boundary]
            for v in self.td.partition_vertices[pid]:
                self.disB[v] = self.labels.dis(v)[columns].tolist()

    def _require_built(self) -> None:
        if self.labels is None:
            raise IndexNotBuiltError("PostMHL index has not been built")

    # ------------------------------------------------------------------
    # Frozen stores (see repro.kernels)
    #
    # The amalgamated label store is only frozen for the *fastest* stage
    # (released after U-Stage 5, when every ``dis`` entry is final); the
    # post-boundary stage keeps the pure path because mid-batch its overlay
    # label reads would otherwise share a store with stale in-partition
    # entries.
    # ------------------------------------------------------------------
    def _label_store(self):
        self._require_built()
        return self._kernel("labels", lambda _: LabelStore.freeze(self.labels))

    def _pch_store(self):
        self._require_built()
        return self._contraction_store("pch", self.contraction)

    # ------------------------------------------------------------------
    # Query processing (Q-Stages 1-4; Q-Stage 1 is the base class's
    # ``query_bidijkstra``)
    # ------------------------------------------------------------------
    def query_pch(self, source: int, target: int) -> float:
        """Q-Stage 2: partitioned CH query over the shared shortcut arrays."""
        return self._stage_query(
            self._pch_store(), source, target,
            ch_bidirectional_query, self.contraction.shortcuts.__getitem__,
        )

    def query_post_boundary(self, source: int, target: int) -> float:
        """Q-Stage 3: post-boundary query (boundary arrays + overlay labels)."""
        self._require_built()
        self._check_endpoints(source, target)
        if source == target:
            return 0.0
        pid_s = self.td.partition_of(source)
        pid_t = self.td.partition_of(target)

        if pid_s is None and pid_t is None:
            return self.labels.query(source, target)
        if pid_s is not None and pid_s == pid_t:
            return self._same_partition_post_query(pid_s, source, target)
        if pid_s is None:
            return self._overlay_to_partition_query(source, pid_t, target)
        if pid_t is None:
            return self._overlay_to_partition_query(target, pid_s, source)
        return self._cross_partition_post_query(pid_s, source, pid_t, target)

    def query_cross_boundary(self, source: int, target: int) -> float:
        """Q-Stage 4: full H2H query on the amalgamated tree (fastest), the
        final stage."""
        return self.query(source, target)

    # The final stage: the amalgamated label store, or the labels
    # themselves (the pure one-to-many fetches the source's distance array
    # once; the 2-hop arithmetic is the scalar path's either way).
    def _final_store(self):
        return self._label_store()

    def _reference_query(self, source: int, target: int) -> float:
        return self.labels.query(source, target)

    def _reference_one_to_many(self, source: int, targets: List[int]) -> List[float]:
        return self.labels.query_one_to_many(source, targets)

    def _same_partition_post_query(self, pid: int, source: int, target: int) -> float:
        """Same-partition query over the LCA separator using post-boundary data only."""
        tree = self.tree
        lca = tree.lca(source, target)
        depth = tree.depth
        overlay = self.td.overlay_vertices
        position = self.boundary_position[pid]
        dis_s, dis_t = self.labels.dis(source).tolist(), self.labels.dis(target).tolist()
        best = dis_s[depth[lca]] + dis_t[depth[lca]]
        for x in tree.neighbors(lca):
            if x in overlay:
                j = position[x]
                candidate = self.disB[source][j] + self.disB[target][j]
            else:
                candidate = dis_s[depth[x]] + dis_t[depth[x]]
            if candidate < best:
                best = candidate
        return best

    def _overlay_to_partition_query(self, overlay_vertex: int, pid: int, inner: int) -> float:
        """Query between an overlay vertex and an in-partition vertex."""
        best = INF
        for j, b in enumerate(self.td.boundary[pid]):
            candidate = self.labels.query(overlay_vertex, b) + self.disB[inner][j]
            if candidate < best:
                best = candidate
        return best

    def _cross_partition_post_query(
        self, pid_s: int, source: int, pid_t: int, target: int
    ) -> float:
        """Cross-partition query concatenating boundary arrays through the overlay."""
        best = INF
        boundary_s = self.td.boundary[pid_s]
        boundary_t = self.td.boundary[pid_t]
        dis_b_s = self.disB[source]
        dis_b_t = self.disB[target]
        for i, bp in enumerate(boundary_s):
            d_s = dis_b_s[i]
            if d_s == INF:
                continue
            for j, bq in enumerate(boundary_t):
                d_t = dis_b_t[j]
                if d_t == INF:
                    continue
                candidate = d_s + self.labels.query(bp, bq) + d_t
                if candidate < best:
                    best = candidate
        return best

    # ------------------------------------------------------------------
    # Maintenance (U-Stages 1-5, Section VI-C)
    # ------------------------------------------------------------------
    def _apply_batch(self, batch: UpdateBatch) -> UpdateReport:
        self._require_built()
        report = UpdateReport()
        tree = self.tree
        td = self.td
        # Before any structure mutates (kernel staleness protocol).
        self.invalidate_kernels()

        # U-Stage 1: on-spot edge update.
        with Timer() as timer:
            batch.apply(self.graph)
        self._emit_stage(report, StageTiming("edge_update", timer.seconds))

        # Group the changed edges by the partition of their owning vertex.
        per_partition_edges: Dict[int, List[Tuple[int, int]]] = {}
        overlay_edges: List[Tuple[int, int]] = []
        for update in batch:
            owner = self.contraction.owner(update.u, update.v)
            pid = td.partition_of(owner)
            if pid is None:
                overlay_edges.append(update.key())
            else:
                per_partition_edges.setdefault(pid, []).append(update.key())

        # U-Stage 2: shortcut array update (partitions in parallel, then overlay).
        partition_times: List[float] = []
        partition_changed: Dict[int, Dict[int, List[int]]] = {}
        escaped: Set[int] = set()
        for pid, edges in sorted(per_partition_edges.items()):
            start = time.perf_counter()
            partition_set = set(td.partition_vertices[pid])
            changed = update_shortcuts_bottom_up(
                self.contraction,
                self.graph,
                edges,
                restrict_to=partition_set,
                escaped_out=escaped,
            )
            partition_changed[pid] = changed
            partition_times.append(time.perf_counter() - start)
        self._emit_stage(report,
            StageTiming(
                "partition_shortcut_update", sum(partition_times), parallel_times=partition_times
            )
        )

        with Timer() as timer:
            overlay_changed_shortcuts = update_shortcuts_bottom_up(
                self.contraction,
                self.graph,
                overlay_edges,
                restrict_to=td.overlay_vertices,
                seed_vertices=sorted(escaped),
            )
        self._emit_stage(report, StageTiming("overlay_shortcut_update", timer.seconds))

        # U-Stage 3: overlay index (label) update.
        with Timer() as timer:
            overlay_changed_labels = self.labels.update_top_down(
                overlay_changed_shortcuts.keys(), allowed=td.overlay_vertices
            )
        self._emit_stage(report, StageTiming("overlay_label_update", timer.seconds))

        # Decide which partitions the parallel stages must touch.
        affected_post: List[int] = []
        affected_cross: List[int] = []
        new_boundary_distances: Dict[int, Dict[Tuple[int, int], float]] = {}
        for pid in range(td.num_partitions):
            has_local_changes = bool(partition_changed.get(pid))
            distances = self._compute_boundary_distances(pid)
            new_boundary_distances[pid] = distances
            boundary_changed = distances != self.boundary_distances[pid]
            if has_local_changes or boundary_changed:
                affected_post.append(pid)
            ancestors_changed = any(
                a in overlay_changed_labels for a in tree.ancestors[td.roots[pid]][:-1]
            )
            if has_local_changes or ancestors_changed:
                affected_cross.append(pid)

        # U-Stage 4: post-boundary index update (partitions in parallel).
        post_times: List[float] = []
        for pid in affected_post:
            start = time.perf_counter()
            self.boundary_distances[pid] = new_boundary_distances[pid]
            self._update_post_boundary_partition(pid)
            post_times.append(time.perf_counter() - start)
        self._emit_stage(report,
            StageTiming("post_boundary_update", sum(post_times), parallel_times=post_times)
        )

        # U-Stage 5: cross-boundary index update (partitions in parallel).
        cross_times: List[float] = []
        for pid in affected_cross:
            start = time.perf_counter()
            self._update_cross_boundary_partition(pid)
            cross_times.append(time.perf_counter() - start)
        self._emit_stage(report,
            StageTiming("cross_boundary_update", sum(cross_times), parallel_times=cross_times)
        )

        self.last_report = report
        return report

    def _compute_boundary_distances(self, pid: int) -> Dict[Tuple[int, int], float]:
        """All-pair boundary distances of partition ``pid`` from the overlay
        labels as they stand after U-Stage 3 (one ``query_pairs`` call)."""
        return self.labels.pair_distances(self.td.boundary[pid])

    def _update_post_boundary_partition(self, pid: int) -> None:
        """Recompute the boundary arrays and in-partition label entries of one partition.

        Mirrors Algorithm 4: a top-down pass over the partition subtree where
        overlay neighbours are resolved through the boundary distance table /
        boundary arrays instead of through (possibly stale) cross-boundary
        label entries.  Rows are read as lists and their in-partition columns
        ``[root_depth, depth]`` written back as each vertex finishes.
        """
        tree = self.tree
        td = self.td
        depth = tree.depth
        boundary = td.boundary[pid]
        position = self.boundary_position[pid]
        distances = self.boundary_distances[pid]
        overlay = td.overlay_vertices
        root = td.roots[pid]
        root_depth = depth[root]
        shortcuts = self.contraction.shortcuts
        labels = self.labels
        rows: Dict[int, List[float]] = {}

        for v in tree.subtree(root):
            neighbors = tree.neighbors(v)
            sc = shortcuts[v]
            # Boundary array X(v).disB.
            new_disB = []
            for j, b in enumerate(boundary):
                best = INF
                for x in neighbors:
                    if x in overlay:
                        d = 0.0 if x == b else distances.get((x, b), INF)
                    else:
                        d = self.disB[x][j]
                    candidate = sc[x] + d
                    if candidate < best:
                        best = candidate
                if v == b:  # pragma: no cover - boundary vertices are overlay, not in-partition
                    best = 0.0
                new_disB.append(best)
            self.disB[v] = new_disB

            # In-partition distance-array entries (depth >= root_depth).
            anc = tree.ancestors[v]
            dis_v = rows[v] = labels.dis(v).tolist()
            for j in range(root_depth, len(anc) - 1):
                ancestor = anc[j]
                best = INF
                for x in neighbors:
                    if x in overlay:
                        d = self.disB[ancestor][position[x]]
                    elif depth[x] > j:
                        d = rows[x][j]
                    else:
                        d = rows[ancestor][depth[x]]
                    candidate = sc[x] + d
                    if candidate < best:
                        best = candidate
                dis_v[j] = best
            dis_v[len(anc) - 1] = 0.0
            labels.write(v, root_depth, dis_v[root_depth:])

    def _update_cross_boundary_partition(self, pid: int) -> None:
        """Recompute the overlay-ancestor label entries of one partition: the
        label pass over every row of its subtree, columns ``[0, root_depth)``."""
        root_depth = self.tree.depth[self.td.roots[pid]]
        self.labels.update_top_down(
            self.td.partition_vertices[pid], columns=(0, root_depth)
        )

    # ------------------------------------------------------------------
    # Introspection and throughput metadata
    # ------------------------------------------------------------------
    def index_size(self) -> int:
        self._require_built()
        boundary_entries = sum(len(values) for values in self.disB.values())
        return (
            self.labels.label_entry_count()
            + self.contraction.shortcut_count()
            + boundary_entries
        )

    # ------------------------------------------------------------------
    # Snapshot persistence (see repro.store)
    # ------------------------------------------------------------------
    def to_state(self, io) -> Dict[str, object]:
        """Contraction, amalgamated labels, TD roots and boundary arrays.

        Only the TD-partitioning's root list is stored: the subtree members,
        boundaries and overlay set are fully determined by the roots and the
        tree, which :meth:`TDPartitioning.from_roots` rebuilds on load.
        """
        from repro.store import codec

        self._require_built()
        disB_verts = list(self.disB)
        disB_indptr = [0]
        disB_data: List[float] = []
        for v in disB_verts:
            disB_data.extend(self.disB[v])
            disB_indptr.append(len(disB_data))
        return {
            "contraction": codec.pack_contraction(self.contraction, io),
            "labels": codec.pack_labels(self.labels, io),
            "td_roots": io.put_ints(self.td.roots),
            "disB_verts": io.put_ints(disB_verts),
            "disB_indptr": io.put_ints(disB_indptr),
            "disB_data": io.put_floats(disB_data),
            "boundary_distances": [
                codec.pack_pair_table(table, io) for table in self.boundary_distances
            ],
            "build_breakdown": dict(self.build_breakdown),
        }

    def from_state(self, state: Dict[str, object], io) -> None:
        from repro.store import codec

        self.contraction = codec.unpack_contraction(state["contraction"], io)
        self.tree = TreeDecomposition.from_contraction(self.contraction)
        self.td = TDPartitioning.from_roots(self.tree, io.get_list(state["td_roots"]))
        self.labels = codec.unpack_labels(state["labels"], io, self.tree)
        self.boundary_position = [
            {b: j for j, b in enumerate(boundary)} for boundary in self.td.boundary
        ]
        verts = io.get_list(state["disB_verts"])
        indptr = io.get_list(state["disB_indptr"])
        data = io.get_list(state["disB_data"])
        self.disB = {
            v: data[indptr[i] : indptr[i + 1]] for i, v in enumerate(verts)
        }
        self.boundary_distances = [
            codec.unpack_pair_table(table, io) for table in state["boundary_distances"]
        ]
        self.build_breakdown = dict(state.get("build_breakdown", {}))

    def _kernel_exports(self):
        return {"labels": self._label_store}

    def _label_sets(self):
        return () if self.labels is None else (self.labels,)

    @property
    def overlay_vertex_count(self) -> int:
        """Number of overlay vertices (reported in the paper's Figure 18)."""
        self._require_built()
        return len(self.td.overlay_vertices)

    def stage_catalog(self) -> Tuple[QueryStage, ...]:
        """Q-Stages 1-4 in release order, each released by its U-Stage (Figure 9)."""
        return (
            QueryStage("BIDIJKSTRA", "edge_update", self.query_bidijkstra),
            QueryStage("PCH", "overlay_shortcut_update", self.query_pch),
            QueryStage("POST_BOUNDARY", "post_boundary_update", self.query_post_boundary),
            QueryStage("CROSS_BOUNDARY", "cross_boundary_update", self.query_cross_boundary),
        )


@register_spec
@dataclass(frozen=True)
class PostMHLSpec(IndexSpec):
    """Construction spec for the Post-partitioned Multi-stage Hub Labeling index."""

    method = "PostMHL"
    config_fields = {"bandwidth": "bandwidth", "expected_partitions": "expected_partitions"}

    #: ``τ`` — maximum boundary size allowed for a partition root.
    bandwidth: int = 12
    #: ``k_e`` — desired partition count for TD-partitioning.
    expected_partitions: int = 8
    #: Partition-size imbalance bounds (the paper uses 0.1 and 2).
    beta_lower: float = 0.1
    beta_upper: float = 2.0

    def create(self, graph: Graph) -> PostMHLIndex:
        return PostMHLIndex(
            graph,
            bandwidth=self.bandwidth,
            expected_partitions=self.expected_partitions,
            beta_lower=self.beta_lower,
            beta_upper=self.beta_upper,
        )
