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
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.base import DistanceIndex, QueryStage, StageTiming, Timer, UpdateReport
from repro.exceptions import IndexNotBuiltError
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
from repro.hierarchy.ch import ch_bidirectional_query
from repro.kernels.arena import Arena
from repro.kernels.label_store import LabelStore
from repro.labeling.h2h import H2HLabels
from repro.partitioning.td_partition import TDPartitioning, td_partition
from repro.registry import IndexSpec, register_spec
from repro.treedec.slots import SlotContraction
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
        self.contraction: Optional[SlotContraction] = None
        self.tree: Optional[TreeDecomposition] = None
        self.td: Optional[TDPartitioning] = None
        self.labels: Optional[H2HLabels] = None
        #: ``disB[v][j]`` — global distance from in-partition vertex ``v`` to
        #: the ``j``-th boundary vertex of its partition.
        self.disB: Dict[int, List[float]] = {}
        #: Per-partition boundary vertex index (vertex -> position in ``B_i``).
        self.boundary_position: List[Dict[int, int]] = []
        #: Per-partition all-pair boundary distance tables ``D``, rows and
        #: columns in ``td.boundary[pid]`` order.
        self.boundary_distances: List[np.ndarray] = []
        self.build_breakdown: Dict[str, float] = {}
        #: Each contraction row's partition, ``-1`` for an overlay row, and
        #: the int8 row mask of each partition (key ``-1``: the overlay),
        #: derived on the first update.
        self._row_partition: Optional[np.ndarray] = None
        self._row_masks: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Construction (Section VI-B, Algorithm 4)
    # ------------------------------------------------------------------
    def _build(self) -> None:
        breakdown: Dict[str, float] = {}

        start = time.perf_counter()
        self._row_partition, self._row_masks = None, {}
        self.contraction = SlotContraction.build(self.graph)
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
        self.boundary_distances = self._boundary_tables()
        for pid, boundary in enumerate(self.td.boundary):
            self.boundary_position.append({b: j for j, b in enumerate(boundary)})
            columns = self.tree.depth[self.tree.rows(boundary)]
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
        return self._kernel("labels", lambda: LabelStore.freeze(self.labels))

    def _pch_store(self):
        """The contraction's arena, as U-Stage 2 left it."""
        self._require_built()
        return self._kernel("pch", self.contraction.store)

    # ------------------------------------------------------------------
    # Query processing (Q-Stages 1-4; Q-Stage 1 is the base class's
    # ``query_bidijkstra``)
    # ------------------------------------------------------------------
    def query_pch(self, source: int, target: int) -> float:
        """Q-Stage 2: partitioned CH query over the shared shortcut arrays."""
        return self._stage_query(
            self._pch_store(), source, target,
            ch_bidirectional_query, self.contraction.upward,
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
        """Same-partition query over the LCA separator using post-boundary
        data only.  ``X(lca).pos`` is the column (depth) of each vertex of
        ``X(lca).N``, in slot order, then the LCA's own."""
        tree = self.tree
        lca = tree.lca(source, target)
        columns = self.labels.pos(lca).tolist()
        overlay = self.td.overlay_vertices
        position = self.boundary_position[pid]
        dis_s, dis_t = self.labels.dis(source).tolist(), self.labels.dis(target).tolist()
        best = dis_s[columns[-1]] + dis_t[columns[-1]]
        for x, column in zip(tree.neighbors(lca), columns):
            if x in overlay:
                j = position[x]
                candidate = self.disB[source][j] + self.disB[target][j]
            else:
                candidate = dis_s[column] + dis_t[column]
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
        td = self.td
        # Before any structure mutates (kernel staleness protocol).
        self.invalidate_kernels()

        # U-Stage 1: on-spot edge update, of the graph and of the
        # contraction's graph weights.
        contraction = self.contraction
        with Timer() as timer:
            self._refresh_edges(batch)
            updates = list(batch)
            rows = contraction.patch(
                [u.u for u in updates], [u.v for u in updates], [u.new_weight for u in updates]
            )
        self._emit_stage(report, StageTiming("edge_update", timer.seconds))

        # U-Stage 2: shortcut array update (partitions in parallel, then
        # overlay).  Each pass starts from the owner rows of its own
        # partition, confined to that partition's rows, and the rows it would
        # have dirtied outside them seed the overlay pass.
        owners = self._row_partitions()[rows]
        escaped = np.zeros(contraction.num_vertices, dtype=np.int8)
        partition_times: List[float] = []
        partition_changed: Dict[int, np.ndarray] = {}
        for pid in np.unique(owners[owners >= 0]).tolist():
            start = time.perf_counter()
            partition_changed[pid] = contraction.run(
                rows[owners == pid], self._row_mask(pid), escaped
            )
            partition_times.append(time.perf_counter() - start)
        self._emit_stage(report,
            StageTiming(
                "partition_shortcut_update", sum(partition_times), parallel_times=partition_times
            )
        )

        with Timer() as timer:
            overlay_changed = contraction.run(
                np.concatenate([rows[owners < 0], np.flatnonzero(escaped)]), self._row_mask(-1)
            )
        self._emit_stage(report, StageTiming("overlay_shortcut_update", timer.seconds))

        # U-Stage 3: overlay index (label) update.
        with Timer() as timer:
            overlay_changed_labels = self.labels.update_top_down(
                contraction.vertices(overlay_changed), allowed=td.overlay_vertices
            )
        self._emit_stage(report, StageTiming("overlay_label_update", timer.seconds))

        # Decide which partitions the parallel stages must touch.
        # A partition's boundary table is read from the overlay labels as
        # U-Stage 3 left them.
        affected_post: List[int] = []
        affected_cross: List[int] = []
        # A changed overlay label is a proper ancestor of a partition's root
        # when the root's preorder number falls strictly inside its subtree.
        pre, size, _ = self.tree.intervals
        changed = self.tree.rows(list(overlay_changed_labels))
        starts, ends = pre[changed], pre[changed] + size[changed]
        for pid, distances in enumerate(self._boundary_tables()):
            has_local_changes = len(partition_changed.get(pid, ())) > 0
            boundary_changed = not np.array_equal(distances, self.boundary_distances[pid])
            self.boundary_distances[pid] = distances
            if has_local_changes or boundary_changed:
                affected_post.append(pid)
            at = pre[self.tree.row[td.roots[pid]]]
            ancestors_changed = bool(((starts < at) & (at < ends)).any())
            if has_local_changes or ancestors_changed:
                affected_cross.append(pid)

        # U-Stage 4: post-boundary index update (partitions in parallel).
        post_times: List[float] = []
        for pid in affected_post:
            start = time.perf_counter()
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

        return report

    def _boundary_tables(self) -> List[np.ndarray]:
        """Every partition's boundary distance matrix from the overlay labels
        as they stand."""
        return [self.labels.distance_matrix(boundary) for boundary in self.td.boundary]

    def _update_post_boundary_partition(self, pid: int) -> None:
        """Recompute the boundary arrays and in-partition label entries of one partition.

        Mirrors Algorithm 4: a top-down pass over the partition subtree where
        overlay neighbours are resolved through the boundary distance table /
        boundary arrays instead of through (possibly stale) cross-boundary
        label entries.  Rows are read as lists and their in-partition columns
        ``[root_depth, depth]`` written back as each vertex finishes.  The
        walk is a preorder, so the in-partition part of ``X(v).A`` is carried
        down it: ``path[j - root_depth]`` is ``v``'s ancestor at depth ``j``.
        """
        tree = self.tree
        td = self.td
        boundary = td.boundary[pid]
        position = self.boundary_position[pid]
        distances = self.boundary_distances[pid].tolist()
        overlay = td.overlay_vertices
        root = td.roots[pid]
        labels = self.labels
        depth, row_of = tree.depth.tolist(), tree.row
        root_depth = depth[row_of[root]]
        upward = self.contraction.upward
        rows: Dict[int, List[float]] = {}
        path: List[int] = []

        for v in tree.subtree(root):
            neighbors = tree.neighbors(v)
            columns = [depth[row_of[x]] for x in neighbors]
            depth_v = depth[row_of[v]]
            del path[depth_v - root_depth :]
            path.append(v)
            sc = upward(v)
            # Boundary array X(v).disB.
            new_disB = []
            for j in range(len(boundary)):
                best = INF
                for x in neighbors:
                    if x in overlay:
                        d = distances[position[x]][j]
                    else:
                        d = self.disB[x][j]
                    candidate = sc[x] + d
                    if candidate < best:
                        best = candidate
                new_disB.append(best)
            self.disB[v] = new_disB

            # In-partition distance-array entries (depth >= root_depth).
            dis_v = rows[v] = labels.dis(v).tolist()
            for j in range(root_depth, depth_v):
                ancestor = path[j - root_depth]
                best = INF
                for x, px in zip(neighbors, columns):
                    if x in overlay:
                        d = self.disB[ancestor][position[x]]
                    elif px > j:
                        d = rows[x][j]
                    else:
                        d = rows[ancestor][px]
                    candidate = sc[x] + d
                    if candidate < best:
                        best = candidate
                dis_v[j] = best
            dis_v[depth_v] = 0.0
            labels.write(v, root_depth, dis_v[root_depth:])

    def _update_cross_boundary_partition(self, pid: int) -> None:
        """Recompute the overlay-ancestor label entries of one partition: the
        label pass over every row of its subtree, columns ``[0, root_depth)``."""
        root_depth = int(self.labels.pos(self.td.roots[pid])[-1])
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
            "slots": self.contraction.to_state(io),
            "labels": codec.pack_labels(self.labels, io),
            "td_roots": io.put_ints(self.td.roots),
            "disB_verts": io.put_ints(disB_verts),
            "disB_indptr": io.put_ints(disB_indptr),
            "disB_data": io.put_floats(disB_data),
            "build_breakdown": dict(self.build_breakdown),
        }

    def from_state(self, state: Dict[str, object], io) -> None:
        self._row_partition, self._row_masks = None, {}
        self.contraction = SlotContraction.from_state(state["slots"], io)
        self.labels = H2HLabels.over(self.contraction, Arena.from_state(state["labels"], io))
        self.tree = self.labels.tree
        self.td = TDPartitioning.from_roots(self.tree, io.get_list(state["td_roots"]))
        self.boundary_position = [
            {b: j for j, b in enumerate(boundary)} for boundary in self.td.boundary
        ]
        verts = io.get_list(state["disB_verts"])
        indptr = io.get_list(state["disB_indptr"])
        data = io.get_list(state["disB_data"])
        self.disB = {
            v: data[indptr[i] : indptr[i + 1]] for i, v in enumerate(verts)
        }
        self.boundary_distances = self._boundary_tables()
        self.build_breakdown = dict(state.get("build_breakdown", {}))

    def _kernel_exports(self):
        return {"labels": self._label_store}

    def _label_sets(self):
        return () if self.labels is None else (self.labels,)

    def _contractions(self):
        return () if self.contraction is None else (self.contraction,)

    def _row_partitions(self) -> np.ndarray:
        """Each contraction row's partition (``-1``: an overlay row)."""
        if self._row_partition is None:
            partition_of = self.td.partition_of
            self._row_partition = np.fromiter(
                (-1 if (pid := partition_of(v)) is None else pid for v in self.contraction.order),
                np.int64, self.contraction.num_vertices,
            )
        return self._row_partition

    def _row_mask(self, pid: int) -> np.ndarray:
        """The int8 row mask of partition ``pid`` (``-1``: the overlay)."""
        mask = self._row_masks.get(pid)
        if mask is None:
            mask = self._row_masks[pid] = (self._row_partitions() == pid).astype(np.int8)
        return mask

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
