"""Multi-stage Hierarchical 2-hop Labeling (MHL).

Section V-A of the paper observes (Lemma 4) that DH2H's vertex contraction
produces exactly the shortcuts DCH needs when both use the same MDE order, so
the CH index can be embedded into the H2H tree by storing a shortcut array
``X(v).sc`` per node.  MHL is that extended H2H: during maintenance, the
moment the shortcut phase finishes a CH-style query can already be answered,
and while even the shortcuts are stale an index-free BiDijkstra is used.  This
"use the fastest currently-correct index" idea is the *multi-stage scheme*.

``MHLIndex`` therefore exposes three query paths of increasing speed:

* stage 1 — BiDijkstra on the live graph (always correct),
* stage 2 — CH query on the shortcut arrays (correct after shortcut update),
* stage 3 — H2H query on the distance labels (correct after label update),

plus an :meth:`apply_batch` whose stage report lets the throughput simulator
know when each query stage becomes available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.base import QueryStage, StageTiming, Timer, UpdateReport
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
from repro.hierarchy.ch import ch_bidirectional_query
from repro.labeling.h2h import DH2HIndex
from repro.registry import IndexSpec, register_spec
from repro.treedec.mde import update_shortcuts_bottom_up


class MHLIndex(DH2HIndex):
    """Multi-stage Hub Labeling: DH2H extended with CH-stage query processing."""

    name = "MHL"

    # ------------------------------------------------------------------
    # Stage-specific query processing
    # ------------------------------------------------------------------
    def _ch_store(self):
        """Frozen stage-2 shortcut adjacency of this epoch (``None`` = pure path)."""
        self._require_built()
        return self._contraction_store("ch", self.contraction)

    def query_ch(self, source: int, target: int) -> float:
        """Stage-2 query: CH search over the shortcut arrays ``X(v).sc``."""
        return self._stage_query(
            self._ch_store(), source, target,
            ch_bidirectional_query, self.contraction.shortcuts.__getitem__,
        )

    def query_h2h(self, source: int, target: int) -> float:
        """Stage-3 query: H2H label lookup (fastest), the final stage."""
        return self.query(source, target)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _apply_batch(self, batch: UpdateBatch) -> UpdateReport:
        """Three-stage maintenance mirroring U-Stages of the multi-stage scheme.

        Stage names map to the query stage that becomes available when the
        stage completes: after ``edge_update`` BiDijkstra is correct, after
        ``shortcut_update`` the CH query is correct, after ``label_update`` the
        H2H query is correct.
        """
        labels = self._require_built()
        report = UpdateReport()
        self.invalidate_kernels()

        with Timer() as timer:
            batch.apply(self.graph)
        self._emit_stage(report, StageTiming("edge_update", timer.seconds))

        with Timer() as timer:
            changed_shortcuts = update_shortcuts_bottom_up(
                self.contraction, self.graph, [update.key() for update in batch]
            )
        self._emit_stage(report, StageTiming("shortcut_update", timer.seconds))

        with Timer() as timer:
            changed_labels = labels.update_top_down(changed_shortcuts.keys())
        self._emit_stage(report, StageTiming("label_update", timer.seconds))

        self.last_changed_shortcuts = changed_shortcuts
        self.last_changed_labels = changed_labels
        return report

    # ------------------------------------------------------------------
    # Snapshot persistence: the DH2H state covers MHL (the CH stage reads
    # the same contraction); additionally persist the stage-2 store so a
    # warm-started engine can serve every stage without a re-freeze.
    # ------------------------------------------------------------------
    def _kernel_exports(self):
        exports = dict(super()._kernel_exports())
        exports["ch"] = self._ch_store
        return exports

    # ------------------------------------------------------------------
    # Stage table
    # ------------------------------------------------------------------
    def stage_catalog(self) -> Tuple[QueryStage, ...]:
        """Stages 1-3 in release order, each released by the update stage
        that makes what it reads consistent."""
        return (
            QueryStage("BIDIJKSTRA", "edge_update", self.query_bidijkstra),
            QueryStage("CH", "shortcut_update", self.query_ch),
            QueryStage("H2H", "label_update", self.query_h2h),
        )


@register_spec
@dataclass(frozen=True)
class MHLSpec(IndexSpec):
    """Construction spec for the non-partitioned multi-stage MHL index."""

    method = "MHL"

    def create(self, graph: Graph) -> MHLIndex:
        return MHLIndex(graph)
