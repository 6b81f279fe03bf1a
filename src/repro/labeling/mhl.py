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

from repro.base import QueryStage
from repro.graph.graph import Graph
from repro.hierarchy.ch import ch_bidirectional_query
from repro.labeling.h2h import DH2HIndex
from repro.registry import IndexSpec, register_spec


class MHLIndex(DH2HIndex):
    """Multi-stage Hub Labeling: DH2H extended with CH-stage query processing."""

    name = "MHL"

    # ------------------------------------------------------------------
    # Stage-specific query processing
    # ------------------------------------------------------------------
    def _ch_store(self):
        """Stage-2 shortcut store of this epoch: the
        contraction's arena, as the shortcut pass left it."""
        self._require_built()
        return self._kernel("ch", self.contraction.store)

    def query_ch(self, source: int, target: int) -> float:
        """Stage-2 query: CH search over the shortcut arrays ``X(v).sc``."""
        return self._stage_query(
            self._ch_store(), source, target,
            ch_bidirectional_query, self.contraction.upward,
        )

    def query_h2h(self, source: int, target: int) -> float:
        """Stage-3 query: H2H label lookup (fastest), the final stage."""
        return self.query(source, target)

    # Maintenance is DH2H's: its three stages (``edge_update``,
    # ``shortcut_update``, ``label_update``) release BiDijkstra, the CH query
    # and the H2H query in turn (see :meth:`stage_catalog`).

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
