"""Simplified TOAIN baseline (throughput-optimising adaptive index).

TOAIN [Luo et al., VLDB 2018] builds a multi-level CH-style index (SCOB) for
dynamic kNN queries and tunes a "check-in level" that trades query cost
against update cost: objects are materialised down to a chosen hierarchy
level, so a lower level means faster queries but more expensive updates.  The
paper adapts it to point-to-point shortest-distance queries by treating the
target as the single nearest object (``k = 1``) and refreshing its shortcuts
on every update batch because SCOB was designed for static weights.

This reproduction keeps the essential trade-off knob while staying within the
substrates already built here (see DESIGN.md §3):

* the index is a CH over the MDE order;
* the *check-in level* ``L`` materialises, for every vertex, distance labels to
  its upward-reachable hierarchy vertices whose rank falls in the top ``L``
  fraction — larger ``L`` makes queries faster (more chances to meet in the
  materialised zone) and updates slower (more labels to refresh);
* updates refresh the affected shortcuts (DCH-style) and rebuild the
  materialised labels of affected vertices.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.base import DistanceIndex, StageTiming, Timer, UpdateReport
from repro.exceptions import IndexNotBuiltError, VertexNotFoundError
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
from repro.hierarchy.ch import ch_bidirectional_query
from repro.kernels.hub_store import HubStore
from repro.kernels.shortcut_store import ShortcutStore
from repro.registry import IndexSpec, register_spec
from repro.treedec.mde import ContractionResult, contract_graph, update_shortcuts_bottom_up

INF = math.inf


class TOAINIndex(DistanceIndex):
    """Simplified TOAIN / SCOB baseline adapted to point-to-point queries.

    Parameters
    ----------
    graph:
        The road network.
    checkin_fraction:
        Fraction of the highest-ranked vertices forming the "core" zone whose
        distances are materialised per vertex (the throughput-tuning knob).
    """

    name = "TOAIN"

    def __init__(self, graph: Graph, checkin_fraction: float = 0.2):
        super().__init__(graph)
        if not 0.0 < checkin_fraction <= 1.0:
            raise ValueError(
                f"checkin_fraction must be in (0, 1], got {checkin_fraction}"
            )
        self.checkin_fraction = checkin_fraction
        self.contraction: Optional[ContractionResult] = None
        self.core_rank_threshold = 0
        #: Materialised upward labels: vertex -> {core vertex: distance}.
        self.core_labels: Dict[int, Dict[int, float]] = {}

    # ------------------------------------------------------------------
    def _build(self) -> None:
        prefix = self.name.lower() + ".build."
        with obs.span(prefix + "contraction"):
            self.contraction = contract_graph(self.graph)
        n = self.contraction.num_vertices
        core_size = max(1, int(self.checkin_fraction * n))
        self.core_rank_threshold = n - core_size
        with obs.span(prefix + "core_labels"):
            self.core_labels = {
                v: self._upward_core_labels(v) for v in self.contraction.order
            }

    def _upward_core_labels(self, vertex: int) -> Dict[int, float]:
        """Upward CH search from ``vertex``, keeping only core-zone vertices."""
        contraction = self.contraction
        dist: Dict[int, float] = {vertex: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, vertex)]
        settled: Dict[int, float] = {}
        while heap:
            d, v = heapq.heappop(heap)
            if v in settled:
                continue
            settled[v] = d
            for u, w in contraction.shortcuts[v].items():
                nd = d + w
                if nd < dist.get(u, INF):
                    dist[u] = nd
                    heapq.heappush(heap, (nd, u))
        rank = contraction.rank
        return {
            v: d for v, d in settled.items() if rank[v] >= self.core_rank_threshold
        }

    def _require_built(self) -> ContractionResult:
        if self.contraction is None:
            raise IndexNotBuiltError("TOAIN index has not been built")
        return self.contraction

    # ------------------------------------------------------------------
    # Frozen stores
    # ------------------------------------------------------------------
    def _sub_core_store(self):
        """Frozen sub-core upward adjacency (``None`` = pure path)."""
        contraction = self._require_built()
        return self._kernel(
            "sub_core",
            lambda template: ShortcutStore.freeze(
                self._sub_core_upward(), contraction.order, template
            ),
        )

    def _hub_store(self):
        """Frozen CSR hub-label table (``None`` = pure path)."""
        contraction = self._require_built()

        def freeze(_):
            rank = contraction.rank
            threshold = self.core_rank_threshold
            core = [v for v in contraction.order if rank[v] >= threshold]
            slots = {v: i for i, v in enumerate(core)}
            return HubStore.freeze(self.core_labels, slots)

        return self._kernel("hubs", freeze)

    # ------------------------------------------------------------------
    def query(self, source: int, target: int) -> float:
        """Point-to-point query.

        The highest-rank vertex of a shortest path either lies in the core
        zone — covered by joining the two materialised label sets — or below
        it — covered by a bidirectional CH search restricted to the sub-core
        part of the hierarchy (cheap when the core fraction is large).
        """
        contraction = self._require_built()
        if source not in contraction.rank:
            raise VertexNotFoundError(source)
        if target not in contraction.rank:
            raise VertexNotFoundError(target)
        if source == target:
            return 0.0
        store = self._sub_core_store()
        hub_store = self._hub_store() if store is not None else None
        if hub_store is not None:
            # Frozen plane: dense hub join + native sub-core search.  The
            # join is the same minimum over the same float64 sums as the
            # dict loop below, so both planes answer bit-identically.
            best = hub_store.join_pair(source, target)
            return min(best, store.query(source, target))
        labels_s = self.core_labels[source]
        labels_t = self.core_labels[target]
        best = INF
        for hub, d_s in labels_s.items():
            d_t = labels_t.get(hub)
            if d_t is not None and d_s + d_t < best:
                best = d_s + d_t
        below = ch_bidirectional_query(source, target, self._sub_core_upward())
        return min(best, below)

    def query_one_to_many(self, source: int, targets: Sequence[int]) -> List[float]:
        """Batched queries: vectorized hub join + frozen sub-core searches.

        With kernels on, the core-zone join for the whole batch is a single
        :meth:`~repro.kernels.hub_store.HubStore.join_one_to_many` (the
        source's labels are scattered into a dense vector once), and the
        per-pair sub-core searches run over the frozen shortcut arrays.  The
        join minimum is order-independent and every candidate is the same
        ``float64`` sum the scalar path computes, so results are bit-identical
        to :meth:`query`; the pure reference keeps the dict-based loop.
        """
        contraction = self._require_built()
        if source not in contraction.rank:
            raise VertexNotFoundError(source)
        targets = list(targets)
        for target in targets:
            if target not in contraction.rank:
                raise VertexNotFoundError(target)

        sub_core_store = self._sub_core_store()
        hub_store = self._hub_store() if sub_core_store is not None else None
        if hub_store is not None:
            # The one-scatter-many-gathers join only pays off once the batch
            # amortises the dense source vector; tiny source groups loop the
            # (bit-identical) frozen scalar plane instead.
            if len(targets) < 8:
                return [
                    0.0
                    if source == target
                    else min(
                        hub_store.join_pair(source, target),
                        sub_core_store.query(source, target),
                    )
                    for target in targets
                ]
            joined = hub_store.join_one_to_many(source, targets)
            below = sub_core_store.one_to_many(source, targets)
            return [
                0.0 if source == target else min(best, b)
                for target, best, b in zip(targets, joined, below)
            ]
        labels_s = self.core_labels[source]
        sub_core_upward = self._sub_core_upward(memo={})
        results: List[float] = []
        for target in targets:
            if source == target:
                results.append(0.0)
                continue
            labels_t = self.core_labels[target]
            best = INF
            for hub, d_s in labels_s.items():
                d_t = labels_t.get(hub)
                if d_t is not None and d_s + d_t < best:
                    best = d_s + d_t
            below = ch_bidirectional_query(source, target, sub_core_upward)
            results.append(min(best, below))
        return results

    def _sub_core_upward(self, memo: Optional[Dict[int, Dict[int, float]]] = None):
        """Upward-neighbour callback restricted to the sub-core hierarchy.

        With ``memo`` the filtered neighbourhoods are cached across calls
        (values are identical either way — the cache only avoids refiltering).
        """
        contraction = self.contraction
        rank = contraction.rank
        threshold = self.core_rank_threshold

        def sub_core(v: int) -> Dict[int, float]:
            if memo is not None:
                cached = memo.get(v)
                if cached is not None:
                    return cached
            filtered = {
                u: w
                for u, w in contraction.shortcuts[v].items()
                if rank[u] < threshold
            }
            if memo is not None:
                memo[v] = filtered
            return filtered

        return sub_core

    # ------------------------------------------------------------------
    def _apply_batch(self, batch: UpdateBatch) -> UpdateReport:
        """Refresh shortcuts (DCH-style) and rebuild all materialised labels.

        TOAIN was designed for static edge weights; following the paper, its
        adaptation to dynamic networks refreshes the shortcut hierarchy and the
        materialised check-in labels on every batch, which is what makes its
        update cost high on large networks.
        """
        contraction = self._require_built()
        report = UpdateReport()
        self.invalidate_kernels()

        with Timer() as timer:
            batch.apply(self.graph)
        self._emit_stage(report, StageTiming("edge_update", timer.seconds))

        with Timer() as timer:
            update_shortcuts_bottom_up(
                contraction, self.graph, [update.key() for update in batch]
            )
        self._emit_stage(report, StageTiming("shortcut_update", timer.seconds))

        with Timer() as timer:
            self.core_labels = {
                v: self._upward_core_labels(v) for v in contraction.order
            }
        self._emit_stage(report, StageTiming("label_rebuild", timer.seconds))
        return report

    # ------------------------------------------------------------------
    def index_size(self) -> int:
        contraction = self._require_built()
        return contraction.shortcut_count() + sum(
            len(labels) for labels in self.core_labels.values()
        )

    # ------------------------------------------------------------------
    # Snapshot persistence (see repro.store)
    # ------------------------------------------------------------------
    def to_state(self, io) -> Dict[str, object]:
        from repro.store.codec import pack_contraction, pack_pairs_csr

        contraction = self._require_built()
        return {
            "contraction": pack_contraction(contraction, io),
            "core_rank_threshold": int(self.core_rank_threshold),
            "core_labels": pack_pairs_csr(
                ((v, labels.items()) for v, labels in self.core_labels.items()), io
            ),
        }

    def from_state(self, state: Dict[str, object], io) -> None:
        from repro.store.codec import unpack_contraction, unpack_pairs_csr

        self.contraction = unpack_contraction(state["contraction"], io)
        self.core_rank_threshold = int(state["core_rank_threshold"])
        self.core_labels = {
            v: dict(pairs)
            for v, pairs in unpack_pairs_csr(state["core_labels"], io).items()
        }

    def _kernel_exports(self):
        return {"sub_core": self._sub_core_store, "hubs": self._hub_store}


@register_spec
@dataclass(frozen=True)
class TOAINSpec(IndexSpec):
    """Construction spec for the simplified TOAIN / SCOB baseline."""

    method = "TOAIN"
    config_fields = {"checkin_fraction": "toain_checkin_fraction"}

    #: Fraction of the highest-ranked vertices whose distances are
    #: materialised per vertex (the throughput-tuning knob).
    checkin_fraction: float = 0.2

    def create(self, graph: Graph) -> TOAINIndex:
        return TOAINIndex(graph, checkin_fraction=self.checkin_fraction)
