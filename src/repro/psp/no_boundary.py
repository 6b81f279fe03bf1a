"""No-boundary PSP index (and the N-CH-P baseline).

The *no-boundary strategy* (Section III-C) builds partition indexes directly on
the partition subgraphs ``{G_i}``, derives the overlay graph from the
boundary shortcuts those indexes produce, and builds an overlay index on top.
Construction and maintenance are fast (no Dijkstra-based boundary shortcut
computation, partition maintenance is embarrassingly parallel) but queries pay
for distance concatenation:

* same-partition:  ``min(d_{L_i}(s,t), min_{b_p,b_q∈B_i} d_{L_i}(s,b_p) + d_{L̃}(b_p,b_q) + d_{L_i}(b_q,t))``
* cross-partition: ``min_{b_p∈B_i, b_q∈B_j} d_{L_i}(s,b_p) + d_{L̃}(b_p,b_q) + d_{L_j}(b_q,t)``

``NoBoundaryPSPIndex(underlying="ch")`` is the paper's **N-CH-P** baseline
(update-oriented, slow queries); ``underlying="h2h"`` gives the hop-based
variant used inside PMHL.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

from repro import obs
from repro.base import DistanceIndex, StageTiming, Timer, UpdateReport
from repro.exceptions import IndexNotBuiltError, VertexNotFoundError
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
from repro.kernels.label_store import LabelStore
from repro.kernels.shortcut_store import ShortcutStore
from repro.partitioning.base import Partitioning
from repro.partitioning.natural_cut import natural_cut_partition
from repro.partitioning.ordering import boundary_first_order
from repro.psp.overlay import OverlayIndex
from repro.psp.partition_family import PartitionIndexFamily
from repro.registry import IndexSpec, register_spec

INF = math.inf


def _scalar_query(store, reader: bool) -> Optional[Callable[[int, int], float]]:
    """Scalar distance function of a frozen store; ``None`` when the store is
    absent or has no scalar kernel (a LabelStore without the native backend)
    and the caller may fall back to its live structures.  A store ``reader``
    may not (they are stale), so its LabelStore answers one pair through the
    (bit-identical) numpy batch path instead."""
    if isinstance(store, LabelStore):
        if store.query_fn is None and reader:
            return lambda s, t: store.query_pairs(((s, t),))[0]
        return store.query_fn
    return store.query if store is not None else None


def _concat_min(
    source_map: Dict[int, float],
    target_map: Dict[int, float],
    overlay_query: Callable[[int, int], float],
) -> float:
    """``min d(s,b_p) + d̃(b_p,b_q) + d(b_q,t)`` over two boundary-distance maps."""
    vectorized = getattr(overlay_query, "concat_min", None)
    if vectorized is not None:
        return vectorized(source_map, target_map)
    best = INF
    for bp, d_s in source_map.items():
        if d_s == INF:
            continue
        for bq, d_t in target_map.items():
            if d_t == INF:
                continue
            candidate = d_s + overlay_query(bp, bq) + d_t
            if candidate < best:
                best = candidate
    return best


def _row_min(
    boundary_vertex: int,
    target_map: Dict[int, float],
    overlay_query: Callable[[int, int], float],
) -> float:
    """``min d̃(b,b_q) + d(b_q,t)``: a boundary vertex against one boundary map."""
    vectorized = getattr(overlay_query, "row_min", None)
    if vectorized is not None:
        return vectorized(boundary_vertex, target_map)
    best = INF
    for bq, d_t in target_map.items():
        if d_t == INF:
            continue
        candidate = overlay_query(boundary_vertex, bq) + d_t
        if candidate < best:
            best = candidate
    return best


class NoBoundaryPSPIndex(DistanceIndex):
    """Planar PSP index following the (optimized) no-boundary strategy.

    Parameters
    ----------
    graph:
        The road network.
    num_partitions:
        Number of partitions ``k``.
    underlying:
        ``"h2h"`` (hop-based partition/overlay indexes) or ``"ch"``
        (shortcut-based, the N-CH-P baseline).
    partitioning:
        Optional pre-computed partitioning; by default the PUNCH-substitute
        natural-cut partitioner is used.
    seed:
        Partitioner seed.
    """

    name = "N-PSP"

    def __init__(
        self,
        graph: Graph,
        num_partitions: int = 4,
        underlying: str = "h2h",
        partitioning: Optional[Partitioning] = None,
        seed: int = 0,
    ):
        super().__init__(graph)
        if underlying not in ("h2h", "ch"):
            raise ValueError(f"underlying must be 'h2h' or 'ch', got {underlying!r}")
        self.num_partitions = num_partitions
        self.underlying = underlying
        self.seed = seed
        self.partitioning = partitioning
        self.order: List[int] = []
        self.family: Optional[PartitionIndexFamily] = None
        self.overlay: Optional[OverlayIndex] = None
        self.last_report: Optional[UpdateReport] = None

    # ------------------------------------------------------------------
    # Construction (Section III-C, Steps 1-3; one method per step so PMHL
    # can time them under its own breakdown)
    # ------------------------------------------------------------------
    def _build(self) -> None:
        prefix = self.name.lower() + ".build."
        with obs.span(prefix + "partitioning_and_ordering"):
            self._build_partitioning()
        with obs.span(prefix + "partition_indexes"):
            self._build_partition_indexes()
        with obs.span(prefix + "overlay"):
            self._build_overlay()

    def _build_partitioning(self) -> None:
        if self.partitioning is None:
            self.partitioning = natural_cut_partition(
                self.graph, self.num_partitions, seed=self.seed
            )
        self.order = boundary_first_order(self.graph, self.partitioning)

    def _build_partition_indexes(self) -> None:
        self.family = PartitionIndexFamily(
            self.partitioning, self.order, with_labels=self.underlying == "h2h"
        )
        self.family.build()

    def _build_overlay(self) -> None:
        self.overlay = OverlayIndex(
            self.partitioning,
            self.family,
            self.order,
            with_labels=self.underlying == "h2h",
        )
        self.overlay.build()

    def _require_built(self) -> None:
        if self.family is None or self.overlay is None or not self.overlay._built:
            raise IndexNotBuiltError(f"{self.name} index has not been built")

    # ------------------------------------------------------------------
    # Frozen stores and kernel-aware fetchers (see repro.kernels)
    #
    # H2H-underlying structures freeze into :class:`LabelStore`\ s, CH
    # underlying ones (no labels) into :class:`ShortcutStore`\ s.
    # Per-partition stores are memoised under distinct keys so a query batch
    # touching one partition never freezes the others.  Every fetcher falls
    # back to the pure-Python structures when ``use_kernels`` is off or a
    # store has no scalar kernel.
    # ------------------------------------------------------------------
    def _store_for(self, key: str, labels, contraction):
        def freeze():
            if labels is not None:
                return LabelStore.freeze(labels)
            return ShortcutStore.freeze(
                lambda v: contraction.shortcuts[v], contraction.order
            )

        return self._kernel(key, freeze)

    def _overlay_store(self):
        return self._store_for(
            "overlay", self.overlay.labels, self.overlay.contraction
        )

    def _family_key(self, family: PartitionIndexFamily, pid: int) -> str:
        """Memo key of ``family``'s partition ``pid``: ``partition_<pid>`` for
        the partition family, ``extended_<pid>`` for any other (the extended
        partitions of the post-boundary strategy)."""
        return f"{'partition' if family is self.family else 'extended'}_{pid}"

    def _family_store(self, family: PartitionIndexFamily, pid: int):
        """Frozen store of ``family``'s partition ``pid``."""
        return self._store_for(
            self._family_key(family, pid), family.labels[pid], family.contractions[pid]
        )

    def _overlay_fetcher(self) -> Callable[[int, int], float]:
        """``(b1, b2) -> d`` between boundary vertices on the overlay."""
        return (
            _scalar_query(self._overlay_store(), self.store_reader)
            or self.overlay.query
        )

    def _local_distance(
        self, family: PartitionIndexFamily, pid: int, source: int, target: int
    ) -> float:
        """Distance inside ``family``'s graph of partition ``pid``."""
        query = _scalar_query(self._family_store(family, pid), self.store_reader)
        if query is not None:
            return query(source, target)
        return family.query(pid, source, target)

    def _to_boundary(
        self, family: PartitionIndexFamily, pid: int, vertex: int
    ) -> Dict[int, float]:
        """Distances from ``vertex`` to the boundary of its partition ``pid``."""
        store = self._family_store(family, pid)
        if store is not None:
            # LabelStore and ShortcutStore both answer the boundary fan-out
            # as one native batch (hoisted source / C-looped scalar search).
            boundary = sorted(self.partitioning.boundary(pid))
            return dict(zip(boundary, store.one_to_many(vertex, boundary)))
        return family.distances_to_boundary(pid, vertex)

    # ------------------------------------------------------------------
    # Query processing
    #
    # One concatenation routine, :meth:`_psp_query`, serves every PSP
    # strategy.  A strategy is the pair ``(family, same_partition_direct)``:
    # which partition family answers in-partition lookups, and whether that
    # family's same-partition answer is already global (extended partitions)
    # or must be compared with a detour through the overlay.  The routine is
    # written against two injectable fetchers so the batch plane can share
    # memoised lookups across a whole batch:
    #
    # * ``overlay_query(bp, bq)`` — global boundary-to-boundary distance,
    # * ``to_boundary(pid, v)``   — distances from ``v`` to its partition
    #   boundary (through the strategy's family).
    #
    # The scalar path resolves the raw fetchers once per query, the batch
    # path wraps the very same calls in memos, so both produce bit-identical
    # distances.
    # ------------------------------------------------------------------
    def _query_strategy(self) -> Tuple[PartitionIndexFamily, bool]:
        """The ``(family, same_partition_direct)`` pair behind :meth:`query`."""
        return self.family, False

    def query(self, source: int, target: int) -> float:
        self._require_built()
        if not self.graph.has_vertex(source):
            raise VertexNotFoundError(source)
        if not self.graph.has_vertex(target):
            raise VertexNotFoundError(target)
        return self._psp_query(source, target, *self._query_strategy())

    def query_many(self, pairs: Iterable[Tuple[int, int]]) -> List[float]:
        """Batched queries sharing overlay/boundary lookups across the batch.

        One memo of overlay boundary-pair distances and one of
        vertex-to-boundary distance maps span the whole batch, so the
        concatenation lookups that dominate PSP queries — shared by every
        pair with the same (source-partition, target-partition) footprint —
        are paid once per distinct vertex/boundary pair instead of once per
        query pair.
        """
        self._require_built()
        pair_list = list(pairs)
        for source, target in pair_list:
            if not self.graph.has_vertex(source):
                raise VertexNotFoundError(source)
            if not self.graph.has_vertex(target):
                raise VertexNotFoundError(target)
        family, same_partition_direct = self._query_strategy()

        overlay_memo: Dict[Tuple[int, int], float] = {}
        overlay_query = self._overlay_fetcher()

        def cached_overlay(bp: int, bq: int) -> float:
            key = (bp, bq)
            hit = overlay_memo.get(key)
            if hit is None:
                hit = overlay_query(bp, bq)
                overlay_memo[key] = hit
            return hit

        boundary_memo: Dict[Tuple[int, int], Dict[int, float]] = {}

        def cached_to_boundary(pid: int, vertex: int) -> Dict[int, float]:
            key = (pid, vertex)
            hit = boundary_memo.get(key)
            if hit is None:
                hit = self._to_boundary(family, pid, vertex)
                boundary_memo[key] = hit
            return hit

        # With a frozen overlay store, collapse the double loops over
        # boundary sets into one numpy broadcast over a memoised overlay
        # distance block per boundary-set pair (see _attach_vector_concat).
        if np is not None and self._overlay_store() is not None:
            self._attach_vector_concat(cached_overlay)

        return [
            self._psp_query(
                source, target, family, same_partition_direct,
                cached_overlay, cached_to_boundary,
            )
            for source, target in pair_list
        ]

    def _attach_vector_concat(self, overlay_query: Callable[[int, int], float]) -> None:
        """Equip the batch plane's overlay fetcher with vectorized combiners.

        ``concat_min`` and ``row_min`` evaluate the same candidates as the
        scalar concatenation loops — ``(d_s + overlay) + d_t`` in the same
        association order, minimised — over an overlay distance block fetched
        once per distinct boundary-set pair through the frozen store's native
        batch API, so results are bit-identical while the per-query Python
        cost drops from ``|B_s|·|B_t|`` loop iterations to one broadcast.
        """
        store = self._overlay_store()
        block_memo: Dict[Tuple, object] = {}

        def block(bs: Tuple[int, ...], bt: Tuple[int, ...]):
            hit = block_memo.get((bs, bt))
            if hit is None:
                hit = np.array(
                    [store.one_to_many(bp, bt) for bp in bs], dtype=np.float64
                )
                block_memo[(bs, bt)] = hit
            return hit

        def concat_min(source_map: Dict[int, float], target_map: Dict[int, float]) -> float:
            if not source_map or not target_map:
                return INF
            bs = tuple(source_map)
            bt = tuple(target_map)
            d_s = np.fromiter(source_map.values(), np.float64, len(bs))
            d_t = np.fromiter(target_map.values(), np.float64, len(bt))
            return float(np.min((d_s[:, None] + block(bs, bt)) + d_t[None, :]))

        def row_min(boundary_vertex: int, target_map: Dict[int, float]) -> float:
            if not target_map:
                return INF
            bt = tuple(target_map)
            hit = block_memo.get((boundary_vertex, bt))
            if hit is None:
                hit = np.asarray(
                    store.one_to_many(boundary_vertex, bt), dtype=np.float64
                )
                block_memo[(boundary_vertex, bt)] = hit
            d_t = np.fromiter(target_map.values(), np.float64, len(bt))
            return float(np.min(hit + d_t))

        overlay_query.concat_min = concat_min
        overlay_query.row_min = row_min

    def query_one_to_many(self, source: int, targets: Sequence[int]) -> List[float]:
        """One-to-many batch: the source's boundary distances are fetched once."""
        return self.query_many([(source, target) for target in targets])

    def _psp_query(
        self,
        source: int,
        target: int,
        family: PartitionIndexFamily,
        same_partition_direct: bool,
        overlay_query: Optional[Callable[[int, int], float]] = None,
        to_boundary: Optional[Callable[[int, int], Dict[int, float]]] = None,
    ) -> float:
        """PSP distance concatenation (the Section III-C query cases).

        Without injected fetchers (the scalar plane) the raw kernel-aware
        ones are resolved here, once per query.
        """
        if source == target:
            return 0.0
        if overlay_query is None:
            overlay_query = self._overlay_fetcher()
            to_boundary = partial(self._to_boundary, family)
        partitioning = self.partitioning
        pid_s = partitioning.partition_of(source)
        pid_t = partitioning.partition_of(target)
        if pid_s == pid_t:
            # Local distance vs. detour through the overlay.
            local = self._local_distance(family, pid_s, source, target)
            if same_partition_direct:
                return local
            detour = _concat_min(
                to_boundary(pid_s, source), to_boundary(pid_s, target), overlay_query
            )
            return detour if detour < local else local
        source_is_boundary = source in partitioning.boundary(pid_s)
        target_is_boundary = target in partitioning.boundary(pid_t)
        if source_is_boundary and target_is_boundary:
            return overlay_query(source, target)
        if source_is_boundary:
            return _row_min(source, to_boundary(pid_t, target), overlay_query)
        if target_is_boundary:
            return _row_min(target, to_boundary(pid_s, source), overlay_query)
        return _concat_min(
            to_boundary(pid_s, source), to_boundary(pid_t, target), overlay_query
        )

    # ------------------------------------------------------------------
    # Maintenance
    #
    # Split into a *shortcut phase* (partitions, then overlay) and a *label
    # phase* (partitions, then overlay) so the multi-stage PMHL can release a
    # query stage between them; the planar strategies here run them back to
    # back and report per-partition work as one ``partition_update`` stage.
    # ------------------------------------------------------------------
    def _apply_batch(self, batch: UpdateBatch) -> UpdateReport:
        self._require_built()
        report = UpdateReport()
        # Before any structure mutates (kernel staleness protocol).
        self.invalidate_kernels()

        with Timer() as timer:
            batch.apply(self.graph)
        self._emit_stage(report, StageTiming("edge_update", timer.seconds))

        per_partition, inter_updates = self._split_batch(batch)
        shortcut_times, changed, changed_boundary = self._update_partition_shortcuts(
            per_partition
        )
        label_times = self._update_partition_labels(changed)
        partition_times = [a + b for a, b in zip(shortcut_times, label_times)]
        self._emit_stage(report,
            StageTiming(
                "partition_update", sum(partition_times), parallel_times=partition_times
            )
        )

        with Timer() as timer:
            self.overlay.apply_updates(inter_updates, changed_boundary)
        self._emit_stage(report, StageTiming("overlay_update", timer.seconds))

        self.last_report = report
        return report

    def _split_batch(self, batch: UpdateBatch) -> Tuple[Dict[int, List], List]:
        """Group a batch into per-partition updates and inter-partition ones."""
        partition_of = self.partitioning.partition_of
        per_partition: Dict[int, List] = {}
        inter_updates: List = []
        for update in batch:
            pid = partition_of(update.u)
            if pid == partition_of(update.v):
                per_partition.setdefault(pid, []).append(update)
            else:
                inter_updates.append(update)
        return per_partition, inter_updates

    def _update_partition_shortcuts(
        self, per_partition: Dict[int, List]
    ) -> Tuple[List[float], Dict[int, Dict[int, List[int]]], Dict[Tuple[int, int], float]]:
        """Shortcut phase of the touched partitions (parallel in the paper).

        Returns per-partition seconds, each partition's changed-shortcut
        report (the seed of its label phase) and the boundary shortcuts whose
        values changed (the seed of the overlay's shortcut phase).
        """
        times: List[float] = []
        changed: Dict[int, Dict[int, List[int]]] = {}
        changed_boundary: Dict[Tuple[int, int], float] = {}
        for pid, updates in sorted(per_partition.items()):
            start = time.perf_counter()
            changed_edges = self.family.apply_edge_updates(pid, updates)
            changed_report = self.family.update_shortcuts(pid, changed_edges)
            changed[pid] = changed_report
            boundary = self.partitioning.boundary(pid)
            shortcuts = self.family.contractions[pid].shortcuts
            for v, neighbours in changed_report.items():
                if v not in boundary:
                    continue
                for u in neighbours:
                    if u in boundary:
                        changed_boundary[(v, u)] = shortcuts[v][u]
            times.append(time.perf_counter() - start)
        return times, changed, changed_boundary

    def _update_partition_labels(
        self, changed: Dict[int, Dict[int, List[int]]]
    ) -> List[float]:
        """Label phase of the touched partitions; returns per-partition seconds."""
        times: List[float] = []
        for pid, changed_report in sorted(changed.items()):
            start = time.perf_counter()
            self.family.update_labels(pid, changed_report.keys())
            times.append(time.perf_counter() - start)
        return times

    # ------------------------------------------------------------------
    def vertex_partition(self, v: int) -> Optional[int]:
        if self.partitioning is None:
            return None
        return self.partitioning.partition_of(v)

    def index_size(self) -> int:
        self._require_built()
        return self.family.index_size() + self.overlay.index_size()

    # ------------------------------------------------------------------
    # Snapshot persistence (see repro.store)
    # ------------------------------------------------------------------
    def to_state(self, io) -> Dict[str, object]:
        """Partition assignment, global order, family and overlay structures.

        The overlay graph is stored explicitly (it is maintained
        incrementally and can legitimately differ from a fresh
        ``build_overlay_graph``); the per-partition graphs travel inside the
        family payload.
        """
        from repro.store import codec

        self._require_built()
        return {
            "partitioning": codec.pack_partitioning(self.partitioning, io),
            "order": io.put_ints(self.order),
            "family": codec.pack_family(self.family, io),
            "overlay": codec.pack_overlay(self.overlay, io),
        }

    def from_state(self, state: Dict[str, object], io) -> None:
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

    def _kernel_exports(self):
        """The overlay store and one store per partition of the strategy's
        family — everything :meth:`query_many` reads."""
        family, _direct = self._query_strategy()
        exports = {"overlay": self._overlay_store}
        for pid in range(self.partitioning.num_partitions):
            exports[self._family_key(family, pid)] = partial(
                self._family_store, family, pid
            )
        return exports


class NCHPIndex(NoBoundaryPSPIndex):
    """The paper's **N-CH-P** baseline: no-boundary PSP with DCH underlying."""

    name = "N-CH-P"

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
            underlying="ch",
            partitioning=partitioning,
            seed=seed,
        )


@register_spec
@dataclass(frozen=True)
class NCHPSpec(IndexSpec):
    """Construction spec for the N-CH-P baseline (no-boundary PSP, DCH underlying)."""

    method = "N-CH-P"
    aliases = ("NCHP",)
    config_fields = {"num_partitions": "partition_number", "seed": "seed"}

    #: Number of partitions ``k``.
    num_partitions: int = 4
    #: Partitioner seed.
    seed: int = 0

    def create(self, graph: Graph) -> NCHPIndex:
        return NCHPIndex(graph, num_partitions=self.num_partitions, seed=self.seed)
