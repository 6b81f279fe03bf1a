"""No-boundary PSP index (and the N-CH-P baseline).

The *no-boundary strategy* (Section III-C) builds partition indexes directly on
the partition subgraphs ``{G_i}``, derives the overlay graph from the
boundary shortcuts those indexes produce, and builds an overlay index on top.
Construction and maintenance are fast (no Dijkstra-based boundary shortcut
computation, partition maintenance is embarrassingly parallel) but queries pay
for distance concatenation:

* same-partition:  ``min(d_{L_i}(s,t), min_{b_p,b_q∈B_i} d_{L_i}(s,b_p) + d_{L̃}(b_p,b_q) + d_{L_i}(b_q,t))``
* cross-partition: ``min_{b_p∈B_i, b_q∈B_j} d_{L_i}(s,b_p) + d_{L̃}(b_p,b_q) + d_{L_j}(b_q,t)``

Both are evaluated as one *lift, then join* over the overlay tree
(:meth:`NoBoundaryPSPIndex._psp_query_many`).

``NoBoundaryPSPIndex(underlying="ch")`` is the paper's **N-CH-P** baseline
(update-oriented, slow queries); ``underlying="h2h"`` gives the hop-based
variant used inside PMHL.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.base import DistanceIndex, StageTiming, Timer, UpdateReport
from repro.exceptions import IndexNotBuiltError, PartitioningError
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
from repro.kernels.arena import pair_ids
from repro.kernels.label_store import LabelStore
from repro.partitioning.base import Partitioning
from repro.partitioning.natural_cut import natural_cut_partition
from repro.partitioning.ordering import boundary_first_order
from repro.psp.overlay import Changes, OverlayIndex
from repro.psp.partition_family import PartitionIndexFamily
from repro.registry import IndexSpec, register_spec

INF = math.inf


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
        #: ``(kernel epoch, {pid: M_p})``.
        self._lift_memo: Tuple[int, Dict[int, np.ndarray]] = (-1, {})

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
        if not self.partitioning.all_boundary():
            raise PartitioningError(
                f"{self.name} needs an overlay, but the "
                f"{self.partitioning.num_partitions}-partition partitioning has no "
                "boundary vertex (every partition is a whole connected component)"
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
    # touching one partition never freezes the others.
    # ------------------------------------------------------------------
    def _store_for(self, key: str, labels, contraction):
        if labels is None:
            return self._kernel(key, contraction.store)
        return self._kernel(key, lambda: LabelStore.freeze(labels))

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

    def _local_distance(
        self, family: PartitionIndexFamily, pid: int, source: int, target: int
    ) -> float:
        """Distance inside ``family``'s graph of partition ``pid``."""
        return self._family_store(family, pid).query(source, target)

    def _to_boundary(
        self, family: PartitionIndexFamily, pid: int, vertex: int
    ) -> np.ndarray:
        """``d_p(vertex, b_i)`` for the boundary of ``vertex``'s partition
        ``pid``, in :meth:`Partitioning.sorted_boundary` order (the rows of
        the partition's lift matrix)."""
        boundary = self.partitioning.sorted_boundary(pid)
        store = self._family_store(family, pid)
        return np.asarray(store.one_to_many(vertex, boundary), dtype=np.float64)

    def _lift_matrix(self, pid: int) -> np.ndarray:
        """``M_p[i, h] = d̃(b_i, h)`` for every overlay ancestor ``h`` of the
        ``i``-th boundary vertex of partition ``pid``, ``inf`` elsewhere;
        columns are the overlay tree's rows.

        One row is one overlay ``one_to_many(b_i, chain(b_i))`` — through
        the frozen overlay store, so a store reader derives the matrix from
        the adopted generation (and a missing ``overlay`` store raises).
        Memoised per kernel
        epoch; it reads the overlay only, so the no-boundary and the
        post-boundary strategy share it.
        """
        epoch = self.kernel_epoch
        if self._lift_memo[0] != epoch:
            self._lift_memo = (epoch, {})
        matrices = self._lift_memo[1]
        matrix = matrices.get(pid)
        if matrix is None:
            store = self._overlay_store()
            tree = self.overlay.tree
            boundary = self.partitioning.sorted_boundary(pid)
            matrix = np.full((len(boundary), tree.num_vertices), INF)
            for row, b in zip(matrix, boundary):
                chain = tree.chain(b)
                row[tree.rows(chain)] = store.one_to_many(b, chain)
            matrices[pid] = matrix
        return matrix

    # ------------------------------------------------------------------
    # Query processing: lift, then join
    #
    # One routine, :meth:`_psp_query_many`, answers every PSP query — the
    # scalar plane is its one-pair batch.  A strategy is the pair
    # ``(family, same_partition_direct)``: which partition family answers
    # in-partition lookups, and whether that family's same-partition answer
    # is already global (extended partitions) or must be compared with a
    # detour through the overlay.
    #
    # An endpoint ``v`` of partition ``p`` is *lifted* onto the overlay once:
    # ``L_v = min_i d_p(v, b_i) + M_p[i, :]``, the shortest ``v -> h`` path
    # through a boundary vertex of ``p`` that lies below ``h`` in the overlay
    # tree.  Because the overlay distance of two boundary vertices is the
    # minimum over their common overlay ancestors, the concatenation
    # ``min_{b_p, b_q} d(s,b_p) + d̃(b_p,b_q) + d(b_q,t)`` is ``min(L_s + L_t)``
    # (``inf`` across the trees of a forest overlay).
    # ------------------------------------------------------------------
    def _query_strategy(self) -> Tuple[PartitionIndexFamily, bool]:
        """The ``(family, same_partition_direct)`` pair behind :meth:`query`."""
        return self.family, False

    # No single store answers the final stage (the join reads the overlay's
    # and the partitions' stores), so the lift-then-join is the reference
    # the base query plane runs.
    def _final_store(self):
        self._require_built()
        return None

    def _reference_query(self, source: int, target: int) -> float:
        return self._psp_query(source, target, *self._query_strategy())

    def _reference_one_to_many(self, source: int, targets: List[int]) -> List[float]:
        """The source is lifted once."""
        return self._psp_query_many(
            [(source, target) for target in targets], *self._query_strategy()
        )

    def _reference_many(self, pairs: List[Tuple[int, int]]) -> List[float]:
        """Each distinct endpoint is lifted once per batch."""
        self._check_vertices(pair_ids(pairs))
        return self._psp_query_many(pairs, *self._query_strategy())

    def _psp_query(
        self,
        source: int,
        target: int,
        family: PartitionIndexFamily,
        same_partition_direct: bool,
    ) -> float:
        """One PSP query: the one-pair batch of :meth:`_psp_query_many`."""
        return self._psp_query_many([(source, target)], family, same_partition_direct)[0]

    def _psp_query_many(
        self,
        pairs: Sequence[Tuple[int, int]],
        family: PartitionIndexFamily,
        same_partition_direct: bool,
    ) -> List[float]:
        """PSP distances of ``pairs`` under one strategy (lift, then join)."""
        partition_of = self.partitioning.partition_of
        lifts: Dict[int, np.ndarray] = {}

        def lift(vertex: int) -> np.ndarray:
            lifted = lifts.get(vertex)
            if lifted is None:
                pid = partition_of(vertex)
                to_boundary = self._to_boundary(family, pid, vertex)
                lifted = lifts[vertex] = (
                    to_boundary[:, None] + self._lift_matrix(pid)
                ).min(axis=0, initial=INF)
            return lifted

        distances: List[float] = []
        for source, target in pairs:
            if source == target:
                distances.append(0.0)
                continue
            local = INF
            pid = partition_of(source)
            if pid == partition_of(target):
                local = self._local_distance(family, pid, source, target)
                if same_partition_direct:
                    distances.append(local)
                    continue
            joined = float((lift(source) + lift(target)).min())
            distances.append(joined if joined < local else local)
        return distances

    # ------------------------------------------------------------------
    # Maintenance
    #
    # Split into a *shortcut phase* (partitions, then overlay) and a *label
    # phase* (partitions, then overlay) so the multi-stage PMHL can release a
    # query stage between them; the planar strategies here run them back to
    # back and report per-partition work as one ``partition_update`` stage.
    # ------------------------------------------------------------------
    def _apply_batch(self, batch: UpdateBatch, report: UpdateReport) -> None:
        per_partition, inter_updates = self._split_batch(batch)
        shortcut_times, changed, boundary_changes = self._update_partition_shortcuts(
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
            self.overlay.apply_updates(inter_updates, boundary_changes)
        self._emit_stage(report, StageTiming("overlay_update", timer.seconds))

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
    ) -> Tuple[List[float], Dict[int, np.ndarray], Changes]:
        """Shortcut phase of the touched partitions (parallel in the paper).

        Returns per-partition seconds, each partition's changed slots (the
        seed of its label phase) and ``(us, vs, weights)`` of the boundary
        shortcuts whose values changed (the seed of the overlay's shortcut
        phase).
        """
        times: List[float] = []
        changed: Dict[int, np.ndarray] = {}
        boundary: List[Changes] = []
        family = self.family
        for pid, updates in sorted(per_partition.items()):
            start = time.perf_counter()
            changed[pid] = slots = family.update_shortcuts(
                pid, [u.u for u in updates], [u.v for u in updates],
                [u.new_weight for u in updates],
            )
            boundary.append(family.boundary_shortcuts(pid, slots))
            times.append(time.perf_counter() - start)
        if not boundary:
            return times, changed, ((), (), ())
        return times, changed, tuple(np.concatenate(part) for part in zip(*boundary))

    def _update_partition_labels(self, changed: Dict[int, np.ndarray]) -> List[float]:
        """Label phase of the touched partitions; returns per-partition seconds."""
        times: List[float] = []
        for pid, slots in sorted(changed.items()):
            start = time.perf_counter()
            self.family.update_labels(pid, slots)
            times.append(time.perf_counter() - start)
        return times

    # ------------------------------------------------------------------
    def index_size(self) -> int:
        self._require_built()
        return self.family.index_size() + self.overlay.index_size()

    def _label_sets(self):
        if self.family is None or self.overlay is None:
            return ()
        return tuple(
            labels for labels in (*self.family.labels, self.overlay.labels)
            if labels is not None
        )

    def _contractions(self):
        if self.family is None or self.overlay is None:
            return ()
        return (*self.family.contractions, self.overlay.contraction)

    # ------------------------------------------------------------------
    # Snapshot persistence (see repro.store)
    # ------------------------------------------------------------------
    def to_state(self, io) -> Dict[str, object]:
        """Partition assignment, global order, family and overlay structures.

        The partition and overlay graphs are not stored: each flat
        contraction carries its graph weights (``base``), which are all
        maintenance reads of them.
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
