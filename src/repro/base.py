"""Common interface of every shortest-distance index in the package.

The experiment harness treats all methods uniformly (BiDijkstra, DCH, DH2H,
N-CH-P, P-TD-P, TOAIN, PMHL, PostMHL): each exposes

* :meth:`DistanceIndex.build` — construct the index (records ``t_c``),
* :meth:`DistanceIndex.query` — answer a shortest-distance query (``t_q``),
* :meth:`DistanceIndex.query_many` / :meth:`DistanceIndex.query_one_to_many` —
  the batch query plane: answer many queries in one call, amortising
  per-query work where the index allows it,
* :meth:`DistanceIndex.apply_batch` — install a batch of edge-weight updates
  (``t_u``), returning a per-stage timing breakdown for the multi-stage
  methods, and
* :meth:`DistanceIndex.index_size` — number of stored index entries (``|L|``).

Sizes are reported as *entry counts* rather than bytes because pure-Python
object overhead would otherwise dominate and hide the paper's size ordering.

Frozen query kernels
--------------------

Every index additionally participates in the *frozen kernel* protocol (see
``repro.kernels``): after a build or update batch completes, the query-side
state can be frozen into flat-array stores that answer scalar and batch
queries without walking dict-of-dict structures.  The base class owns the
lifecycle — a per-index **kernel epoch** that update paths bump via
:meth:`DistanceIndex.invalidate_kernels`, and a per-epoch memo
(:meth:`DistanceIndex._kernel`) so each store is frozen at most once per
epoch.  The ``use_kernels`` flag (default on, settable through the registry
specs) switches an index between the frozen kernels and the pure-Python
reference path; both return bit-identical distances.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.algorithms.dijkstra import bidijkstra
from repro.exceptions import StoreNotPublishedError
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch

#: One ``(source, target)`` query pair of the batch query plane.
QueryPair = Tuple[int, int]

#: Sentinel distinguishing "not yet frozen" from a cached ``None`` (freeze
#: unsupported for this structure — e.g. numpy unavailable).
_UNFROZEN = object()


@dataclass
class StageTiming:
    """Wall-clock duration of one named update stage.

    ``parallel_times`` optionally carries the per-partition sequential times of
    a stage that the paper would run on parallel threads; the throughput
    evaluator converts them into a simulated parallel wall-clock (see
    ``repro.throughput.parallel``).
    """

    name: str
    seconds: float
    parallel_times: Optional[List[float]] = None


@dataclass
class UpdateReport:
    """Result of installing one update batch."""

    stages: List[StageTiming] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Sequential wall-clock total over all stages."""
        return sum(stage.seconds for stage in self.stages)

    def stage_seconds(self, name: str) -> float:
        """Total seconds spent in stages with the given name."""
        return sum(stage.seconds for stage in self.stages if stage.name == name)


class Timer:
    """Minimal context-manager stopwatch used to record stage timings."""

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self.start


class DistanceIndex(abc.ABC):
    """Abstract base class of all shortest-distance indexes."""

    #: Human-readable method name used in experiment tables.
    name: str = "index"
    #: ``True`` when the index's final (fastest) query stage is a label lookup
    #: — cheaper than a distance-cache probe, so the serving engine routes
    #: batches through it uncached.  Search-based final stages keep ``False``.
    final_stage_is_label_lookup: bool = False

    def __init__(self, graph: Graph):
        self.graph = graph
        self.build_seconds: float = 0.0
        self._built = False
        #: The :class:`~repro.registry.IndexSpec` this index was created from
        #: (set by ``create_index``); ``save_index`` persists its parameters.
        self.spec = None
        self._stage_listener: Optional[Callable[[StageTiming], None]] = None
        #: Frozen-kernel switch: ``True`` answers queries through the flat
        #: array stores of ``repro.kernels``; ``False`` keeps the pure-Python
        #: reference path.  Results are bit-identical either way.
        self.use_kernels: bool = True
        #: Set for good by :meth:`adopt_stores`: the index's own structures
        #: no longer describe the served epoch, so a query whose store is not
        #: attached raises instead of freezing one from them.
        self.store_reader = False
        self._kernel_epoch = 0
        self._kernel_stores: Dict[str, object] = {}
        self._graph_snapshot_cache = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def build(self) -> float:
        """Construct the index; returns the construction time in seconds."""
        with obs.span(
            self.name.lower() + ".build",
            index=self.name,
            vertices=self.graph.num_vertices,
            edges=self.graph.num_edges,
        ):
            with Timer() as timer:
                self._build()
        self.build_seconds = timer.seconds
        self._built = True
        self.invalidate_kernels()
        if obs.is_enabled():
            registry = obs.registry()
            registry.counter(
                "repro_index_builds_total", "Completed index builds", index=self.name
            ).inc()
            registry.histogram(
                "repro_index_build_seconds", "Index construction wall time",
                index=self.name,
            ).record(timer.seconds)
            rss = obs.peak_rss_bytes()
            if rss is not None:
                registry.gauge(
                    "repro_index_build_peak_rss_bytes",
                    "Process peak RSS sampled right after the build",
                    index=self.name,
                ).set(rss)
        return self.build_seconds

    @abc.abstractmethod
    def _build(self) -> None:
        """Concrete construction logic."""

    @abc.abstractmethod
    def query(self, source: int, target: int) -> float:
        """Return the shortest distance between ``source`` and ``target``."""

    # ------------------------------------------------------------------
    # Batch query plane
    # ------------------------------------------------------------------
    def query_one_to_many(self, source: int, targets: Sequence[int]) -> List[float]:
        """Shortest distances from ``source`` to every vertex of ``targets``.

        The default implementation is a scalar loop over :meth:`query`, so it
        is always available and always agrees with the scalar path.  Indexes
        override it to amortise per-query work across the batch (fetching the
        source label once, sharing a single truncated search, …); overrides
        must return the same distances the scalar path returns.
        """
        return [self.query(source, target) for target in targets]

    def query_many(self, pairs: Iterable[QueryPair]) -> List[float]:
        """Shortest distances for many ``(source, target)`` pairs at once.

        Pairs are grouped by source and each group is answered through
        :meth:`query_one_to_many`, so any index that amortises the
        one-to-many case speeds up arbitrary batches for free.  Results are
        returned in input order.  With the default scalar
        :meth:`query_one_to_many` this is exactly the scalar loop.
        """
        pair_list = list(pairs)
        by_source: Dict[int, List[int]] = {}
        for position, (source, _target) in enumerate(pair_list):
            by_source.setdefault(source, []).append(position)
        results: List[float] = [0.0] * len(pair_list)
        for source, positions in by_source.items():
            distances = self.query_one_to_many(
                source, [pair_list[position][1] for position in positions]
            )
            for position, distance in zip(positions, distances):
                results[position] = distance
        return results

    def query_bidijkstra(self, source: int, target: int) -> float:
        """Index-free bidirectional Dijkstra on the live graph.

        The first query stage of every multi-stage index: correct as soon as
        the on-spot edge update is done.  Runs over the CSR graph snapshot
        when kernels are on (a literal port, bit-identical to the live search).
        """
        snapshot = self._graph_snapshot()
        if snapshot is not None:
            return snapshot.bidijkstra(source, target)
        return bidijkstra(self.graph, source, target)

    def apply_batch(self, batch: UpdateBatch) -> UpdateReport:
        """Apply a batch of edge-weight updates to the graph and the index.

        Template method: the per-method maintenance logic lives in
        :meth:`_apply_batch`; this wrapper owns the cross-cutting concerns —
        currently the ``<method>.apply_batch`` tracing span that every
        per-stage span nests under (see ``repro.obs``).
        """
        if not obs.is_enabled():
            return self._apply_batch(batch)
        with obs.span(
            self.name.lower() + ".apply_batch", index=self.name, updates=len(batch)
        ):
            return self._apply_batch(batch)

    @abc.abstractmethod
    def _apply_batch(self, batch: UpdateBatch) -> UpdateReport:
        """Concrete maintenance logic of :meth:`apply_batch`."""

    @abc.abstractmethod
    def index_size(self) -> int:
        """Number of stored index entries (labels + shortcuts)."""

    # ------------------------------------------------------------------
    # Serving hooks
    # ------------------------------------------------------------------
    def set_stage_listener(
        self, listener: Optional[Callable[[StageTiming], None]]
    ) -> None:
        """Install (or clear, with ``None``) the update-stage listener.

        The listener is invoked from within :meth:`apply_batch`, on the thread
        running the update, immediately after each stage completes — i.e. at a
        point where the structures maintained by that stage are internally
        consistent.  The serving engine uses this to publish query-stage
        availability epochs while a batch is still being installed.
        """
        self._stage_listener = listener

    def _emit_stage(self, report: UpdateReport, timing: StageTiming) -> None:
        """Record a finished update stage and notify the stage listener."""
        report.stages.append(timing)
        if obs.is_enabled():
            # Back-dated by its duration, the stage span sits inside the
            # enclosing ``<method>.apply_batch`` span's window.
            obs.record_span(
                self.name.lower() + ".apply_batch." + timing.name,
                timing.seconds,
                index=self.name,
                stage=timing.name,
            )
            obs.registry().counter(
                "repro_update_stages_total", "Completed apply_batch stages",
                index=self.name, stage=timing.name,
            ).inc()
        if self._stage_listener is not None:
            self._stage_listener(timing)

    def vertex_partition(self, v: int) -> Optional[int]:
        """Partition id of ``v``, or ``None`` for unpartitioned indexes.

        Partitioned indexes (PMHL, PostMHL, the PSP baselines) override this;
        the serving engine's distance cache uses it to tag entries so an
        update batch only evicts the partitions it touches.  ``None`` also
        denotes overlay vertices of indexes whose overlay lives outside every
        partition (PostMHL).
        """
        return None

    # ------------------------------------------------------------------
    # Frozen query kernels (see repro.kernels)
    # ------------------------------------------------------------------
    @property
    def kernel_epoch(self) -> int:
        """Monotonic counter of kernel invalidations (one per build/update)."""
        return self._kernel_epoch

    def invalidate_kernels(self) -> None:
        """Drop every frozen store; the next query refreezes lazily.

        Called by :meth:`build` and at the *start* of every ``apply_batch``
        (before any structure is mutated), so no query can ever read a store
        frozen from pre-update state.  The serving engine additionally calls
        this when it opens a new epoch, keying freezes to its epoch counter.
        """
        self._kernel_epoch += 1
        self._kernel_stores.clear()
        self._graph_snapshot_cache = None
        if obs.is_enabled():
            obs.registry().counter(
                "repro_kernel_invalidations_total",
                "Kernel-epoch bumps (one per build/update/serving epoch)",
                index=self.name,
            ).inc()

    def _kernel(self, key: str, builder: Callable[[], object]):
        """Per-epoch memo of one frozen store.

        ``builder()`` runs at most once per kernel epoch per ``key``; a
        ``None`` result (freeze unsupported — e.g. numpy unavailable) is
        cached too so unsupported structures don't retry on every query.
        Returns ``None`` whenever ``use_kernels`` is off; a store reader
        raises :class:`~repro.exceptions.StoreNotPublishedError` instead of
        calling ``builder``.
        """
        if not self.use_kernels:
            return None
        entry = self._kernel_stores.get(key, _UNFROZEN)
        if entry is _UNFROZEN:
            if self.store_reader:
                raise StoreNotPublishedError(key)
            if obs.is_enabled():
                with obs.span("kernels.freeze." + key, index=self.name, store=key):
                    entry = builder()
                obs.registry().counter(
                    "repro_kernel_freezes_total",
                    "Frozen-store builds (label 'frozen' distinguishes "
                    "successful freezes from unsupported ones)",
                    index=self.name, store=key, frozen=entry is not None,
                ).inc()
            else:
                entry = builder()
            self._kernel_stores[key] = entry
        return entry

    def _graph_snapshot(self):
        """CSR snapshot of the live graph for index-free searches.

        Self-invalidating: keyed to ``graph.version`` rather than the kernel
        epoch, so out-of-band graph mutation (e.g. a caller editing the graph
        directly) can never be served from a stale snapshot.  A store reader
        serves only the adopted snapshot.
        """
        if not self.use_kernels:
            return None
        snapshot = self._graph_snapshot_cache
        if self.store_reader:
            if snapshot is None:
                raise StoreNotPublishedError("__graph__")
            return snapshot
        if snapshot is None or not snapshot.is_fresh(self.graph):
            from repro.kernels.graph_snapshot import GraphSnapshot

            snapshot = GraphSnapshot.freeze(self.graph)
            self._graph_snapshot_cache = snapshot
        return snapshot

    # ------------------------------------------------------------------
    # Snapshot persistence (see repro.store)
    # ------------------------------------------------------------------
    def to_state(self, io) -> Dict[str, object]:
        """Serialize the built index state into a payload writer.

        ``io`` is a :class:`repro.store.arrays.ArrayWriter`; implementations
        compose the shared serializers of :mod:`repro.store.codec` and return
        a JSON-able tree with embedded array references.  Everything the
        query *and* maintenance paths read must be captured — a loaded index
        answers queries bit-identically and accepts ``apply_batch`` exactly
        like the original.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement snapshot persistence"
        )

    def from_state(self, state: Dict[str, object], io) -> None:
        """Restore the structures serialized by :meth:`to_state`.

        Called on a freshly created (unbuilt) index whose ``graph`` already
        carries the snapshot's edge weights; ``io`` is an array reader over
        the snapshot payload.  ``save_index``/``load_index`` own the
        surrounding lifecycle (built flag, kernel epoch, store reattachment).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement snapshot persistence"
        )

    def _kernel_exports(self) -> Dict[str, Callable[[], object]]:
        """Frozen stores worth persisting: ``{memo key: freezer}``.

        ``save_index`` calls each freezer (forcing a freeze of the current
        epoch if necessary) and writes the resulting store's arrays next to
        the index state, so a loaded index answers its first query through
        reattached stores instead of paying a re-freeze.  The base class
        persists nothing; indexes override this with **every** store their
        :meth:`query_many` reads — a cluster store reader answers from these
        alone (:meth:`adopt_stores`).
        """
        return {}

    def _attach_kernel(self, key: str, store: object) -> None:
        """Install a reattached frozen store under the current kernel epoch."""
        if key == "__graph__":
            self._graph_snapshot_cache = store
        else:
            self._kernel_stores[key] = store

    def adopt_stores(self, stores: Dict[str, object]) -> None:
        """Answer from ``stores`` — frozen by another index — from now on.

        ``stores`` maps memo keys to stores as :meth:`_kernel_exports` names
        them.  The current kernel epoch is dropped, ``stores`` become the
        next one, and the index turns into a :attr:`store_reader` for good:
        once a store reflects updates this index never saw, none may ever be
        frozen from its own structures again.
        """
        self.invalidate_kernels()
        for key, store in stores.items():
            self._attach_kernel(key, store)
        self.store_reader = True

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @property
    def is_built(self) -> bool:
        return self._built

    def describe(self) -> Dict[str, object]:
        """Small summary dictionary used by the experiment reports."""
        return {
            "name": self.name,
            "build_seconds": self.build_seconds,
            "index_size": self.index_size() if self._built else 0,
        }
