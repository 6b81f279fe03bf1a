"""Common interface of every shortest-distance index in the package.

The experiment harness treats all methods uniformly (BiDijkstra, DCH, DH2H,
N-CH-P, P-TD-P, TOAIN, PMHL, PostMHL): each exposes

* :meth:`DistanceIndex.build` — construct the index (records ``t_c``),
* :meth:`DistanceIndex.query` — answer a shortest-distance query (``t_q``),
* :meth:`DistanceIndex.query_many` / :meth:`DistanceIndex.query_one_to_many` —
  the batch query plane: answer many queries in one call, amortising
  per-query work where the index allows it (:meth:`DistanceIndex.query_ids`
  is its columnar form: a ``(k, 2)`` id array in, ``float64`` out),
* :meth:`DistanceIndex.apply_batch` — install a batch of edge-weight updates
  (``t_u``), returning a per-stage timing breakdown for the multi-stage
  methods,
* :meth:`DistanceIndex.index_size` — number of stored index entries (``|L|``), and
* :meth:`DistanceIndex.stage_catalog` — the stage table: which query stage
  answers once which update stage has finished.

Sizes are reported as *entry counts* rather than bytes because pure-Python
object overhead would otherwise dominate and hide the paper's size ordering.

The three query methods are written once, here: an index declares the frozen
store of its final query stage (:meth:`DistanceIndex._final_store`) and its
pure reference (``_reference_query``, plus ``_reference_one_to_many`` where
it amortises the source), and the base answers through the store's kernels,
or — without a store — checks the endpoints once and runs the reference.
Stage queries reuse the same dispatch (:meth:`DistanceIndex._stage_query`).

Frozen query kernels
--------------------

Every index additionally participates in the *frozen kernel* protocol (see
``repro.kernels``): after a build or update batch completes, the query-side
state can be frozen into flat-array stores that answer scalar and batch
queries without walking dict-of-dict structures.  The base class owns the
lifecycle — a per-index **kernel epoch** that update paths bump via
:meth:`DistanceIndex.invalidate_kernels`, and a per-epoch memo
(:meth:`DistanceIndex._kernel`) so each store is frozen at most once per
epoch.  The stores run on the C kernel of ``repro.kernels.native``, which is
a dependency: :meth:`DistanceIndex.build` loads it first, and a machine
where it does not compile gets
:class:`~repro.exceptions.NativeKernelError` there.  The ``_reference_*``
hooks stay as the stage queries of an index without one final store (the
PSP join) and as the test suite's query oracles.
"""

from __future__ import annotations

import abc
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.exceptions import StoreNotPublishedError, VertexNotFoundError
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
from repro.kernels.arena import pair_ids
from repro.kernels.native import native_kernel
from repro.kernels.shortcut_store import ShortcutStore

#: One ``(source, target)`` query pair of the batch query plane.
QueryPair = Tuple[int, int]

#: Sentinel distinguishing "not yet frozen" from a cached ``None`` (freeze
#: unsupported for this structure).
_UNFROZEN = object()

#: ``released_after`` of a query stage released only once the whole update
#: completes, not by any named update stage.
LAST_STAGE = "__last__"


class QueryStage(NamedTuple):
    """One row of an index's stage table (:meth:`DistanceIndex.stage_catalog`).

    ``query`` answers correctly as soon as the update stage named
    ``released_after`` has finished (:data:`LAST_STAGE`: the whole batch).
    """

    name: str
    released_after: str
    query: Callable[[int, int], float]


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
    #: Work of the batch's label passes (``H2HLabels.update_top_down``):
    #: rows recomputed, columns recomputed, columns whose value changed.
    vertices_visited: int = 0
    columns_recomputed: int = 0
    columns_changed: int = 0
    #: Work of the batch's shortcut passes (``SlotContraction.run``): rows
    #: recomputed, supporter records relaxed, slots whose value changed.
    shortcut_rows_visited: int = 0
    shortcuts_relaxed: int = 0
    shortcuts_changed: int = 0

    @property
    def total_seconds(self) -> float:
        """Sequential wall-clock total over all stages."""
        return sum(stage.seconds for stage in self.stages)


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
    #: ``True`` when the index's final (fastest) query stage is a label lookup,
    #: which the serving engine routes batches through uncached: on a stream
    #: with few repeats a cache probe and fill would only add to it.
    #: Search-based final stages keep ``False``.
    final_stage_is_label_lookup: bool = False
    #: ``True`` on an index with no maintenance (CH, H2H): ``apply_batch``
    #: refuses every batch before anything is written.
    static: bool = False

    def __init__(self, graph: Graph):
        self.graph = graph
        self.build_seconds: float = 0.0
        self._built = False
        #: The :class:`~repro.registry.IndexSpec` this index was created from
        #: (set by ``create_index``); ``save_index`` persists its parameters.
        self.spec = None
        self._stage_listener: Optional[Callable[[StageTiming], None]] = None
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
        """Construct the index; returns the construction time in seconds.
        Loads the C kernel first (:class:`~repro.exceptions.NativeKernelError`
        where it does not compile)."""
        native_kernel()
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

    # ------------------------------------------------------------------
    # Query plane: the final stage's store, or the pure reference
    # ------------------------------------------------------------------
    def query(self, source: int, target: int) -> float:
        """Return the shortest distance between ``source`` and ``target``."""
        return self._stage_query(
            self._final_store(), source, target, self._reference_query
        )

    def query_one_to_many(self, source: int, targets: Sequence[int]) -> List[float]:
        """Shortest distances from ``source`` to every vertex of ``targets``.

        One call of the final store's ``one_to_many`` kernel; without a
        store, :meth:`_reference_one_to_many` answers once every endpoint
        (the source too, even with no targets) is known to exist.  Both
        return the distances the scalar path returns.
        """
        targets = list(targets)
        store = self._final_store()
        if store is not None:
            return store.one_to_many(source, targets)
        self._check_vertices([source, *targets])
        return self._reference_one_to_many(source, targets)

    def query_many(self, pairs: Iterable[QueryPair]) -> List[float]:
        """Shortest distances for many ``(source, target)`` pairs at once,
        in input order: :meth:`query_ids` over the pairs as one array."""
        return self.query_ids(pair_ids(pairs)).tolist()

    def query_ids(self, pairs: np.ndarray) -> np.ndarray:
        """Shortest distances of a ``(k, 2)`` integer pair array, in order,
        as ``float64``: one call of the final store's ``query_ids`` kernel;
        without a store, :meth:`_reference_many` answers."""
        store = self._final_store()
        if store is not None:
            return store.query_ids(pairs)
        return np.array(self._reference_many(pairs.tolist()), dtype=np.float64)

    def _final_store(self):
        """This epoch's frozen store of the final query stage, or ``None``.

        The store answers :meth:`query`, :meth:`query_one_to_many` and
        :meth:`query_ids` and raises
        :class:`~repro.exceptions.VertexNotFoundError` itself; ``None`` (an
        index without one final store, or a test's reference rung) hands
        them to the reference hooks below.  An index's override raises
        :class:`~repro.exceptions.IndexNotBuiltError` before a build.
        """
        return None

    def _reference_query(self, source: int, target: int) -> float:
        """The pure final-stage query, for endpoints known to exist."""
        raise NotImplementedError(f"{type(self).__name__} has no reference query")

    def _reference_one_to_many(self, source: int, targets: List[int]) -> List[float]:
        """The pure one-to-many, for endpoints known to exist: a scalar loop
        unless the index's reference amortises the source."""
        return [self._reference_query(source, target) for target in targets]

    def _reference_many(self, pairs: List[QueryPair]) -> List[float]:
        """The batch without a final store: pairs grouped by source, each
        group answered (and checked) by :meth:`query_one_to_many`, so any
        index that amortises the one-to-many case speeds up arbitrary
        batches for free."""
        by_source: Dict[int, List[int]] = {}
        for position, (source, _target) in enumerate(pairs):
            by_source.setdefault(source, []).append(position)
        results: List[float] = [0.0] * len(pairs)
        for source, positions in by_source.items():
            distances = self.query_one_to_many(
                source, [pairs[position][1] for position in positions]
            )
            for position, distance in zip(positions, distances):
                results[position] = distance
        return results

    def _stage_query(
        self, store, source: int, target: int, reference: Callable[..., float], *args
    ) -> float:
        """One query of a stage: its frozen ``store`` when there is one,
        else ``reference(source, target, *args)`` once both endpoints are
        known to exist."""
        if store is not None:
            return store.query(source, target)
        self._check_endpoints(source, target)
        return reference(source, target, *args)

    def query_bidijkstra(self, source: int, target: int) -> float:
        """Index-free bidirectional Dijkstra on the live graph.

        The first query stage of every multi-stage index: correct as soon as
        the on-spot edge update is done.  Runs over the CSR graph snapshot
        (a literal port of :func:`~repro.algorithms.dijkstra.bidijkstra`, bit
        for bit).
        """
        return self._graph_snapshot().bidijkstra(source, target)

    def apply_batch(self, batch: UpdateBatch) -> UpdateReport:
        """Apply a batch of edge-weight updates to the graph and the index.

        Template method.  A static index, or one not built yet, raises
        before anything is written.  Then U-Stage 1, the same for every
        index: the frozen stores are dropped (no query may read a pre-update
        store), the graph takes the batch (:meth:`_refresh_edges`) and the
        ``edge_update`` stage is emitted, which releases BiDijkstra.  The
        per-method maintenance from U-Stage 2 on lives in
        :meth:`_apply_batch`.  The wrapper also owns the
        ``<method>.apply_batch`` tracing span that every per-stage span nests
        under (see ``repro.obs``), and the report's label-pass and
        shortcut-pass work counters.
        """
        if self.static:
            raise NotImplementedError(f"{type(self).__name__} is static: it has no maintenance")
        self._require_built()
        before = self._label_work()
        before_slots = self._shortcut_work()
        report = UpdateReport()
        with obs.span(
            self.name.lower() + ".apply_batch", index=self.name, updates=len(batch)
        ) if obs.is_enabled() else nullcontext():
            self.invalidate_kernels()
            with Timer() as timer:
                self._refresh_edges(batch)
            self._emit_stage(report, StageTiming("edge_update", timer.seconds))
            self._apply_batch(batch, report)
        (
            report.vertices_visited, report.columns_recomputed, report.columns_changed
        ) = (self._label_work() - before).tolist()
        (
            report.shortcut_rows_visited, report.shortcuts_relaxed, report.shortcuts_changed
        ) = (self._shortcut_work() - before_slots).tolist()
        return report

    def _label_sets(self) -> Iterable:
        """The ``H2HLabels`` this index maintains (none by default)."""
        return ()

    def _label_work(self):
        """The label passes' cumulative work counters, summed over
        :meth:`_label_sets`."""
        return sum((labels.work for labels in self._label_sets()), np.zeros(3, np.int64))

    def _contractions(self) -> Iterable:
        """The ``SlotContraction`` objects this index maintains (none by default)."""
        return ()

    def _shortcut_work(self):
        """The shortcut passes' cumulative work counters, summed over
        :meth:`_contractions`."""
        return sum((c.work for c in self._contractions()), np.zeros(3, np.int64))

    def _apply_batch(self, batch: UpdateBatch, report: UpdateReport) -> None:
        """Maintenance after U-Stage 1: update the index's structures and
        emit each finished stage into ``report``.  An index-free method has
        nothing past the edge refresh."""

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

    def stage_catalog(self) -> Tuple[QueryStage, ...]:
        """Query stages in release order (later rows are faster).

        The one stage table the serving router dispatches on and the
        throughput evaluator models.  Multi-stage indexes (MHL, PMHL,
        PostMHL) list their own; every other index gets the paper's
        protocol: BiDijkstra on the live graph once the on-spot edge refresh
        is done (:meth:`query_bidijkstra`: the C search on the graph snapshot),
        the native query once the whole update completes.
        """
        return (
            QueryStage("bidijkstra_fallback", "edge_update", self.query_bidijkstra),
            QueryStage("native", LAST_STAGE, self.query),
        )

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
        frozen from pre-update state.  The serving engine runs that entry
        under its write lock, so freezes are keyed to its epochs too.

        The graph snapshot is left alone: it is keyed to ``graph.version``
        instead (:meth:`_graph_snapshot`), and the edge refresh
        (:meth:`_refresh_edges`) carries it to the new version.
        """
        self._kernel_epoch += 1
        self._kernel_stores.clear()
        if obs.is_enabled():
            obs.registry().counter(
                "repro_kernel_invalidations_total",
                "Kernel-epoch bumps (one per build/update/serving epoch)",
                index=self.name,
            ).inc()

    def _kernel(self, key: str, builder: Callable[[], object]):
        """Per-epoch memo of one frozen store.

        ``builder()`` runs at most once per kernel epoch per ``key``.  A
        ``None`` result (freeze unsupported for this structure) is cached
        too so unsupported structures don't retry on every query.  A store
        reader raises :class:`~repro.exceptions.StoreNotPublishedError`
        instead of calling ``builder``.
        """
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

    def _refresh_edges(self, batch: UpdateBatch) -> None:
        """U-Stage 1's on-spot edge refresh: apply ``batch`` to the graph.

        The one place a batch changes the graph.  A graph snapshot that was
        fresh before the batch is carried to the new version by rewriting
        only the batch's weight slots (:meth:`GraphSnapshot.patched`); a
        stale one (out-of-band mutation) stays stale and is frozen in full
        on its next use.  A rejected batch raises with the graph and the
        snapshot untouched.
        """
        snapshot = self._graph_snapshot_cache
        fresh = snapshot is not None and snapshot.is_fresh(self.graph)
        batch.apply(self.graph)
        if fresh:
            self._graph_snapshot_cache = snapshot.patched(
                self.graph, [(update.u, update.v) for update in batch]
            )

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
        """Install a reattached frozen store under the current kernel epoch.
        A shortcut store lends its row dict to the contraction it froze, so a
        loaded index keeps one row map per contraction."""
        if key == "__graph__":
            self._graph_snapshot_cache = store
        else:
            self._kernel_stores[key] = store
            if isinstance(store, ShortcutStore):
                for contraction in self._contractions():
                    contraction.share_rows(store)

    def adopt_stores(self, stores: Dict[str, object]) -> None:
        """Answer from ``stores`` — frozen by another index — from now on.

        ``stores`` maps memo keys to stores as :meth:`_kernel_exports` names
        them.  The current kernel epoch is dropped, ``stores`` become the
        next one, and the index turns into a :attr:`store_reader` for good:
        once a store reflects updates this index never saw, none may ever be
        frozen from its own structures again.
        """
        self.invalidate_kernels()
        self._graph_snapshot_cache = None
        for key, store in stores.items():
            self._attach_kernel(key, store)
        self.store_reader = True

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @property
    def is_built(self) -> bool:
        return self._built

    def _require_built(self):
        """Raise :class:`~repro.exceptions.IndexNotBuiltError` before a
        build (an index's override may return its root structure).  An
        index-free method has nothing to require."""

    def _check_endpoints(self, source: int, target: int) -> None:
        """Raise :class:`~repro.exceptions.VertexNotFoundError` unless both
        endpoints are vertices of the graph: what a stage answering from
        Python structures checks first (a frozen store checks its own)."""
        if not self.graph.has_vertex(source):
            raise VertexNotFoundError(source)
        if not self.graph.has_vertex(target):
            raise VertexNotFoundError(target)

    def _check_vertices(self, vertices) -> None:
        """:meth:`_check_endpoints` for many vertices (a list or an integer
        array, pairs interleaved), in one graph call."""
        self.graph.positions(vertices)

    def describe(self) -> Dict[str, object]:
        """Small summary dictionary used by the experiment reports."""
        return {
            "name": self.name,
            "build_seconds": self.build_seconds,
            "index_size": self.index_size() if self._built else 0,
        }
