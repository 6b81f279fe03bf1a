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
epoch.  A store exists only when the C kernel of ``repro.kernels.native``
is loaded — the one rule, checked where stores are frozen (here) and where
they are loaded (``repro.store``).  Without it, or with the ``use_kernels``
flag off (default on, settable through the registry specs), an index answers
through its pure-Python reference path; both return bit-identical distances.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.algorithms.dijkstra import bidijkstra
from repro.exceptions import StoreNotPublishedError, VertexNotFoundError
from repro.graph.graph import Graph
from repro.graph.updates import UpdateBatch
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
        #: array stores of ``repro.kernels`` (when the C kernel is loaded);
        #: ``False`` keeps the pure-Python reference path.  Results are
        #: bit-identical either way.
        self.use_kernels: bool = True
        #: Set for good by :meth:`adopt_stores`: the index's own structures
        #: no longer describe the served epoch, so a query whose store is not
        #: attached raises instead of freezing one from them.
        self.store_reader = False
        self._kernel_epoch = 0
        self._kernel_stores: Dict[str, object] = {}
        self._graph_snapshot_cache = None
        #: The shortcut stores and graph snapshot (under ``"__graph__"``) the
        #: last invalidation dropped, by memo key: a refreeze gathers its
        #: values into the template's layout (see :meth:`_kernel`).
        self._kernel_templates: Dict[str, object] = {}

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
        self._check_pairs((source, target) for target in (source, *targets))
        return self._reference_one_to_many(source, targets)

    def query_many(self, pairs: Iterable[QueryPair]) -> List[float]:
        """Shortest distances for many ``(source, target)`` pairs at once.

        One call of the final store's ``query_pairs`` kernel; without a
        store, :meth:`_reference_many` answers.  Results are returned in
        input order.
        """
        pair_list = list(pairs)
        store = self._final_store()
        if store is not None:
            return store.query_pairs(pair_list)
        return self._reference_many(pair_list)

    def _final_store(self):
        """This epoch's frozen store of the final query stage, or ``None``.

        The store answers :meth:`query`, :meth:`query_one_to_many` and
        :meth:`query_many` and raises
        :class:`~repro.exceptions.VertexNotFoundError` itself; ``None`` (the
        pure rung, or an index without one final store) hands them to the
        reference hooks below.  An index's override raises
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
        the ``<method>.apply_batch`` tracing span that every per-stage span
        nests under (see ``repro.obs``), and the report's label-pass work
        counters.
        """
        before = self._label_work()
        if not obs.is_enabled():
            report = self._apply_batch(batch)
        else:
            with obs.span(
                self.name.lower() + ".apply_batch", index=self.name, updates=len(batch)
            ):
                report = self._apply_batch(batch)
        (
            report.vertices_visited, report.columns_recomputed, report.columns_changed
        ) = (self._label_work() - before).tolist()
        return report

    def _label_sets(self) -> Iterable:
        """The ``H2HLabels`` this index maintains (none by default)."""
        return ()

    def _label_work(self):
        """The label passes' cumulative work counters, summed over
        :meth:`_label_sets`."""
        return sum((labels.work for labels in self._label_sets()), np.zeros(3, np.int64))

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

    def stage_catalog(self) -> Tuple[QueryStage, ...]:
        """Query stages in release order (later rows are faster).

        The one stage table the serving router dispatches on and the
        throughput evaluator models.  Multi-stage indexes (MHL, PMHL,
        PostMHL) list their own; every other index gets the paper's
        protocol: BiDijkstra on the live graph once the on-spot edge refresh
        is done (:meth:`query_bidijkstra`: the C search on the kernel rung),
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
        frozen from pre-update state.  The serving engine additionally calls
        this when it opens a new epoch, keying freezes to its epoch counter.

        The dropped stores a refreeze gathers into (those whose class sets
        ``gathers_into_template``) stay on as templates, one per memo key,
        until that key refreezes: weight updates keep their layout, so the
        refreeze copies only values into it.  A template is never served
        and never written (a store is immutable), so a reader still holding
        it answers exactly as before.
        """
        self._kernel_epoch += 1
        templates = self._kernel_templates
        templates.update(
            (key, store)
            for key, store in list(self._kernel_stores.items())
            if getattr(store, "gathers_into_template", False)
        )
        if self._graph_snapshot_cache is not None:
            templates["__graph__"] = self._graph_snapshot_cache
        self._kernel_stores.clear()
        self._graph_snapshot_cache = None
        if obs.is_enabled():
            obs.registry().counter(
                "repro_kernel_invalidations_total",
                "Kernel-epoch bumps (one per build/update/serving epoch)",
                index=self.name,
            ).inc()

    def _kernel(self, key: str, builder: Callable[[object], object]):
        """Per-epoch memo of one frozen store.

        ``builder(template)`` runs at most once per kernel epoch per ``key``;
        ``template`` is the store the last invalidation dropped under ``key``
        (or ``None``), released here: a ``ShortcutStore.freeze`` gathers into
        its layout and itself checks that the layout still fits.  A
        ``None`` result (freeze unsupported for this structure) is cached
        too so unsupported structures don't retry on every query.  Returns
        ``None`` whenever ``use_kernels`` is off or the C kernel is not
        loaded; a store reader raises
        :class:`~repro.exceptions.StoreNotPublishedError` instead of calling
        ``builder``.
        """
        if not self.use_kernels:
            return None
        entry = self._kernel_stores.get(key, _UNFROZEN)
        if entry is _UNFROZEN:
            if self.store_reader:
                raise StoreNotPublishedError(key)
            if native_kernel() is None:
                return None
            template = self._kernel_templates.pop(key, None)
            if obs.is_enabled():
                with obs.span("kernels.freeze." + key, index=self.name, store=key):
                    entry = builder(template)
                obs.registry().counter(
                    "repro_kernel_freezes_total",
                    "Frozen-store builds (label 'frozen' distinguishes "
                    "successful freezes from unsupported ones)",
                    index=self.name, store=key, frozen=entry is not None,
                ).inc()
            else:
                entry = builder(template)
            self._kernel_stores[key] = entry
        return entry

    def _contraction_store(self, key: str, contraction):
        """Frozen upward shortcut arrays of a dict ``contraction`` under
        memo ``key`` — the store of every CH-style search stage but DCH's,
        whose flat contraction is its store."""
        return self._kernel(
            key,
            lambda template: ShortcutStore.freeze(
                contraction.shortcuts.__getitem__, contraction.order, template
            ),
        )

    def _graph_snapshot(self):
        """CSR snapshot of the live graph for index-free searches.

        Self-invalidating: keyed to ``graph.version`` rather than the kernel
        epoch, so out-of-band graph mutation (e.g. a caller editing the graph
        directly) can never be served from a stale snapshot.  A store reader
        serves only the adopted snapshot; without the C kernel there is none.
        """
        if not self.use_kernels:
            return None
        snapshot = self._graph_snapshot_cache
        if self.store_reader:
            if snapshot is None:
                raise StoreNotPublishedError("__graph__")
            return snapshot
        if snapshot is None or not snapshot.is_fresh(self.graph):
            if native_kernel() is None:
                return None
            from repro.kernels.graph_snapshot import GraphSnapshot

            # A stale snapshot (out-of-band mutation) is as good a template
            # as the one the last invalidation dropped.
            template = snapshot or self._kernel_templates.get("__graph__")
            snapshot = GraphSnapshot.freeze(self.graph, template)
            self._graph_snapshot_cache = snapshot
            self._kernel_templates.pop("__graph__", None)
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
        # Nothing here ever freezes again, so no template is ever released.
        self._kernel_templates.clear()
        for key, store in stores.items():
            self._attach_kernel(key, store)
        self.store_reader = True

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @property
    def is_built(self) -> bool:
        return self._built

    def _check_endpoints(self, source: int, target: int) -> None:
        """Raise :class:`~repro.exceptions.VertexNotFoundError` unless both
        endpoints are vertices of the graph: what a stage answering from
        Python structures checks first (a frozen store checks its own)."""
        if not self.graph.has_vertex(source):
            raise VertexNotFoundError(source)
        if not self.graph.has_vertex(target):
            raise VertexNotFoundError(target)

    def _check_pairs(self, pairs: Iterable[QueryPair]) -> None:
        """:meth:`_check_endpoints` for a whole batch, in one graph call."""
        missing = self.graph.missing_endpoint(pairs)
        if missing is not None:
            raise VertexNotFoundError(missing)

    def describe(self) -> Dict[str, object]:
        """Small summary dictionary used by the experiment reports."""
        return {
            "name": self.name,
            "build_seconds": self.build_seconds,
            "index_size": self.index_size() if self._built else 0,
        }
