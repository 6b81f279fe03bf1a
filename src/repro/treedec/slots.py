"""Contractions as flat arrays, maintained bottom-up in one pass.

The paper's updates change edge weights only, so a contraction's topology —
its order, every ``X(v).N`` and every supporter record — survives every
epoch, and only the shortcut values move.  Every contraction here keeps
that split (the topology/weights split of Customizable CH, Dibbelt,
Strasser, Wagner, JEA 2016): DCH's, the H2H family's, the PSP partitions',
extended partitions' and overlay's, PostMHL's and TOAIN's.  Rows are
vertices in contraction order; a *slot* is one shortcut ``(v, u)``, ``u``
in ``X(v).N``.

:class:`FlatContraction` is the read side every contraction shares: the
``arena`` — ``ids`` / ``indptr`` / ``indices`` / ``weights``, the exact
layout of :class:`~repro.kernels.shortcut_store.ShortcutStore` (columns are
rows; a row's slots in ascending neighbour id) — whose epoch store is the
arena itself: no gather.  Two kinds fill it:

* :class:`SlotContraction` owns its weights: one pass computes them at
  build and maintains them after.  Besides the arena it holds ``base`` —
  each slot's graph weight (``inf`` for a fill-in shortcut), patched from
  each batch's updates in order — and ``sup_indptr`` / ``sup_slots``, a
  CSR over slots of ``int32`` slot pairs ``(slot(x, v), slot(x, u))``: one
  per lower row ``x`` whose contraction supports ``(v, u)``.  Every pair of
  ``X(x).N`` is supported by ``x``, so the records are derived from the
  rows.  :func:`eliminate_slots` computes all of it, the order and the rows
  too, from the graph;
* :class:`UnionContraction` owns none: it is the cross-boundary contraction
  of PMHL, the partition and overlay contractions stitched in the global
  order.  Its topology is built once, with one index map per source arena,
  and its weights are gathered from the sources (one ``np.take`` each) at
  construction and by :meth:`UnionContraction.gather`, which the maintainer
  calls once the sources' passes are done.

:func:`eliminate_slots` is a build's topology and :func:`update_slots` the
whole maintenance pass over a :class:`SlotContraction`: each one call of the
C kernel (``eliminate`` / ``eliminate_slots``, ``update_slots``; their
pure-Python twins are the test suite's oracles, in ``tests/oracles``).  A
vertex's fill-in is a set union, so the topology reads no weight; a build is
the pass seeded with every row, so maintained weights are bit-identical to a
fresh build on the updated graph under the same order.  A pass can be confined to a row mask, whose
excluded rows it reports instead of visiting (PostMHL's per-partition
passes), and reports the slots it changed and its work.  Its first write
after a store or a snapshot took the arena copies the buffer first, so no
store of an earlier epoch, or of an earlier stage, sees a later write.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError, VertexNotFoundError
from repro.graph.graph import Graph
from repro.kernels.arena import Arena, build_remap, count_freeze, rows_of
from repro.kernels.native import native_kernel
from repro.kernels.shortcut_store import ShortcutStore
from repro.uniques import first_occurrences, unique

INF = math.inf

#: An empty row mask / escaped-rows buffer: every row may be visited.
NO_ROWS = np.zeros(0, dtype=np.int8)

#: No tiers / no explicit order, for the C ``eliminate``.
NO_INTS = np.zeros(0, dtype=np.int64)


class FlatContraction:
    """The read side of a flat contraction (see the module docstring)."""

    __slots__ = ("_arena", "order", "rank", "remap", "_layout", "_wrapped", "_neighbors")

    def __init__(self, arena: Arena):
        self._arena = arena
        ids = arena["ids"]
        #: Vertices in contraction order, and each vertex's row.
        self.order: List[int] = ids.tolist()
        self.rank: Dict[int, int] = dict(zip(self.order, range(len(self.order))))
        self.remap = build_remap(ids)
        #: The freeze counter's ``layout`` label of this arena's store.
        self._layout = "built"
        #: ``True`` while a store or a snapshot payload holds the arena: the
        #: next write copies the buffer first.
        self._wrapped = False
        self._neighbors: Optional[Dict[int, List[int]]] = None

    @property
    def arena(self) -> Arena:
        """This epoch's arena."""
        return self._arena

    @property
    def num_vertices(self) -> int:
        return len(self.order)

    def shortcut_count(self) -> int:
        return len(self._arena["indices"])

    @property
    def treewidth_upper_bound(self) -> int:
        """Width of the elimination ordering (the widest row)."""
        counts = np.diff(self._arena["indptr"])
        return int(counts.max()) if len(counts) else 0

    @property
    def neighbors(self) -> Dict[int, List[int]]:
        """``{v: X(v).N}`` in slot order: the topology, derived once."""
        if self._neighbors is None:
            arena = self._arena
            columns = arena["ids"][arena["indices"]].tolist()
            bounds = arena["indptr"].tolist()
            self._neighbors = {
                v: columns[lo:hi] for v, lo, hi in zip(self.order, bounds, bounds[1:])
            }
        return self._neighbors

    def upward(self, v: int) -> Dict[int, float]:
        """``v``'s shortcuts this epoch, ``{higher neighbour: weight}``, in
        slot order (the CH reference search's upward mapping)."""
        r, arena = self.rank[v], self.arena
        lo, hi = arena["indptr"][r : r + 2].tolist()
        return dict(zip(self.neighbors[v], arena["weights"][lo:hi].tolist()))

    def rows_of(self, vertices: Sequence[int]) -> np.ndarray:
        """The rows of ``vertices`` (``VertexNotFoundError`` for a stranger)."""
        return rows_of(self.remap, vertices)

    def slot_rows(self, slots: np.ndarray) -> np.ndarray:
        """The owner row of every slot in ``slots``."""
        return np.searchsorted(self._arena["indptr"], slots, side="right") - 1

    def vertices(self, slots: np.ndarray) -> np.ndarray:
        """The distinct owners of ``slots``, as vertex ids (a change report's
        keys: the seeds of a label pass)."""
        return self._arena["ids"][unique(self.slot_rows(slots))]

    def slot_map(self) -> Tuple[List["SlotContraction"], np.ndarray, np.ndarray]:
        """Where each slot's weight lives: ``(sources, source index per slot,
        source slot per slot)``."""
        raise NotImplementedError

    def share_rows(self, store: ShortcutStore) -> None:
        """Use ``store``'s row dict and remap from now on when it froze the
        same ids (a store loaded or adopted next to this contraction)."""
        if np.array_equal(store.arena["ids"], self._arena["ids"]):
            self.rank, self.remap = store.row, store._remap

    def store(self) -> ShortcutStore:
        """This epoch's frozen store: the arena itself, which no pass writes
        again, sharing this contraction's row dict and remap."""
        arena = self.arena
        self._wrapped = True
        count_freeze("shortcut_store", self._layout)
        return ShortcutStore(arena, rows=(self.rank, self.remap))

    def _writable(self) -> Arena:
        """The arena a write goes to: copied first when a store or a
        snapshot holds it; its store reuses the layout from then on."""
        if self._wrapped:
            self._arena = Arena(self._arena.buffer.copy(), self._arena.toc)
            self._wrapped = False
        self._layout = "reused"
        return self._arena


class SlotContraction(FlatContraction):
    """A contraction that owns and maintains its weights (see the module
    docstring)."""

    __slots__ = ("base", "sup_indptr", "sup_slots", "work", "version", "_keys")

    def __init__(self, arena: Arena, base, sup_indptr, sup_slots):
        super().__init__(arena)
        self.base = base
        self.sup_indptr = sup_indptr
        self.sup_slots = sup_slots
        #: Rows recomputed, supporter records relaxed and slots changed,
        #: summed over every pass so far (``UpdateReport`` takes deltas).
        self.work = np.zeros(3, dtype=np.int64)
        #: Bumped by every pass that changes a weight (a union's staleness
        #: check).
        self.version = 0
        #: ``(width, keys)``: each slot's key ``row * width + column id``
        #: (``width`` = max id + 1), derived on first use.  The keys ascend:
        #: rows do, and a row's slots are in ascending neighbour id.
        self._keys: Optional[Tuple[int, np.ndarray]] = None

    @classmethod
    def build(
        cls,
        graph: Graph,
        order: Optional[Sequence[int]] = None,
        tiers: Optional[Dict[int, int]] = None,
    ) -> "SlotContraction":
        """Contract ``graph``: the topology of :func:`eliminate_slots` (the
        rows laid out flat, each slot's graph weight in ``base``, the
        supporters), and the weights from one :func:`update_slots` pass
        seeded with every row.  The pass is not a window: it adds nothing to
        :attr:`work` and leaves :attr:`version` as it is."""
        ids, indptr, indices, base, sup_indptr, sup_slots = eliminate_slots(
            graph, order=order, tiers=tiers
        )
        n, m = len(ids), len(indices)
        arena = Arena.pack({"ids": ids, "indptr": indptr, "indices": indices, "weights": base})
        contraction = cls(arena, base, sup_indptr, sup_slots)
        update_slots(
            arena["indptr"], arena["indices"], base, contraction.sup_indptr,
            contraction.sup_slots, arena["weights"], np.arange(n, dtype=np.int64), NO_ROWS,
            NO_ROWS, np.zeros(m, dtype=np.int8), np.zeros(3, dtype=np.int64),
        )
        return contraction

    def slot_map(self):
        m = self.shortcut_count()
        return [self], np.zeros(m, dtype=np.int64), np.arange(m, dtype=np.int64)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def locate(self, us: Sequence[int], vs: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """``(owner rows, slots)`` of the shortcuts ``(us[i], vs[i])``: one
        ``searchsorted`` over the slot keys.  A pair with no slot —
        an endpoint outside the contraction, a loop, two vertices no row
        joins — is a :class:`~repro.exceptions.GraphError` naming it."""
        ids = self._arena["ids"]
        if self._keys is None:
            indices, width = self._arena["indices"], int(ids.max(initial=0)) + 1
            self._keys = (width, self.slot_rows(np.arange(len(indices))) * width + ids[indices])
        width, slot_keys = self._keys
        try:
            ru, rv = self.rows_of(us), self.rows_of(vs)
        except VertexNotFoundError:
            found = [u in self.rank and v in self.rank for u, v in zip(us, vs)]
        else:
            low, high = np.minimum(ru, rv), np.maximum(ru, rv)
            # A loop's key names its own row as a column: no slot's.
            keys = low * width + ids[high]
            at = np.searchsorted(slot_keys, keys)
            found = at < len(slot_keys)
            found[found] = slot_keys[at[found]] == keys[found]
            if found.all():
                return low, at
        i = found.index(False) if isinstance(found, list) else int(np.argmin(found))
        raise GraphError(f"edge ({us[i]}, {vs[i]}) has no shortcut slot in this contraction")

    def patch(self, us: Sequence[int], vs: Sequence[int], weights: Sequence[float]) -> np.ndarray:
        """Install new graph weights into ``base`` and return the owner rows
        (the pass's seeds).  Pairs are located before anything is written;
        a pair named twice ends at its last weight, as the graph does."""
        rows, slots = self.locate(us, vs)
        if len(slots):
            last = len(slots) - 1 - first_occurrences(slots[::-1])
            self.base[slots[last]] = np.asarray(weights, dtype=np.float64)[last]
        return rows

    def run(self, seeds, mask=NO_ROWS, escaped=NO_ROWS) -> np.ndarray:
        """One :func:`update_slots` pass from the ``seeds`` rows (confined to
        ``mask``'s rows, excluded ones flagged in ``escaped``, when a mask is
        given); returns the slots whose weight changed, ascending."""
        seeds = np.asarray(seeds, dtype=np.int64)
        if not len(seeds):
            return seeds
        arena = self._writable()
        changed = np.zeros(len(self.base), dtype=np.int8)
        counts = np.zeros(3, dtype=np.int64)
        update_slots(
            arena["indptr"], arena["indices"], self.base, self.sup_indptr, self.sup_slots,
            arena["weights"], seeds, mask, escaped, changed, counts,
        )
        self.work += counts
        if counts[2]:
            self.version += 1
        return np.flatnonzero(changed)

    def update(self, updates) -> np.ndarray:
        """Install ``updates`` (``EdgeUpdate`` objects, in order) and run one pass
        from their owner rows; returns the changed slots."""
        updates = list(updates)
        return self.run(self.patch(
            [update.u for update in updates], [update.v for update in updates],
            [update.new_weight for update in updates],
        ))

    # ------------------------------------------------------------------
    # Snapshot persistence (see repro.store)
    # ------------------------------------------------------------------
    def to_state(self, io) -> Dict[str, object]:
        """The arena, ``base`` and the supporter CSR, as written."""
        state = self._arena.to_state(io)
        state["base"] = io.put_array(self.base)
        state["sup_indptr"] = io.put_array(self.sup_indptr)
        state["sup_slots"] = io.put_array(self.sup_slots)
        return state

    @classmethod
    def from_state(cls, state: Dict[str, object], io) -> "SlotContraction":
        """Reattach the arrays (``base`` is copied: updates patch it; the
        arena is copied on the first write).  The shortcut CSR, which the
        reference CH search walks, is checked here (:func:`check_shortcut_csr`);
        the supporter arrays only for their dtype: the C pass checks the
        rest before it reads."""
        sup_slots = io.get_array(state["sup_slots"])
        if sup_slots.dtype != np.int32:
            raise ValueError("supporter slots must be int32")
        arena = Arena.from_state(state, io)
        check_shortcut_csr(arena)
        contraction = cls(
            arena,
            np.array(io.get_array(state["base"]), dtype=np.float64),
            io.get_array(state["sup_indptr"]),
            sup_slots,
        )
        contraction._wrapped = True
        return contraction


class UnionContraction(FlatContraction):
    """Several contractions' rows stitched in one order, weights gathered
    from their arenas (see the module docstring)."""

    __slots__ = ("_sources", "_slot_sid", "_slot_src", "_maps")

    def __init__(self, order: Sequence[int], pieces: Sequence[Tuple[SlotContraction, Sequence[int]]]):
        """Row ``v`` of ``order`` is ``v``'s row in the one piece
        ``(source, vertices)`` that lists it; every column must be a vertex
        of ``order``."""
        ids = np.asarray(order, dtype=np.int64)
        n = len(ids)
        rank = dict(zip(ids.tolist(), range(n)))
        remap = build_remap(ids)
        sid = np.full(n, -1, dtype=np.int64)
        start = np.zeros(n, dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)
        for i, (source, vertices) in enumerate(pieces):
            rows = rows_of(remap, list(vertices))
            own = source.rows_of(list(vertices))
            indptr = source.arena["indptr"]
            sid[rows], start[rows], counts[rows] = i, indptr[own], indptr[own + 1] - indptr[own]
        if (sid < 0).any():
            raise ValueError("a vertex of the order has no source contraction")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        m = int(indptr[-1])
        slot_sid = np.repeat(sid, counts)
        slot_src = np.arange(m, dtype=np.int64) + np.repeat(start - indptr[:-1], counts)
        indices = np.empty(m, dtype=np.int64)
        self._sources = [source for source, _ in pieces]
        self._maps = []
        for i, source in enumerate(self._sources):
            dst = np.flatnonzero(slot_sid == i)
            src = slot_src[dst]
            arena = source.arena
            indices[dst] = rows_of(remap, arena["ids"][arena["indices"][src]])
            self._maps.append((source, dst, src))
        self._slot_sid, self._slot_src = slot_sid, slot_src
        weights = np.empty(m, dtype=np.float64)
        self._fill(weights)
        super().__init__(Arena.pack({
            "ids": ids, "indptr": indptr, "indices": indices, "weights": weights,
        }))

    def _fill(self, weights: np.ndarray) -> None:
        for source, dst, src in self._maps:
            weights[dst] = source.arena["weights"].take(src)

    def gather(self) -> None:
        """Gather the sources' weights into this epoch's arena (a copy, when
        a store holds the current one).  The maintainer calls it once the
        sources' passes are done, before it releases a stage that reads the
        union, so a reader's :meth:`store` only wraps."""
        self._fill(self._writable()["weights"])

    def slot_map(self):
        return list(self._sources), self._slot_sid, self._slot_src


def eliminate_slots(
    graph: Graph,
    order: Optional[Sequence[int]] = None,
    tiers: Optional[Dict[int, int]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A contraction's topology: ``(order, indptr, indices, base, sup_indptr,
    sup_slots)``, from the C kernel's ``eliminate`` and ``eliminate_slots``
    entries over the graph's own CSR arrays.

    ``order`` holds the vertex ids in elimination order: explicit, or the
    tiered minimum-degree order (every vertex of a lower tier, default 0,
    before any of a higher one; within a tier the vertex of minimum current
    degree, ties by id — how PSP's boundary-first order is realised).  Row
    ``i`` owns slots ``indptr[i]..indptr[i + 1]``, one per vertex of
    ``X(order[i]).N`` in ascending id, ``indices`` naming each one's row and
    ``base`` its graph weight (``inf`` for fill-in).  The supporter CSR
    groups by target slot the ``int32`` slot pairs ``(slot(x, v), slot(x,
    u))`` of every lower row ``x`` whose contraction supports ``(v, u)``,
    supporters in ascending row order.  A bad ``order`` is a
    :class:`~repro.exceptions.GraphError` (:func:`check_order`)."""
    kernel = native_kernel()
    ids, sizes, elimination = _eliminate(kernel, graph, order, tiers)
    m, records = sizes.tolist()
    arrays = (
        np.empty(len(ids) + 1, dtype=np.int64), np.empty(m, dtype=np.int64),
        np.empty(m, dtype=np.float64), np.empty(m + 1, dtype=np.int64),
        np.empty(2 * records, dtype=np.int32),
    )
    kernel.eliminate_slots(elimination, *arrays)
    return (ids, *arrays)


def elimination_order(graph: Graph, tiers: Optional[Dict[int, int]] = None) -> List[int]:
    """The tiered minimum-degree order of ``graph`` alone (no slot layout):
    :func:`eliminate_slots`'s ``order``."""
    return _eliminate(native_kernel(), graph, None, tiers)[0].tolist()


def _eliminate(kernel, graph: Graph, order, tiers):
    """The C ``eliminate`` over the graph's own CSR arrays: ``(order ids,
    [slots, supporter records], the rows' capsule)``."""
    check_order(graph, order)
    n = graph.num_vertices
    tier_of = (
        np.fromiter((tiers.get(v, 0) for v in graph.id_list), np.int64, n) if tiers else NO_INTS
    )
    explicit = NO_INTS if order is None else np.asarray(order, dtype=np.int64)
    out_order = np.empty(n, dtype=np.int64)
    sizes = np.zeros(2, dtype=np.int64)
    elimination = kernel.eliminate(
        graph.ids, graph.indptr, graph.indices, graph.slot_weights,
        tier_of, explicit, out_order, sizes,
    )
    return out_order, sizes, elimination


def check_order(graph: Graph, order: Optional[Sequence[int]]) -> None:
    """A :class:`~repro.exceptions.GraphError` for an empty ``graph``, or for
    an explicit ``order`` that is not a permutation of its vertices: the
    first entry outside the graph or named twice is the one reported."""
    if graph.num_vertices == 0:
        raise GraphError("cannot contract an empty graph")
    if order is None:
        return
    wanted = np.asarray(order, dtype=np.int64)
    if len(wanted) == graph.num_vertices and np.array_equal(np.sort(wanted), graph.ids):
        return  # a permutation of the (sorted, distinct) ids
    known = np.isin(wanted, graph.ids)
    first = np.zeros(len(wanted), dtype=bool)
    first[first_occurrences(wanted)] = True
    if not (known & first).all():
        at = int(np.argmin(known & first))
        problem = "appears twice in the contraction order" if known[at] else "is not in the graph"
        raise GraphError(f"vertex {order[at]} {problem}")
    if len(wanted) != graph.num_vertices:
        raise GraphError(
            f"explicit order must cover all {graph.num_vertices} vertices exactly once"
        )


def check_shortcut_csr(arena: Arena) -> None:
    """``ValueError`` unless the arena's rows are a CSR over its ``ids``
    (``indptr`` starts at 0, never falls and ends at the arc count, one
    weight per arc, every arc names a row) whose arcs all go to a later
    row; the reasons read as the C search's own refusals."""
    indptr, indices = arena["indptr"], arena["indices"]
    n, m = len(arena["ids"]), len(indices)
    if (
        len(indptr) != n + 1 or indptr[0] != 0 or indptr[-1] != m
        or len(arena["weights"]) != m or (np.diff(indptr) < 0).any()
        or (m and (indices.min() < 0 or indices.max() >= n))
    ):
        raise ValueError("shortcut-arena CSR arrays are inconsistent")
    if (indices <= np.repeat(np.arange(n), np.diff(indptr))).any():
        raise ValueError("shortcut-arena rows do not form an elimination tree")


def update_slots(
    indptr, indices, base, sup_indptr, sup_slots, weights, seeds, mask, escaped, changed, counts,
) -> None:
    """The bottom-up pass from the ``seeds`` rows, writing only ``weights``
    and the three outputs: the C kernel's ``update_slots`` (its comment has
    the algorithm and the input checks)."""
    native_kernel().update_slots(
        indptr, indices, base, sup_indptr, sup_slots, weights, seeds, mask, escaped, changed,
        counts,
    )
