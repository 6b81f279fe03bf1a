"""Frozen CSR store for H2H-family distance labels.

A :class:`LabelStore` is an immutable, flat-array snapshot of one
:class:`~repro.labeling.h2h.H2HLabels` instance: the per-vertex distance
arrays ``X(v).dis`` are one ``int64`` offset array plus one contiguous
``float64`` data array, the hub positions ``X(v).pos`` a second CSR pair,
and the tree's Euler-tour LCA entries are integer arrays whose sparse-table
entries are packed as ``depth << SHIFT | row`` so the range-minimum over
depths is a plain integer minimum.

All of those arrays live side by side in one :class:`~repro.kernels.arena.
Arena` — the unified buffer that ``repro.store`` serializes as a single
payload and ``repro.cluster`` workers mmap-share, and whose views the native
kernel borrows without copying.

The C kernel of ``repro.kernels.native`` answers every query over those
views: a scalar query is one call, and a batch (:meth:`one_to_many`,
:meth:`query_pairs`) crosses into C once with ``int64`` row buffers in and a
``float64`` output buffer out, so there is no per-query Python and no
per-query numpy temporary.  A store exists only when that kernel is loaded
(``repro.base.DistanceIndex._kernel``); without it the index answers through
``H2HLabels.query``, the pure reference.  The kernel performs exactly the
reference arithmetic (``dis_s[i] + dis_t[i]`` minimised over
``i ∈ pos[lca]``), so its results are bit-identical to ``H2HLabels.query``;
the equivalence suite in ``tests/test_kernels.py`` enforces this for every
index.

The labels *are* this arena: :func:`layout_arrays` assembles the topology
entries (row numbering, LCA arrays, position CSR, ``dis`` offsets) once per
tree from the row-space tree (:mod:`repro.treedec.tree`, numpy over the
contraction's arena), weight-only updates write only ``dis_data``, and
:meth:`LabelStore.freeze` wraps the labels' arena as it stands — no gather,
no copy.  The labels copy their buffer on the first write after a wrap, so
a store never sees a later write (``repro.labeling.h2h``).  The C query
indexes the offsets, positions and LCA entries without bounds checks, so
every *load* of a label arena — as labels or as a store — checks them first
(:func:`check_query_arrays`); a freeze wraps labels already checked.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import VertexNotFoundError
from repro.kernels.arena import Arena, build_remap, count_freeze, rows_of
from repro.kernels.native import native_kernel

#: Rows are packed into the low bits of sparse-table entries; depth goes in
#: the high bits.  2^22 rows is far beyond any graph this package indexes.
SHIFT = 22
MASK = (1 << SHIFT) - 1


def floor_log2(count: int) -> np.ndarray:
    """``[0, floor(log2 1), ..., floor(log2 count)]``: the sparse table's
    level of each window length (entry 0 unused)."""
    logs = np.zeros(count + 1, dtype=np.int64)
    logs[1:] = np.frexp(np.arange(1, count + 1, dtype=np.float64))[1] - 1
    return logs


def layout_arrays(tree) -> Dict[str, np.ndarray]:
    """The topology entries of ``tree``'s label arena, rows in the tree's
    (ascending vertex id): everything but ``dis_data``.

    The LCA entries are the tree's; ``X(v).pos`` is ``v``'s neighbours'
    depths in slot order, then ``v``'s own — one gather of the depths over
    the contraction's slots; row ``v`` of ``dis`` is ``depth[v] + 1`` wide.
    """
    arena, crows, depth = tree.contraction.arena, tree.crows, tree.depth
    by_crow = np.empty_like(depth)
    by_crow[crows] = depth
    # Per contraction row, its neighbours' depths and then its own; the
    # label rows take these rows in their order.
    indptr = arena["indptr"] + np.arange(len(crows) + 1)
    pos = np.insert(by_crow[arena["indices"]], arena["indptr"][1:], by_crow)
    counts = indptr[crows + 1] - indptr[crows]
    pos_indptr, dis_indptr = np.zeros((2, len(crows) + 1), dtype=np.int64)
    np.cumsum(counts, out=pos_indptr[1:])
    np.cumsum(depth + 1, out=dis_indptr[1:])
    pos_data = pos[np.arange(pos_indptr[-1]) + np.repeat(indptr[crows] - pos_indptr[:-1], counts)]
    return {
        "verts": tree.verts,
        "comp": tree.comp,
        "first": tree.first,
        "logs": tree.logs,
        "tbl_flat": tree.tbl_flat,
        "tbl_off": tree.tbl_off,
        "pos_indptr": pos_indptr,
        "pos_data": pos_data,
        "dis_indptr": dis_indptr,
    }


def check_query_arrays(arena: Arena) -> None:
    """Every entry the C query indexes without a bounds check, checked on
    load (``ValueError``): offsets over their data, positions inside their
    rows, ``first`` inside the tour, ``logs`` the floor of log2, ``tbl_off``
    the level lengths, and every table entry a row whose depth (its ``dis``
    width less one) the high bits carry — each row at its ``first``, each
    level's entry the shallower of its two below (the left on a tie).  So a
    query's LCA row is never deeper than either endpoint."""
    n, dis_indptr, pos_indptr = len(arena["verts"]), arena["dis_indptr"], arena["pos_indptr"]
    widths, counts, pos_data = np.diff(dis_indptr), np.diff(pos_indptr), arena["pos_data"]
    if (
        len(widths) != n or len(counts) != n or dis_indptr[0] != 0 or pos_indptr[0] != 0
        or dis_indptr[-1] != len(arena["dis_data"]) or pos_indptr[-1] != len(pos_data)
        or (widths < 1).any() or (counts < 1).any()
    ):
        raise ValueError("label offsets are not monotone over their data")
    if ((pos_data < 0) | (pos_data >= np.repeat(widths, counts))).any():
        raise ValueError("a position is not a column of its row")
    first, logs, tbl_flat, tbl_off = (arena[name] for name in LCA_FIELDS)
    tour = len(logs) - 1
    if len(first) != n or tour < 1 or ((first < 0) | (first >= tour)).any():
        raise ValueError("a label row's first tour position is out of range")
    if not np.array_equal(logs, floor_log2(tour)):
        raise ValueError("the label store's log table is not floor(log2 i)")
    bounds = np.cumsum(tour + 1 - (1 << np.arange(int(logs[-1]) + 1)))
    if not np.array_equal(tbl_off, np.r_[0, bounds]) or bounds[-1] != len(tbl_flat):
        raise ValueError("the sparse-table offsets do not match the level lengths")
    rows = tbl_flat & MASK
    if (tbl_flat < 0).any() or (rows >= n).any():
        raise ValueError("a sparse-table entry names no row")
    if ((tbl_flat >> SHIFT) != widths[rows] - 1).any() or (rows[first] != np.arange(n)).any():
        raise ValueError("the Euler tour does not match the label rows")
    bounds = tbl_off.tolist()
    for k in range(1, len(bounds) - 1):
        below, level = tbl_flat[bounds[k - 1] : bounds[k]], tbl_flat[bounds[k] : bounds[k + 1]]
        left, right = below[: len(level)], below[len(below) - len(level) :]
        if (level != np.where(left >> SHIFT <= right >> SHIFT, left, right)).any():
            raise ValueError("a sparse-table level is not the minimum of the one below")


#: Arena entries of a label store, in pack order.
LABEL_FIELDS = (
    "verts",
    "comp",
    "first",
    "logs",
    "tbl_flat",
    "tbl_off",
    "pos_indptr",
    "pos_data",
    "dis_indptr",
    "dis_data",
)

#: The tree's LCA entries among them.
LCA_FIELDS = LABEL_FIELDS[2:6]


class LabelStore:
    """One frozen snapshot of an ``H2HLabels`` instance (see module docs)."""

    __slots__ = ("arena", "row", "_remap", "capsule", "query")

    def __init__(self, arena: Arena, rows: Optional[Tuple[Dict[int, int], object]] = None):
        """``rows`` is the ``(row dict, dense remap)`` pair of the labels the
        arena belongs to; derived from ``verts`` when omitted."""
        self.arena = arena
        if rows is None:
            verts = arena["verts"]
            rows = ({v: i for i, v in enumerate(verts.tolist())}, build_remap(verts))
        # The dense id->row remap turns batch row mapping into one numpy
        # gather (no per-query dict lookups) when the id space is dense.
        self.row, self._remap = rows
        kernel = native_kernel()
        self.capsule = kernel.build(MASK, *(arena[field] for field in LABEL_FIELDS[1:]))
        #: The scalar query ``(source, target) -> distance``: a closure over
        #: the row map and the capsule, so a lookup is one dict probe per
        #: endpoint and one C call.
        self.query = self._make_scalar_query(kernel)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def freeze(cls, labels) -> Optional["LabelStore"]:
        """Wrap ``labels``'s arena as it stands; ``None`` when its rows do
        not fit the packed sparse table.  The labels copy their buffer on
        their next write, so this store keeps its bytes."""
        if len(labels.keys) >= (1 << SHIFT):
            return None
        store = cls(labels.wrap(), rows=(labels.row, labels.remap))
        count_freeze("label_store", "reused")
        return store

    # ------------------------------------------------------------------
    # Snapshot persistence (see repro.store)
    # ------------------------------------------------------------------
    def to_state(self, io) -> dict:
        """Serialize the store as its arena: one payload array + the TOC.

        Everything needed to answer queries lives in the arena — including
        the structure-derived LCA arrays — so :meth:`from_state` reattaches
        a ready store without touching the tree decomposition.
        """
        state = self.arena.to_state(io)
        state["kind"] = "label_store"
        return state

    @classmethod
    def from_state(cls, state: dict, io) -> "LabelStore":
        """Rebuild a store over its entry of the mapped snapshot payload,
        what the C query indexes checked first (:func:`check_query_arrays`)."""
        arena = Arena.from_state(state, io)
        check_query_arrays(arena)
        return cls(arena)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _make_scalar_query(self, kernel):
        row = self.row
        capsule = self.capsule
        native_query = kernel.query

        def query(source: int, target: int) -> float:
            try:
                rs = row[source]
                rt = row[target]
            except (KeyError, TypeError):
                raise VertexNotFoundError(
                    source if source not in row else target
                ) from None
            if source == target:
                return 0.0
            return native_query(capsule, rs, rt)

        return query

    def _rows_of(self, vertices: Sequence[int]):
        """Map a vertex sequence to an ``int64`` row array (one gather when
        the id space is dense — the only per-batch Python is this call)."""
        return rows_of(self.row, self._remap, vertices)

    def one_to_many(self, source: int, targets: Sequence[int]) -> List[float]:
        """Distances from ``source`` to every target (bit-identical batch)."""
        row = self.row
        if source not in row:
            raise VertexNotFoundError(source)
        targets = list(targets)
        if not targets:
            return []
        out = np.empty(len(targets), dtype=np.float64)
        native_kernel().one_to_many(self.capsule, row[source], self._rows_of(targets), out)
        return out.tolist()

    def query_pairs(self, pairs: Sequence[Tuple[int, int]]) -> List[float]:
        """Distances for arbitrary ``(source, target)`` pairs, input order."""
        pairs = list(pairs)
        if not pairs:
            return []
        s_rows = self._rows_of([s for s, _ in pairs])
        t_rows = self._rows_of([t for _, t in pairs])
        out = np.empty(len(pairs), dtype=np.float64)
        native_kernel().query_pairs(self.capsule, s_rows, t_rows, out)
        return out.tolist()
