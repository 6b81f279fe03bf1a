"""Frozen CSR store for H2H-family distance labels.

A :class:`LabelStore` is an immutable, flat-array snapshot of one
:class:`~repro.labeling.h2h.H2HLabels` instance: the per-vertex distance
arrays ``X(v).dis`` are one ``int64`` offset array plus one contiguous
``float64`` data array, the hub positions ``X(v).pos`` a second CSR pair,
and the tree's Euler-tour LCA oracle is flattened into integer arrays whose
sparse-table entries are packed as ``depth << SHIFT | row`` so the
range-minimum over depths is a plain integer minimum.

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

The labels *are* this arena: :func:`layout_arrays` derives the topology
entries (row numbering, LCA arrays, position CSR, ``dis`` offsets) once per
tree, weight-only updates write only ``dis_data``, and :meth:`LabelStore.
freeze` wraps the labels' arena as it stands — no gather, no copy.  The
labels copy their buffer on the first write after a wrap, so a store never
sees a later write (``repro.labeling.h2h``).
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


def layout_arrays(tree, verts: List[int], row: Dict[int, int]) -> Dict[str, np.ndarray]:
    """The topology entries of ``tree``'s label arena, rows in ``verts``
    order (``row`` maps a vertex to its row): everything but ``dis_data``.

    ``X(v).pos`` is ``v``'s neighbours' depths in contraction order, then
    ``v``'s own; row ``v`` of ``dis`` is ``depth[v] + 1`` wide.
    """
    some = verts[0]
    tree.lca(some, some)  # force the Euler-tour oracle
    oracle = tree._lca
    depth = tree.depth
    packed = np.array(
        [(depth[v] << SHIFT) | row[v] for v in oracle._euler], dtype=np.int64
    )
    levels = [packed[np.asarray(level, dtype=np.int64)] for level in oracle._table]
    tbl_off = np.zeros(len(levels) + 1, dtype=np.int64)
    np.cumsum([len(level) for level in levels], out=tbl_off[1:])
    pos = [[depth[x] for x in tree.neighbors(v)] + [depth[v]] for v in verts]
    pos_indptr = np.zeros(len(verts) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in pos], out=pos_indptr[1:])
    dis_indptr = np.zeros(len(verts) + 1, dtype=np.int64)
    np.cumsum([depth[v] + 1 for v in verts], out=dis_indptr[1:])
    return {
        "verts": np.asarray(verts, dtype=np.int64),
        "comp": np.array([tree.component[v] for v in verts], dtype=np.int64),
        "first": np.array([oracle._first[v] for v in verts], dtype=np.int64),
        "logs": np.array(oracle._log, dtype=np.int64),
        "tbl_flat": np.concatenate(levels) if levels else np.zeros(0, dtype=np.int64),
        "tbl_off": tbl_off,
        "pos_indptr": pos_indptr,
        "pos_data": np.fromiter(
            (i for p in pos for i in p), dtype=np.int64, count=int(pos_indptr[-1])
        ),
        "dis_indptr": dis_indptr,
    }


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
        """Rebuild a store from a snapshot payload (mmap-backed when possible)."""
        return cls(Arena.from_state(state, io))

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
