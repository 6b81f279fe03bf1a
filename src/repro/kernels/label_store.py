"""Frozen CSR store for H2H-family distance labels.

A :class:`LabelStore` is an immutable, flat-array snapshot of one
:class:`~repro.labeling.h2h.H2HLabels` instance: the per-vertex distance
arrays ``X(v).dis`` become one ``int64`` offset array plus one contiguous
``float64`` data array, the hub positions ``X(v).pos`` become a second CSR
pair, and the tree's Euler-tour LCA oracle is flattened into integer arrays
whose sparse-table entries are packed as ``depth << SHIFT | row`` so the
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
``H2HLabels.query``, the pure-Python reference.  The kernel performs exactly
the reference arithmetic (``dis_s[i] + dis_t[i]`` minimised over
``i ∈ pos[lca]``), so its results are bit-identical to ``H2HLabels.query``;
the equivalence suite in ``tests/test_kernels.py`` enforces this for every
index.

The *layout* (row numbering, LCA arrays, position CSR) depends only on the
tree structure, which weight-only updates never change — it is computed once
per tree and cached on the :class:`~repro.treedec.tree.TreeDecomposition`
keyed by its ``structure_version``.  A freeze after an update batch therefore
only gathers the distance data (one pass of the C kernel's ``gather_rows``)
before packing the epoch's arena.
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


class LabelLayout:
    """Structure-dependent part of a label store (shared across freezes)."""

    __slots__ = (
        "version",
        "row",
        "verts",
        "comp",
        "first",
        "logs",
        "tbl_flat",
        "tbl_off",
        "pos_indptr",
        "pos_data",
    )

    def __init__(self, tree, verts: List[int], pos: Dict[int, List[int]]):
        self.version = getattr(tree, "structure_version", 0)
        self.verts = verts
        self.row = {v: i for i, v in enumerate(verts)}
        row = self.row
        # Force the Euler-tour oracle, then flatten it into row space.
        some = verts[0]
        tree.lca(some, some)
        oracle = tree._lca
        self.comp = np.array([tree.component[v] for v in verts], dtype=np.int64)
        self.first = np.array([oracle._first[v] for v in verts], dtype=np.int64)
        self.logs = np.array(oracle._log, dtype=np.int64)
        depth = tree.depth
        packed = [(depth[v] << SHIFT) | row[v] for v in oracle._euler]
        levels = [
            np.array([packed[i] for i in level], dtype=np.int64)
            for level in oracle._table
        ]
        tbl_off = np.zeros(len(levels) + 1, dtype=np.int64)
        for k, level in enumerate(levels):
            tbl_off[k + 1] = tbl_off[k] + len(level)
        self.tbl_off = tbl_off
        self.tbl_flat = (
            np.concatenate(levels) if levels else np.zeros(0, dtype=np.int64)
        )
        counts = [len(pos[v]) for v in verts]
        self.pos_indptr = np.zeros(len(verts) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.pos_indptr[1:])
        self.pos_data = np.array(
            [i for v in verts for i in pos[v]], dtype=np.int64
        )


def _layout_for(tree, labels) -> Optional[LabelLayout]:
    """The (cached) layout of ``labels``'s tree, or ``None`` if unsupported."""
    verts = sorted(labels.dis.keys())
    if not verts or len(verts) >= (1 << SHIFT):
        return None
    if len(verts) != len(tree.parent):
        # Restricted label builds (dis covering a subset of the tree) keep
        # the pure-Python path; none of the shipped indexes hits this.
        return None
    cached = getattr(tree, "_kernel_layout", None)
    version = getattr(tree, "structure_version", 0)
    if cached is not None and cached.version == version:
        return cached
    layout = LabelLayout(tree, verts, labels.pos)
    tree._kernel_layout = layout
    return layout


#: Arena entries of a label store, in pack order.
_FIELDS = (
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

    def __init__(self, arena: Arena, row: Optional[Dict[int, int]] = None):
        self.arena = arena
        verts = arena["verts"]
        if row is None:
            row = {v: i for i, v in enumerate(verts.tolist())}
        self.row = row
        # Dense id->row remap: turns batch row mapping into one numpy gather
        # (no per-query Python dict lookups) when the id space is dense.
        self._remap = build_remap(verts)
        kernel = native_kernel()
        self.capsule = kernel.build(MASK, *(arena[field] for field in _FIELDS[1:]))
        #: The scalar query ``(source, target) -> distance``: a closure over
        #: the row map and the capsule, so a lookup is one dict probe per
        #: endpoint and one C call.
        self.query = self._make_scalar_query(kernel)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def freeze(cls, labels) -> Optional["LabelStore"]:
        """Freeze ``labels`` into a flat arena-backed store; ``None`` when
        unsupported."""
        layout = _layout_for(labels.tree, labels)
        if layout is None:
            return None
        verts = layout.verts
        rows = list(map(labels.dis.__getitem__, verts))
        dis_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=dis_indptr[1:])
        dis_data = np.empty(int(dis_indptr[-1]), dtype=np.float64)
        native_kernel().gather_rows(rows, dis_indptr, dis_data)
        arena = Arena.pack(
            {
                "verts": np.asarray(verts, dtype=np.int64),
                "comp": layout.comp,
                "first": layout.first,
                "logs": layout.logs,
                "tbl_flat": layout.tbl_flat,
                "tbl_off": layout.tbl_off,
                "pos_indptr": layout.pos_indptr,
                "pos_data": layout.pos_data,
                "dis_indptr": dis_indptr,
                "dis_data": dis_data,
            }
        )
        count_freeze("label_store", "built")
        return cls(arena, row=layout.row)

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
