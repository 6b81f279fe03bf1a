"""Frozen upward-shortcut store for CH-style bidirectional searches.

CH-family query stages (DCH, the CH stage of MHL, the PCH stages of PMHL and
PostMHL, TOAIN's sub-core search, the CH-underlying PSP families) all search
an "upward neighbours" mapping.  A :class:`ShortcutStore` holds that upward
adjacency as CSR arrays packed in one :class:`~repro.kernels.arena.Arena`
(the buffer ``repro.store`` serializes and ``repro.cluster`` shards
mmap-share).  Every contraction keeps its shortcuts in this layout all
along (:mod:`repro.treedec.slots`): each update batch's pass writes the
next epoch's arena (a copy, once a store holds the current one), and the
epoch's store wraps it as it stands — no gather, only ``search_build``'s
checks.  PMHL's PCH store wraps the cross-boundary union's arena, gathered
from the partition and overlay arenas; TOAIN's sub-core store packs the
slots below the core.  :meth:`ShortcutStore.freeze` remains for an
adjacency given as mappings: it copies them, preserving their iteration
order.

The native C kernel borrows the arena views and answers the CH query in C
(scalar and batch) as an elimination-tree query: rows are frozen in
contraction order, a contraction's upward graph is chordal, so the upward
search space of a vertex is its ancestor chain in the elimination tree and
the query walks the two chains of source and target, with no heap.  The
kernel checks the tree shape once when the store is built; a store whose rows
do not form an elimination tree is a ``ValueError``.  The chain walk
evaluates the same float sums the upward Dijkstra of
:func:`repro.hierarchy.ch.ch_bidirectional_query` settles, so results are
bit-identical to that live-dict reference, which is what an index answers
through when the kernel is not loaded (no store is frozen then).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import VertexNotFoundError
from repro.kernels.arena import Arena, build_remap, count_freeze, id_array, pair_ids
from repro.kernels.native import native_kernel


class ShortcutStore:
    """Immutable upward adjacency (vertex -> [(higher-rank neighbor, weight)])."""

    __slots__ = ("arena", "row", "_remap", "capsule")

    def __init__(self, arena: Arena, rows: Optional[Tuple[Dict[int, int], object]] = None):
        """``rows``: the ``(row dict, remap)`` of an earlier store or a
        contraction with the same ids, shared (never mutated) instead of
        rebuilt."""
        self.arena = arena
        if rows is None:
            ids = arena["ids"]
            rows = ({v: i for i, v in enumerate(ids.tolist())}, build_remap(ids))
        self.row, self._remap = rows
        kernel = native_kernel()
        self.capsule = kernel.search_build(
            arena["ids"], arena["indptr"], arena["indices"], arena["weights"]
        )
        if not kernel.search_is_tree(self.capsule):
            raise ValueError("shortcut store rows do not form an elimination tree")

    @classmethod
    def freeze(
        cls, upward: Callable[[int], Mapping[int, float]], vertices: Iterable[int]
    ) -> Optional["ShortcutStore"]:
        """Materialise ``upward(v)`` for every vertex, preserving item order;
        ``None`` when the adjacency leaves ``vertices`` (unsupported)."""
        ids = list(vertices)
        position = {v: i for i, v in enumerate(ids)}
        indptr = [0]
        indices: List[int] = []
        weights: List[float] = []
        for v in ids:
            for u, w in upward(v).items():
                row = position.get(u)
                if row is None:
                    return None
                indices.append(row)
                weights.append(w)
            indptr.append(len(indices))
        count_freeze("shortcut_store", "built")
        return cls(
            Arena.pack(
                {
                    "ids": np.asarray(ids, dtype=np.int64),
                    "indptr": np.asarray(indptr, dtype=np.int64),
                    "indices": np.asarray(indices, dtype=np.int64),
                    "weights": np.asarray(weights, dtype=np.float64),
                }
            )
        )

    # ------------------------------------------------------------------
    # Snapshot persistence (see repro.store)
    # ------------------------------------------------------------------
    def to_state(self, io) -> dict:
        """Serialize the upward adjacency as its arena."""
        state = self.arena.to_state(io)
        state["kind"] = "shortcut_store"
        return state

    @classmethod
    def from_state(cls, state: dict, io) -> "ShortcutStore":
        return cls(Arena.from_state(state, io))

    # ------------------------------------------------------------------
    # Searches (bit-identical to repro.hierarchy.ch)
    # ------------------------------------------------------------------
    def query(self, source: int, target: int) -> float:
        """Elimination-tree CH query over the frozen shortcut arrays.

        Raises :class:`VertexNotFoundError` for a vertex the store never
        froze, also when ``source == target``."""
        row = self.row
        if source not in row:
            raise VertexNotFoundError(source)
        if target not in row:
            raise VertexNotFoundError(target)
        if source == target:
            return 0.0
        return native_kernel().search_query(self.capsule, row[source], row[target], 1)

    def one_to_many(self, source: int, targets: Sequence[int]) -> List[float]:
        """The scalar search looped in C: distances in target order."""
        if source not in self.row:
            raise VertexNotFoundError(source)
        targets = id_array(list(targets))
        pairs = np.empty((len(targets), 2), dtype=targets.dtype)
        pairs[:, 0], pairs[:, 1] = source, targets
        return self.query_ids(pairs).tolist()

    def query_ids(self, pairs: np.ndarray) -> np.ndarray:
        """Distances of a ``(k, 2)`` integer pair array, in order, as
        ``float64``: one C call maps and checks every id, then searches
        every pair without the GIL (``search_query_ids``).  The first vertex
        with no row, in pair order and source before target, is a
        :class:`VertexNotFoundError`."""
        out = np.empty(len(pairs), dtype=np.float64)
        missing = native_kernel().search_query_ids(self.capsule, pairs, self._remap, out, 1)
        if missing >= 0:
            raise VertexNotFoundError(int(pairs.flat[missing]), missing)
        return out

    def query_pairs(self, pairs: Sequence[Tuple[int, int]]) -> List[float]:
        """Distances for arbitrary ``(source, target)`` pairs, input order."""
        return self.query_ids(pair_ids(pairs)).tolist()
