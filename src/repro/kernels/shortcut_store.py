"""Frozen upward-shortcut store for CH-style bidirectional searches.

CH-family query stages (DCH, the CH stage of MHL, the PCH stages of PMHL and
PostMHL, TOAIN's sub-core search, the CH-underlying PSP families) all search
an "upward neighbours" mapping.  A :class:`ShortcutStore` holds that upward
adjacency as CSR arrays packed in one :class:`~repro.kernels.arena.Arena`
(the buffer ``repro.store`` serializes and ``repro.cluster`` shards
mmap-share), in one of two ways:

* DCH keeps its shortcuts in this layout all along
  (:class:`~repro.treedec.slots.SlotContraction`): each update batch writes
  the next epoch's arena, and the epoch's store wraps it as it stands —
  no gather, no template, only ``search_build``'s checks;
* every other stage reads live dict-of-dict shortcut arrays, sometimes
  filtered or merged per call, and :meth:`ShortcutStore.freeze` copies them,
  preserving the mappings' iteration order, gathering into the previous
  epoch's layout when it still fits.

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
from repro.kernels.arena import Arena, build_remap, count_freeze, regather, rows_of
from repro.kernels.native import native_kernel


class ShortcutStore:
    """Immutable upward adjacency (vertex -> [(higher-rank neighbor, weight)])."""

    __slots__ = ("arena", "row", "_remap", "capsule")

    #: A refreeze gathers into the previous epoch's store, so an index keeps
    #: the store it drops as the template of its memo key.
    gathers_into_template = True

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
        cls,
        upward: Callable[[int], Mapping[int, float]],
        vertices: Iterable[int],
        template: Optional["ShortcutStore"] = None,
    ) -> Optional["ShortcutStore"]:
        """Materialise ``upward(v)`` for every vertex, preserving item order;
        ``None`` when the adjacency leaves ``vertices`` (unsupported).

        ``template`` is the previous epoch's store of the same adjacency:
        weight updates keep the shortcut set, so only the weights are
        gathered into its layout (:func:`~repro.kernels.arena.regather`);
        when a row no longer fits it, the layout is rebuilt from scratch.
        """
        ids = list(vertices)
        if template is not None:
            arena = regather(template, ids, map(upward, ids))
            if arena is not None:
                count_freeze("shortcut_store", "reused")
                return cls(arena, rows=(template.row, template._remap))
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
        row = self.row
        if source not in row:
            raise VertexNotFoundError(source)
        targets = list(targets)
        if not targets:
            return []
        s_rows = np.full(len(targets), row[source], dtype=np.int64)
        t_rows = rows_of(row, self._remap, targets)
        out = np.empty(len(targets), dtype=np.float64)
        native_kernel().search_query_pairs(self.capsule, s_rows, t_rows, out, 1)
        return out.tolist()

    def query_pairs(self, pairs: Sequence[Tuple[int, int]]) -> List[float]:
        """Distances for arbitrary ``(source, target)`` pairs, input order."""
        pairs = list(pairs)
        if not pairs:
            return []
        s_rows = rows_of(self.row, self._remap, [s for s, _ in pairs])
        t_rows = rows_of(self.row, self._remap, [t for _, t in pairs])
        out = np.empty(len(pairs), dtype=np.float64)
        native_kernel().search_query_pairs(self.capsule, s_rows, t_rows, out, 1)
        return out.tolist()
