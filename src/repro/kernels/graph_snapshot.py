"""Frozen CSR snapshot of the live graph for index-free query stages.

Stage-1 queries (BiDijkstra) and the truncated one-to-many Dijkstras of the
batch plane repeatedly walk ``Graph._adj`` — a dict of dicts whose per-edge
iteration cost dominates small-graph searches.  A :class:`GraphSnapshot`
freezes the adjacency into CSR arrays (``indptr`` / ``indices`` / ``weights``
via :meth:`repro.graph.graph.Graph.to_csr`) packed into one
:class:`~repro.kernels.arena.Arena` — the same buffer ``repro.store``
serializes and ``repro.cluster`` workers mmap-share.

The C search kernel of ``repro.kernels.native`` borrows the arena views (no
copy) and runs the bidirectional search / truncated one-to-many Dijkstra
entirely in C.  Both are literal ports of
:func:`repro.algorithms.dijkstra.bidijkstra` and
:func:`~repro.algorithms.dijkstra.dijkstra_one_to_many` — same relaxation
order (CSR rows preserve the adjacency-dict iteration order), same heap keys
(``(distance, original vertex id)``), same float arithmetic — so their
results are bit-identical to the live-graph reference, which is what an
index searches when the kernel is not loaded (no snapshot is frozen then).

Every snapshot records ``graph.version`` at freeze time; holders use
:meth:`is_fresh` to detect out-of-band mutation.  A batch changes weights
only, so the snapshot of the next epoch is :meth:`patched` from a fresh one:
its buffer is copied and the batch's ``2·|batch|`` weight slots rewritten,
while a stale snapshot is frozen in full again.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.exceptions import VertexNotFoundError
from repro.graph.graph import Graph
from repro.kernels.arena import Arena, build_remap, count_freeze, rows_of
from repro.kernels.native import native_kernel


class GraphSnapshot:
    """Immutable CSR adjacency snapshot of one :class:`Graph` epoch."""

    __slots__ = ("version", "arena", "row", "_remap", "capsule")

    def __init__(
        self, arena: Arena, version: int, layout: Optional["GraphSnapshot"] = None
    ):
        """``layout``: an earlier snapshot with the same ids, whose (never
        mutated) ``row`` dict and remap are shared instead of rebuilt."""
        self.version = version
        self.arena = arena
        ids = arena["ids"]
        if layout is None:
            self.row = {v: i for i, v in enumerate(ids.tolist())}
            self._remap = build_remap(ids)
        else:
            self.row = layout.row
            self._remap = layout._remap
        self.capsule = native_kernel().search_build(
            ids, arena["indptr"], arena["indices"], arena["weights"]
        )

    @classmethod
    def freeze(cls, graph: Graph) -> "GraphSnapshot":
        """Freeze ``graph``'s adjacency, layout and weights."""
        count_freeze("graph_snapshot", "built")
        ids, indptr, indices, weights = graph.to_csr()
        arena = Arena.pack(
            {
                "ids": np.asarray(ids, dtype=np.int64),
                "indptr": np.asarray(indptr, dtype=np.int64),
                "indices": np.asarray(indices, dtype=np.int64),
                "weights": np.asarray(weights, dtype=np.float64),
            }
        )
        return cls(arena, graph.version)

    def patched(
        self, graph: Graph, edges: Iterable[Tuple[int, int]]
    ) -> "GraphSnapshot":
        """The snapshot of ``graph`` after a weight-only change of ``edges``.

        ``self`` must have been fresh before those edges changed, so the
        layout still fits: the buffer is copied, each edge's ``(u, v)`` and
        ``(v, u)`` slots take ``graph.edge_weight(u, v)`` (an edge named
        twice takes its final weight), and ``row`` / remap are shared.  The
        result is byte-identical to :meth:`freeze`; ``self`` is only read.
        """
        arena = Arena(self.arena.buffer.copy(), self.arena.toc)
        indptr = arena["indptr"]
        indices = arena["indices"]
        weights = arena["weights"]
        row = self.row
        for u, v in edges:
            weight = graph.edge_weight(u, v)
            for a, b in ((row[u], row[v]), (row[v], row[u])):
                lo = int(indptr[a])
                weights[lo + indices[lo : int(indptr[a + 1])].tolist().index(b)] = weight
        count_freeze("graph_snapshot", "reused")
        return GraphSnapshot(arena, graph.version, layout=self)

    def is_fresh(self, graph: Graph) -> bool:
        """True while the snapshot still matches the live graph."""
        return self.version == graph.version

    # ------------------------------------------------------------------
    # Snapshot persistence (see repro.store)
    # ------------------------------------------------------------------
    def to_state(self, io) -> dict:
        """Serialize the frozen adjacency as its arena."""
        state = self.arena.to_state(io)
        state["kind"] = "graph_snapshot"
        return state

    @classmethod
    def from_state(cls, state: dict, io, graph: Graph) -> "GraphSnapshot":
        """Reattach a snapshot over its entry of the mapped payload,
        re-keyed to the *loaded* graph's version."""
        return cls(Arena.from_state(state, io), graph.version)

    # ------------------------------------------------------------------
    # Searches (bit-identical ports of repro.algorithms.dijkstra)
    # ------------------------------------------------------------------
    def bidijkstra(self, source: int, target: int) -> float:
        """Bidirectional Dijkstra over the frozen adjacency."""
        row = self.row
        if source not in row:
            raise VertexNotFoundError(source)
        if target not in row:
            raise VertexNotFoundError(target)
        if source == target:
            return 0.0
        return native_kernel().search_query(self.capsule, row[source], row[target], 0)

    def one_to_many(self, source: int, targets: Iterable[int]) -> List[float]:
        """One truncated Dijkstra from ``source``; distances in target order."""
        row = self.row
        if source not in row:
            raise VertexNotFoundError(source)
        target_list = list(targets)
        if not target_list:
            return []
        t_rows = rows_of(row, self._remap, target_list)
        out = np.empty(len(target_list), dtype=np.float64)
        native_kernel().search_one_to_many(self.capsule, row[source], t_rows, out)
        return out.tolist()
