"""Flattened hub-label table for the TOAIN baseline.

TOAIN materialises, per vertex, distances to its upward-reachable core
("check-in") vertices as per-vertex dicts.  A :class:`HubStore` freezes those
dicts into a CSR table — one ``int64`` array of core-slot ids and one
``float64`` array of distances — packed, together with the row ids and the
core size, into one :class:`~repro.kernels.arena.Arena` (the buffer
``repro.store`` serializes and ``repro.cluster`` shards mmap-share).  It
answers the one-to-many hub join with a dense source vector: the source's
labels are scattered once into a ``core_size`` vector, every target's slots
gather from it in one fancy index, and a single ``np.minimum.reduceat`` over
the concatenated hub axis yields the per-target join minimum.

The join arithmetic matches the scalar reference (``d_s + d_t`` minimised
over the hubs both vertices share; targets with no shared hub get ``inf``),
so results are bit-identical to the dict-based loop.  The join itself is
numpy, but like every store a hub table is frozen only when the C kernel is
loaded (``repro.base.DistanceIndex._kernel``): TOAIN's sub-core search, which
every query pairs with the join, needs it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import VertexNotFoundError
from repro.kernels.arena import Arena, build_remap, count_freeze, rows_of

INF = math.inf


class HubStore:
    """Immutable CSR snapshot of TOAIN's per-vertex core-label dicts."""

    __slots__ = (
        "arena",
        "row",
        "_remap",
        "core_size",
        "hub_indptr",
        "hub_slots",
        "hub_dists",
    )

    def __init__(self, arena: Arena):
        self.arena = arena
        self.core_size = int(arena["core_size"][0])
        self.hub_indptr = arena["hub_indptr"]
        self.hub_slots = arena["hub_slots"]
        self.hub_dists = arena["hub_dists"]
        verts = arena["verts"]
        self.row = {v: i for i, v in enumerate(verts.tolist())}
        self._remap = build_remap(verts)

    @classmethod
    def freeze(
        cls, core_labels: Dict[int, Dict[int, float]], core_slots: Dict[int, int]
    ) -> Optional["HubStore"]:
        """Flatten ``core_labels`` (hub vertices mapped through ``core_slots``)."""
        if not core_labels:
            return None
        verts = sorted(core_labels)
        counts = [len(core_labels[v]) for v in verts]
        hub_indptr = np.zeros(len(verts) + 1, dtype=np.int64)
        np.cumsum(counts, out=hub_indptr[1:])
        total = int(hub_indptr[-1])
        hub_slots = np.empty(total, dtype=np.int64)
        hub_dists = np.empty(total, dtype=np.float64)
        offset = 0
        for v in verts:
            for hub, distance in core_labels[v].items():
                hub_slots[offset] = core_slots[hub]
                hub_dists[offset] = distance
                offset += 1
        count_freeze("hub_store", "built")
        arena = Arena.pack(
            {
                "verts": np.asarray(verts, dtype=np.int64),
                "core_size": np.asarray([len(core_slots)], dtype=np.int64),
                "hub_indptr": hub_indptr,
                "hub_slots": hub_slots,
                "hub_dists": hub_dists,
            }
        )
        return cls(arena)

    # ------------------------------------------------------------------
    # Snapshot persistence (see repro.store)
    # ------------------------------------------------------------------
    def to_state(self, io) -> dict:
        """Serialize the store as its arena (row order preserved)."""
        state = self.arena.to_state(io)
        state["kind"] = "hub_store"
        return state

    @classmethod
    def from_state(cls, state: dict, io) -> "HubStore":
        """Rebuild over its entry of the mapped snapshot payload."""
        return cls(Arena.from_state(state, io))

    def join_pair(self, source: int, target: int) -> float:
        """Scalar hub-join minimum (``inf`` when no shared hub).

        Same dense-scatter scheme as :meth:`join_one_to_many` for a single
        target; every candidate is the identical ``d_s + d_t`` float64 sum,
        so the result is bit-identical to the dict-based loop.
        """
        row = self.row
        try:
            rs = row[source]
            rt = row[target]
        except KeyError as exc:
            raise VertexNotFoundError(exc.args[0]) from None
        s_start, s_end = self.hub_indptr[rs], self.hub_indptr[rs + 1]
        t_start, t_end = self.hub_indptr[rt], self.hub_indptr[rt + 1]
        if s_end == s_start or t_end == t_start:
            return INF
        dense = np.full(self.core_size, INF, dtype=np.float64)
        dense[self.hub_slots[s_start:s_end]] = self.hub_dists[s_start:s_end]
        candidates = dense[self.hub_slots[t_start:t_end]] + self.hub_dists[t_start:t_end]
        return float(candidates.min())

    def join_one_to_many(self, source: int, targets: Sequence[int]) -> List[float]:
        """Hub-join minimum from ``source`` to each target (``inf`` when none)."""
        row = self.row
        if source not in row:
            raise VertexNotFoundError(source)
        targets = list(targets)
        if not targets:
            return []
        t_rows = rows_of(row, self._remap, targets)
        rs = row[source]
        s_start, s_end = self.hub_indptr[rs], self.hub_indptr[rs + 1]
        dense = np.full(self.core_size, INF, dtype=np.float64)
        dense[self.hub_slots[s_start:s_end]] = self.hub_dists[s_start:s_end]

        starts = self.hub_indptr[t_rows]
        counts = self.hub_indptr[t_rows + 1] - starts
        out = np.full(len(t_rows), INF, dtype=np.float64)
        nonempty = counts > 0
        if not nonempty.any():
            return out.tolist()
        ne_starts = starts[nonempty]
        ne_counts = counts[nonempty]
        seg = np.zeros(len(ne_counts), dtype=np.int64)
        np.cumsum(ne_counts[:-1], out=seg[1:])
        total = int(seg[-1] + ne_counts[-1])
        flat = np.arange(total, dtype=np.int64) - np.repeat(seg, ne_counts) + np.repeat(
            ne_starts, ne_counts
        )
        candidates = dense[self.hub_slots[flat]] + self.hub_dists[flat]
        out[nonempty] = np.minimum.reduceat(candidates, seg)
        return out.tolist()
